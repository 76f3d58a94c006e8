"""The package namespace re-exports every layer module's public names."""
import importlib
import inspect

import pytest

import deplog

# every layer module but cli, whose one public name is its entry point
LAYERS = ("syntax", "transforms", "fragments", "structures", "team_eval",
          "eso_eval", "harness")


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_names_are_reexported(layer):
    module = importlib.import_module(f"deplog.{layer}")
    missing = [name for name in module.__all__
               if getattr(deplog, name, None) is not getattr(module, name)]
    assert not missing, missing


def test_budgeted_entries_default_to_none_and_are_pinned():
    # an omitted budget means the module defaults at every entry; the
    # contract test calls each entry that takes one without it
    from test_harness import DEFAULT_BUDGET_CALLS
    budgeted = {}
    for name in deplog.__dict__:
        obj = getattr(deplog, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if "budget" in params:
            budgeted[name] = params["budget"].default
    assert budgeted and all(d is None for d in budgeted.values()), budgeted
    pinned = {param.values[0] for param in DEFAULT_BUDGET_CALLS}
    assert set(budgeted) <= pinned, sorted(set(budgeted) - pinned)
