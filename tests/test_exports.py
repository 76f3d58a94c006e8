"""The package namespace re-exports every layer module's public names, and
the two evaluators import nothing from each other."""
import ast
import importlib
import inspect
import pathlib

import pytest

import deplog

# every layer module but cli, whose one public name is its entry point
LAYERS = ("syntax", "transforms", "fragments", "structures", "fo_eval",
          "team_eval", "eso_eval", "harness")


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


def _package_imports():
    """Each module of the package -> the package modules it imports."""
    imports = {}
    for path in pathlib.Path(deplog.__file__).parent.glob("*.py"):
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.update([node.module] if node.module
                             else [a.name for a in node.names])
        imports[path.stem] = found
    return imports


def test_evaluators_share_no_search_core():
    # equiv_check validates each evaluator with the other, which only means
    # something while their searches share no code: the classical compiler
    # they both run (fo_eval) reaches neither, and only the harness (and the
    # package namespace, which re-exports every layer) holds both
    imports = _package_imports()
    assert "eso_eval" not in imports["team_eval"]
    assert "team_eval" not in imports["eso_eval"]
    assert not imports["fo_eval"] & {"eso_eval", "team_eval", "harness"}
    both = {name for name, found in imports.items()
            if {"eso_eval", "team_eval"} <= found}
    assert both - {"__init__"} == {"harness"}, both
