"""The package namespace re-exports every layer module's public names."""
import importlib

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
