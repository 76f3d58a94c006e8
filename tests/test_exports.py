"""The package namespace re-exports every layer module's public names, a
malformed input to a public entry is a DeplogError, and the two evaluators
import nothing from each other."""
import ast
import importlib
import inspect
import pathlib

import pytest

import deplog

# every layer module but cli, whose one public name is its entry point
LAYERS = ("errors", "budget", "syntax", "transforms", "fragments", "structures",
          "fo_eval", "team_eval", "eso_eval", "harness")


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_names_are_reexported(layer):
    module = importlib.import_module(f"deplog.{layer}")
    missing = [name for name in module.__all__
               if getattr(deplog, name, None) is not getattr(module, name)]
    assert not missing, missing


_SIG = deplog.Signature({"P": 1}, {"f": 1})
_STRUCT_FIELDS = {"sig": _SIG, "size": 2, "relations": {"P": [[0]]},
                  "functions": {"f": [1, 0]}, "constants": {}}
_STRUCT = deplog.Structure(**_STRUCT_FIELDS)
_SENTENCE = deplog.parse_formula("forall x. P(x)", _SIG)
_ESO_SENTENCE = deplog.parse_eso("exists fn g/1. forall x. P(g(x))", _SIG)
_X = deplog.Var("x")
# a node that is no formula at the root, an operand, an atom argument and
# a function argument
_BAD_TREES = {
    "var": _X,
    "none": deplog.And(None, deplog.TRUE),
    "string-argument": deplog.Forall("x", deplog.And(
        deplog.RelAtom("P", (_X,)), deplog.RelAtom("P", ("x",)))),
    "int-argument": deplog.Forall("x", deplog.Or(deplog.TRUE, deplog.Equal(
        _X, deplog.App("f", (deplog.App("f", (1,)),))))),
}
_TREE_ENTRIES = {
    "render_formula": deplog.render_formula,
    "free_vars": deplog.free_vars,
    "to_prenex": deplog.to_prenex,
    "d_to_eso": deplog.d_to_eso,
    "classify_d": deplog.classify_d,
    "satisfies": lambda f: deplog.satisfies(_STRUCT, deplog.Team((), [()]), f),
    "sentence_value": lambda f: deplog.sentence_value(_STRUCT, f),
    "equiv_check": lambda f: deplog.equiv_check(f, _SENTENCE, _SIG, 1),
}
MALFORMED_CALLS = [
    *(pytest.param(lambda entry=entry, f=f: entry(f), id=f"{name}-{tree}")
      for name, entry in _TREE_ENTRIES.items() for tree, f in _BAD_TREES.items()),
    *(pytest.param(lambda rows=rows: deplog.satisfies(
        _STRUCT, deplog.Team(("x",), rows), deplog.RelAtom("P", (_X,))), id=f"Team-{kind}")
      for kind, rows in (("str", {("a",)}), ("bool", {(True,)}), ("list", [[[0]]]))),
    pytest.param(lambda: deplog.Budget("5"), id="Budget-str"),
    pytest.param(lambda: deplog.Budget(True), id="Budget-bool"),
    pytest.param(lambda: list(deplog.enumerate_structures(_SIG, 2.0)),
                 id="enumerate_structures-size"),
    pytest.param(lambda: list(deplog.enumerate_structures(_SIG, 2, deplog.Budget(3.5))),
                 id="enumerate_structures-budget"),
    pytest.param(lambda: deplog.equiv_check(_SENTENCE, _SENTENCE, _SIG, 2.0),
                 id="equiv_check-max_n"),
    pytest.param(lambda: deplog.equiv_check(_SENTENCE, _SENTENCE, _SIG, 2, budget=2.5),
                 id="equiv_check-budget"),
    # a budget that is not a Budget
    pytest.param(lambda: deplog.satisfies(_STRUCT, deplog.Team((), [()]), _SENTENCE,
                                          budget=5), id="satisfies-int-budget"),
    pytest.param(lambda: deplog.sentence_value(_STRUCT, _SENTENCE, 5),
                 id="sentence_value-int-budget"),
    pytest.param(lambda: deplog.eso_satisfies(_STRUCT, _ESO_SENTENCE, 5),
                 id="eso_satisfies-int-budget"),
    pytest.param(lambda: deplog.enumerate_structures(_SIG, 2, 5),
                 id="enumerate_structures-int-budget"),
    # a constructor field of the wrong container type
    *(pytest.param(lambda kwargs=kwargs: deplog.Structure(**{**_STRUCT_FIELDS, **kwargs}),
                   id=f"Structure-{name}")
      for name, kwargs in (("int-tuple", {"relations": {"P": [5]}}),
                           ("int-relation", {"relations": {"P": 5}}),
                           ("int-table", {"functions": {"f": 5}}),
                           ("list-relations", {"relations": ["P"]}),
                           ("dict-sig", {"sig": {}}))),
    *(pytest.param(lambda fields=fields: deplog.Team(*fields), id=f"Team-{name}")
      for name, fields in (("int-in-rows", (("x",), {5})), ("int-rows", (("x",), 5)),
                           ("int-vars", (5, [])), ("list-var", ([["x"]], [])))),
    *(pytest.param(lambda fields=fields: deplog.Signature(*fields), id=f"Signature-{name}")
      for name, fields in (("int-relations", (5,)), ("int-functions", ({"P": 1}, 5)),
                           ("int-constants", ({}, {}, 5)))),
    pytest.param(lambda: deplog.EsoSentence(5, (), deplog.TRUE), id="EsoSentence-int"),
    pytest.param(lambda: deplog.NormalFormD(5, (), deplog.TRUE), id="NormalFormD-int-prefix"),
    pytest.param(lambda: deplog.NormalFormD((), 5, deplog.TRUE), id="NormalFormD-int-bindings"),
    pytest.param(lambda: deplog.App("f", 5), id="App-int"),
    pytest.param(lambda: deplog.RelAtom("P", 5), id="RelAtom-int"),
    pytest.param(lambda: deplog.DepAtom(5), id="DepAtom-int"),
]


@pytest.mark.parametrize("call", MALFORMED_CALLS)
def test_malformed_library_input_is_a_deplog_error(call):
    # the library counterpart of the CLI's exit 2: any other exception fails
    with pytest.raises(deplog.DeplogError):
        call()


def test_malformed_library_input_cases():
    assert len(MALFORMED_CALLS) == 8 * 4 + 3 + 6 + 4 + 18


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
