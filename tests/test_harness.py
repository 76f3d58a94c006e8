"""Equivalence oracle and corpus: verdict shapes, counterexample
minimality and determinism, budget behavior, corpus integrity."""
import itertools

import pytest

from helpers import count_structures, is_class_leader
from deplog import harness, structures
from deplog.budget import Budget
from deplog.errors import BudgetExceededError, ShapeError
from deplog.eso_eval import eso_satisfies
from deplog.harness import (
    CorpusItem, Verdict, corpus, corpus_item, equiv_check, sentence_value,
)
from deplog.structures import (
    Structure, Team, enumerate_structures, structure_to_json_dict,
)
from deplog.syntax import (
    Signature, parse_eso, parse_eso_infer, parse_formula, parse_formula_infer,
    render_eso, render_formula,
)
from deplog.team_eval import satisfies, sentence_truth
from deplog.transforms import d_to_eso, eso_to_d

SIG_E = Signature({"E": 2})
SIG_PC = Signature({"P": 1}, {}, frozenset({"c"}))


# ---------------------------------------------------------------------------
# equiv_check
# ---------------------------------------------------------------------------

def test_equiv_spine_against_translation():
    item = corpus_item("spine")
    v = equiv_check(item.formula(), d_to_eso(item.formula()), item.sig, 3)
    assert v.outcome == "equivalent"
    assert v.max_size == 3
    assert v.structures_checked == sum(
        count_structures(item.sig, n) for n in (1, 2, 3))
    assert v.structure is None


@pytest.mark.parametrize("name,fits", [("spine", True), ("phi2_closed", False),
                                       ("term_atom", True), ("eso_choice", True)])
def test_compiled_sides_spend_what_sentence_value_spends(name, fits, monkeypatch):
    # equiv_check compiles each side once and evaluates the first structure
    # of each isomorphism class only (the leader test pays at sizes 1 and 2
    # of these signatures); the plans must do exactly the work of one
    # sentence_value call per side and class leader
    item = corpus_item(name)
    left = item.parsed()
    right = d_to_eso(left) if item.kind == "D" else eso_to_d(left)
    shared = Budget(10**9)
    for n in (1, 2):
        for m in enumerate_structures(item.sig, n):
            if is_class_leader(m):
                assert sentence_value(m, left, shared) == sentence_value(m, right, shared)
    spent = shared.spent
    made = []

    class Recording(Budget):
        def __init__(self, limit):
            super().__init__(limit)
            made.append(self)

    with monkeypatch.context() as mp:
        mp.setattr(harness, "Budget", Recording)
        v = equiv_check(left, right, item.sig, 2, budget=10**9)
    assert v.outcome == "equivalent"
    # the structure budget, then the check budget
    assert [b.spent for b in made] == [v.structures_checked, spent]
    with pytest.raises(BudgetExceededError):
        equiv_check(left, right, item.sig, 2, budget=spent - 1)
    # phi2_closed's image has three unary functions: at size 2 the up-front
    # check wants room for all 64 candidate tables, more than the 13 units
    # its search spends there, so a budget of exactly the work is refused
    if fits:
        v = equiv_check(left, right, item.sig, 2, budget=spent)
        assert v.outcome == "equivalent"


SIG_MIXED = Signature({"P": 1, "E": 2}, {"g": 1}, frozenset({"c"}))
MIXED_TEXTS = (
    "P(c)",
    "exists x. (x = c & P(x))",
    "P(g(c))",
    "exists x. P(x)",
    "forall x. P(x)",
    "exists x. exists y. (P(y) & g(x) = y)",
    "exists x. P(g(x))",
    "forall x. E(x, g(x))",
    "E(c, g(c))",
    "E(g(c), c)",
    "forall x. exists y. (=(x,y) & E(x,y))",
    "forall x. (P(x) | E(x, x))",
)


def _brute_force_equiv(left_values, right_values, structs):
    """equiv_check's verdict, from every structure's values in enumeration
    order: the first disagreement, or none."""
    for i, (m, lv, rv) in enumerate(zip(structs, left_values, right_values)):
        if lv != rv:
            return {"outcome": "counterexample", "max_size": m.size,
                    "structures_checked": i + 1,
                    "structure": structure_to_json_dict(m),
                    "left_verdict": lv, "right_verdict": rv}
    return {"outcome": "equivalent", "max_size": structs[-1].size,
            "structures_checked": len(structs)}


def test_equiv_matches_brute_force_on_mixed_signature():
    # evaluating one structure per isomorphism class must give the verdict,
    # count and counterexample that evaluating every structure gives
    sentences = [parse_formula(t, SIG_MIXED) for t in MIXED_TEXTS]
    sentences.append(d_to_eso(sentences[-2]))
    sentences.append(parse_eso("exists fn f/1. forall x. E(x, f(x))", SIG_MIXED))
    structs = [m for n in (1, 2) for m in enumerate_structures(SIG_MIXED, n)]
    values = [[sentence_value(m, s) for m in structs] for s in sentences]
    outcomes = set()
    for i, left in enumerate(sentences):
        for j, right in enumerate(sentences):
            got = equiv_check(left, right, SIG_MIXED, 2).to_dict()
            del got["wall_time"]
            assert got == _brute_force_equiv(values[i], values[j], structs), (i, j)
            outcomes.add((got["outcome"], got["max_size"]))
    # equivalent pairs, and counterexamples at both sizes
    assert outcomes == {("equivalent", 2), ("counterexample", 1),
                        ("counterexample", 2)}


def _evaluated(sig, max_n, monkeypatch) -> int:
    """How many structures equiv_check evaluates on sizes 1..max_n."""
    calls = []
    plan = harness._plan

    def counting(s, signature, budget):
        run = plan(s, signature, budget)
        return lambda m: calls.append(m) or run(m)

    f = parse_formula("forall x. x = x", sig)
    with monkeypatch.context() as mp:
        mp.setattr(harness, "_plan", counting)
        v = equiv_check(f, f, sig, max_n)
    assert v.structures_checked == sum(count_structures(sig, n)
                                       for n in range(1, max_n + 1))
    assert len(calls) % 2 == 0
    return len(calls) // 2


@pytest.mark.parametrize("sig,n,classes", [
    (SIG_E, 3, 104),
    (Signature({"P": 1, "E": 2}), 3, 752),
    (SIG_MIXED, 2, None),
    (Signature({}, {"g": 1}, frozenset({"c", "d"})), 3, None),
    (Signature({}, {"f": 1, "g": 1}, frozenset({"c"})), 3, None),
    (Signature({}, {"F": 2}), 2, None),
])
def test_equiv_evaluates_one_structure_per_class(sig, n, classes, monkeypatch):
    leaders = sum(map(is_class_leader, enumerate_structures(sig, n)))
    if classes is not None:
        assert leaders == classes
    at_n = _evaluated(sig, n, monkeypatch) - _evaluated(sig, n - 1, monkeypatch)
    assert at_n == leaders


def _leader_tests_built(sig, max_n, monkeypatch) -> list[int]:
    """The sizes at which equiv_check builds the leader test."""
    built = []
    test = structures._leader_test

    def recording(syms, size, tuples):
        built.append(size)
        return test(syms, size, tuples)

    f = parse_formula("forall x. x = x", sig)
    with monkeypatch.context() as mp:
        mp.setattr(structures, "_leader_test", recording)
        equiv_check(f, f, sig, max_n)
    return built


def test_leader_test_only_where_it_pays(monkeypatch):
    # with one constant there is one class per size: past size 4 the
    # size! - 1 images would cost more than the structures they save, so
    # every structure is evaluated, and size 12 is as quick as before
    sig = Signature({}, {}, frozenset({"c"}))
    f = parse_formula("c = c", sig)
    v = equiv_check(f, f, sig, 12)
    assert (v.outcome, v.structures_checked) == ("equivalent", 78)
    assert _leader_tests_built(sig, 12, monkeypatch) == [2, 3, 4]
    assert _evaluated(sig, 5, monkeypatch) - _evaluated(sig, 4, monkeypatch) == 5
    assert _leader_tests_built(Signature({"P": 1}), 10, monkeypatch) == [2, 3]
    # nor does it build more images than the structure budget has left:
    # after sizes 1 and 2 of {E/2}, 18 structures are spent, and size 3's
    # 6 images fit in a limit of 24 but not of 23
    for limit, pays in ((24, True), (23, False)):
        budget = Budget(limit)
        budget.spend(18)
        assert structures._leader_test_pays(structures._symbols(SIG_E), 3, budget) is pays


def test_counterexample_is_first_structure():
    left = parse_formula("P(c)", SIG_PC)
    right = parse_formula("~P(c)", SIG_PC)
    v = equiv_check(left, right, SIG_PC, 2)
    assert v.outcome == "counterexample"
    assert v.max_size == 1
    assert v.structures_checked == 1
    first = next(iter(enumerate_structures(SIG_PC, 1)))
    assert v.structure == structure_to_json_dict(first)
    assert v.left_verdict != v.right_verdict


def test_counterexample_minimal_and_deterministic():
    left, _ = parse_formula_infer("exists x. P(x)")
    right, _ = parse_formula_infer("forall x. P(x)")
    sig = Signature({"P": 1})
    v1 = equiv_check(left, right, sig, 3)
    v2 = equiv_check(left, right, sig, 3)
    assert v1.outcome == "counterexample"
    assert v1.max_size == 2  # they agree on every one-point structure
    assert v1.structure == v2.structure
    assert v1.structures_checked == v2.structures_checked
    assert v1.structure["domain"] == 2
    p = v1.structure["relations"]["P"]
    assert len(p) == 1  # nonempty but not full


def test_equiv_reflexive():
    for name in ("spine", "const_eq", "eso_choice"):
        item = corpus_item(name)
        v = equiv_check(item.parsed(), item.parsed(), item.sig, 2)
        assert v.outcome == "equivalent", name


def test_counterexample_symmetry():
    left, _ = parse_formula_infer("exists x. P(x)")
    right, _ = parse_formula_infer("forall x. P(x)")
    sig = Signature({"P": 1})
    a = equiv_check(left, right, sig, 2)
    b = equiv_check(right, left, sig, 2)
    assert a.outcome == b.outcome == "counterexample"
    assert a.structure == b.structure
    assert a.left_verdict == b.right_verdict
    assert a.right_verdict == b.left_verdict


def test_mixed_kinds_compare():
    item = corpus_item("eso_const")
    fo, _ = parse_formula_infer("exists x. P(x)")
    v = equiv_check(item.sentence(), fo, item.sig, 3)
    assert v.outcome == "equivalent"


def test_budget_error_names_domain_size():
    item = corpus_item("spine")
    with pytest.raises(BudgetExceededError) as exc:
        equiv_check(item.formula(), d_to_eso(item.formula()), item.sig, 3,
                    budget=5)
    msg = str(exc.value)
    assert "domain size" in msg
    assert "budget" in msg


@pytest.mark.parametrize("sig,text,budget,layer", [
    # the check budget runs out in the team side, choosing spine's y
    pytest.param(SIG_E, None, 200, "existential extension", id="check"),
    # a 40-ary relation has more argument tuples at size 2 than the default
    # structure budget, so the walk is refused before it starts
    pytest.param(Signature({"R": 40}), "forall x. x = x", None,
                 "structure enumeration", id="wide-arity"),
])
def test_budget_error_names_the_layer(sig, text, budget, layer, monkeypatch):
    monkeypatch.delenv("DEPLOG_BUDGET", raising=False)
    if text is None:
        left = corpus_item("spine").formula()
        right = d_to_eso(left)
    else:
        left = right = parse_formula(text, sig)
    with pytest.raises(BudgetExceededError) as exc:
        equiv_check(left, right, sig, 3, budget=budget)
    assert f"): {layer} (budget" in str(exc.value)


def test_budget_does_not_change_verdicts():
    item = corpus_item("const_eq")
    small = equiv_check(item.formula(), item.formula(), item.sig, 2,
                        budget=10**6)
    default = equiv_check(item.formula(), item.formula(), item.sig, 2)
    assert small.outcome == default.outcome == "equivalent"
    assert small.structures_checked == default.structures_checked


def test_max_n_must_be_positive():
    f, _ = parse_formula_infer("exists x. P(x)")
    with pytest.raises(ShapeError):
        equiv_check(f, f, Signature({"P": 1}), 0)


def test_counts_must_be_integers():
    # a budget, a domain size and max_n are ints that are not bools, and an
    # int below 1 keeps its own message
    sig = Signature({"P": 1})
    f, _ = parse_formula_infer("exists x. P(x)")
    for call, message in (
            (lambda: Budget("5"), "budget must be an integer, got '5'"),
            (lambda: Budget(True), "budget must be an integer, got True"),
            (lambda: list(enumerate_structures(sig, 2, Budget(3.5))),
             "budget must be an integer, got 3.5"),
            (lambda: equiv_check(f, f, sig, 2, budget=2.5),
             "budget must be an integer, got 2.5"),
            (lambda: list(enumerate_structures(sig, 2.0)),
             "domain size must be an integer, got 2.0"),
            (lambda: equiv_check(f, f, sig, 2.0), "max_n must be an integer, got 2.0"),
            (lambda: Budget(0), "budget must be at least 1"),
            (lambda: list(enumerate_structures(sig, 0)), "domain size must be at least 1"),
            (lambda: equiv_check(f, f, sig, -1), "max_n must be at least 1")):
        with pytest.raises(ShapeError) as e:
            call()
        assert str(e.value) == message


def test_equiv_rejects_open_formula():
    # the same error class from every sentence entry
    item = corpus_item("phi1")
    f = parse_formula(item.text, item.sig)
    m = next(enumerate_structures(item.sig, 2))
    with pytest.raises(ShapeError):
        equiv_check(f, f, item.sig, 2)
    with pytest.raises(ShapeError):
        sentence_value(m, f)
    with pytest.raises(ShapeError):
        sentence_truth(m, f)


def test_equiv_rejects_undeclared_symbols():
    sig = Signature({"Q": 1})
    f, _ = parse_formula_infer("exists x. P(x)")
    with pytest.raises(ShapeError):
        equiv_check(f, f, sig, 2)
    s, _ = parse_eso_infer("exists fn f/1. forall x. P(f(x))")
    with pytest.raises(ShapeError):
        equiv_check(s, s, sig, 2)
    with pytest.raises(ShapeError):
        sentence_value(next(enumerate_structures(sig, 1)), s)


# ---------------------------------------------------------------------------
# Verdict plumbing
# ---------------------------------------------------------------------------

def test_verdict_to_dict_equivalent_shape():
    item = corpus_item("const_eq")
    v = equiv_check(item.formula(), item.formula(), item.sig, 2)
    d = v.to_dict()
    assert list(d) == ["outcome", "max_size", "structures_checked", "wall_time"]
    assert d["outcome"] == "equivalent"
    assert isinstance(d["wall_time"], float)


def test_verdict_to_dict_counterexample_shape():
    left = parse_formula("P(c)", SIG_PC)
    right = parse_formula("~P(c)", SIG_PC)
    d = equiv_check(left, right, SIG_PC, 1).to_dict()
    assert list(d) == ["outcome", "max_size", "structures_checked", "wall_time",
                       "structure", "left_verdict", "right_verdict"]
    assert isinstance(d["structure"], dict)


# ---------------------------------------------------------------------------
# sentence_value
# ---------------------------------------------------------------------------

def test_sentence_value_dispatch():
    eso = corpus_item("eso_id").sentence()
    dsent = corpus_item("const_eq").formula()
    for n in (1, 2):
        for m in enumerate_structures(Signature(), n):
            assert sentence_value(m, eso) is True
            assert sentence_value(m, dsent) is (n == 1)


def test_sentence_value_accepts_budget():
    m = next(iter(enumerate_structures(Signature(), 2)))
    b = Budget(10**6)
    assert sentence_value(m, corpus_item("eso_id").sentence(), b) is True
    assert b.spent > 0


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------

def test_budget_counter_mechanics():
    b = Budget(3)
    b.spend(2)
    assert b.spent == 2
    assert b.would_exceed(2) and not b.would_exceed(1)
    with pytest.raises(BudgetExceededError) as exc:
        b.spend(5, context="table search")
    assert "table search" in str(exc.value)
    with pytest.raises(ShapeError):
        Budget(0)


def test_env_var_overrides_defaults(monkeypatch):
    from deplog.budget import (
        DEFAULT_CHECK_BUDGET, DEFAULT_STRUCTURE_BUDGET,
        default_check_budget, default_structure_budget,
    )
    monkeypatch.delenv("DEPLOG_BUDGET", raising=False)
    assert default_check_budget().limit == DEFAULT_CHECK_BUDGET
    assert default_structure_budget().limit == DEFAULT_STRUCTURE_BUDGET
    monkeypatch.setenv("DEPLOG_BUDGET", "12345")
    assert default_check_budget().limit == 12345
    assert default_structure_budget().limit == 12345
    monkeypatch.setenv("DEPLOG_BUDGET", "not a number")
    assert default_check_budget().limit == DEFAULT_CHECK_BUDGET
    monkeypatch.setenv("DEPLOG_BUDGET", "-3")
    assert default_structure_budget().limit == DEFAULT_STRUCTURE_BUDGET


def _full_e(n: int) -> Structure:
    return Structure(SIG_E, n, {"E": frozenset(itertools.product(range(n), repeat=2))},
                     {}, {})


def _phi1_team() -> Team:
    return Team(("x", "y", "u", "v"), [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 1)])


_SPINE = corpus_item("spine")
_CHOICE = corpus_item("eso_choice")
_PHI1 = corpus_item("phi1")

# every public entry that takes a budget, called without one (the export
# test checks that none is missing)
DEFAULT_BUDGET_CALLS = [
    pytest.param("equiv_check",
                 lambda: equiv_check(_SPINE.formula(), _SPINE.formula(), SIG_E, 2),
                 id="equiv_check"),
    pytest.param("sentence_truth",
                 lambda: sentence_truth(_full_e(3), _SPINE.formula()),
                 id="sentence_truth"),
    pytest.param("sentence_value",
                 lambda: sentence_value(_full_e(3), _SPINE.formula()),
                 id="sentence_value-D"),
    pytest.param("eso_satisfies",
                 lambda: eso_satisfies(_full_e(3), _CHOICE.sentence()),
                 id="eso_satisfies"),
    pytest.param("sentence_value",
                 lambda: sentence_value(_full_e(3), _CHOICE.sentence()),
                 id="sentence_value-ESO"),
    pytest.param("satisfies",
                 lambda: satisfies(Structure(Signature(), 2, {}, {}, {}),
                                   _phi1_team(), _PHI1.formula()),
                 id="satisfies"),
    pytest.param("enumerate_structures",
                 lambda: list(enumerate_structures(SIG_E, 2)),
                 id="enumerate_structures"),
]


@pytest.mark.parametrize("entry,call", DEFAULT_BUDGET_CALLS)
def test_env_var_reaches_equiv_check(monkeypatch, entry, call):
    # an omitted budget is the module default, which DEPLOG_BUDGET lowers
    monkeypatch.setenv("DEPLOG_BUDGET", "5")
    with pytest.raises(BudgetExceededError):
        call()


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def test_corpus_size_and_names():
    items = corpus()
    assert len(items) == 24
    names = [it.name for it in items]
    assert len(set(names)) == len(names)
    for expected in ("phi1", "phi2", "phi1_closed", "phi2_closed", "henkin",
                     "spine", "width3", "term_atom", "even_R", "eso_id"):
        assert expected in names


def test_corpus_kinds_and_parses():
    for it in corpus():
        assert it.kind in ("D", "ESO")
        parsed = it.parsed()
        if it.kind == "D":
            assert render_formula(parsed)
        else:
            assert render_eso(parsed)


def test_corpus_team_schema():
    phi1 = corpus_item("phi1")
    assert phi1.team_vars == ("x", "y", "u", "v")


def test_corpus_kind_mismatch_errors():
    with pytest.raises(ShapeError):
        corpus_item("even_R").formula()
    with pytest.raises(ShapeError):
        corpus_item("spine").sentence()


def test_corpus_unknown_name_lists_known():
    with pytest.raises(ShapeError) as exc:
        corpus_item("nonesuch")
    msg = str(exc.value)
    assert "nonesuch" in msg
    assert "phi1" in msg and "even_R" in msg


def test_corpus_notes_present():
    for it in corpus():
        assert it.note, it.name


def test_corpus_open_items_have_schema_covering_free_vars():
    from deplog.syntax import free_vars
    for it in corpus():
        if it.kind != "D":
            continue
        fv = free_vars(it.formula())
        if it.team_vars:
            assert fv <= set(it.team_vars), it.name
        else:
            assert not fv, it.name
