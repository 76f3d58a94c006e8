"""Classical first-order evaluation and function-table search.

The classical evaluator has no public entry of its own; its tests run it
through satisfies on a one-row team, which decides a dependence-free
formula row by row."""
import pytest

from helpers import oracle_eso, oracle_fo
from deplog import eso_eval, fo_eval
from deplog.budget import Budget
from deplog.errors import BudgetExceededError, ShapeError
from deplog.eso_eval import eso_satisfies
from deplog.harness import corpus_item, sentence_value
from deplog.structures import Structure, Team, enumerate_structures
from deplog.syntax import (
    And, EsoSentence, RelAtom, Signature, parse_eso, parse_formula,
)
from deplog.team_eval import satisfies

SIG0 = Signature({}, {}, frozenset())
SIG_P = Signature({"P": 1}, {}, frozenset())
SIG_R = Signature({"R": 2}, {}, frozenset())


def bare(size):
    return Structure(SIG0, size, {}, {}, {})


def pstruct(size, P=()):
    return Structure(SIG_P, size, {"P": frozenset(P)}, {}, {})


def fo(struct, formula, env=None):
    """Classical satisfaction by one assignment: satisfies on the team of
    that one row."""
    env = env or {}
    return satisfies(struct, Team(tuple(env), [tuple(env.values())]), formula)


# ---------------------------------------------------------------------------
# classical evaluation
# ---------------------------------------------------------------------------

def test_fo_true():
    assert fo(bare(2), parse_formula("true", SIG0))


def test_fo_atom_false():
    m = pstruct(2, P=[(0,)])
    assert not fo(m, parse_formula("P(x)", SIG_P), {"x": 1})


def test_fo_distinct_element():
    # frozen: both x values see the other element
    f = parse_formula("forall x. exists y. ~x = y", SIG0)
    m = bare(2)
    assert oracle_fo(m, {}, f) is True
    assert fo(m, f) is True
    assert fo(bare(1), f) is False


def test_fo_unbound_variable():
    with pytest.raises(ShapeError):
        fo(pstruct(2), parse_formula("P(x)", SIG_P))


def test_fo_deep_right_nested_chain():
    atom = parse_formula("P(x)", SIG_P)
    chain = atom
    for _ in range(899):
        chain = And(atom, chain)
    assert fo(pstruct(2, P=[(1,)]), chain, {"x": 1}) is True


# ---------------------------------------------------------------------------
# eso_satisfies
# ---------------------------------------------------------------------------

def test_identity_table_exists():
    s = parse_eso("exists fn f/1. forall x. f(x) = x", SIG0)
    for n in (1, 2, 3):
        assert eso_satisfies(bare(n), s) is True


def test_function_value_cannot_be_two_elements():
    s = parse_eso("exists fn f/1. forall x. forall y. f(x) = y", SIG0)
    assert eso_satisfies(bare(2), s) is False
    assert eso_satisfies(bare(1), s) is True


def test_exhausted_entry_is_unset():
    # g() is read first, at 0, which leaves f() no value: ~g() = f() forces
    # f() = 1 and P(f()) refuses it, so f() is exhausted and unset, and g()
    # takes 1; f() must then be read afresh at 0 (kept at 1, it would fail
    # ~g() = f() again)
    s = parse_eso("exists fn g/0. exists fn f/0. (~g() = f() & P(f()) & ~P(g()))",
                  SIG_P)
    m = pstruct(2, [(0,)])
    assert eso_satisfies(m, s) is True
    assert oracle_eso(m, s) is True


def test_even_r_pinned_verdicts():
    er = corpus_item("even_R").sentence()
    m2 = Structure(SIG_R, 2, {"R": frozenset({(0, 1), (1, 0)})}, {}, {})
    m1 = Structure(SIG_R, 2, {"R": frozenset({(0, 1)})}, {}, {})
    assert eso_satisfies(m2, er) is True
    assert eso_satisfies(m1, er) is False


def test_even_r_parity_all_small_structures():
    er = corpus_item("even_R").sentence()
    checked = 0
    for n in (1, 2):
        for m in enumerate_structures(SIG_R, n):
            expected = len(m.relations["R"]) % 2 == 0
            assert eso_satisfies(m, er) == expected
            assert oracle_eso(m, er) == expected
            checked += 1
    assert checked == 18


def test_even_r_parity_on_every_class_leader_of_size_3():
    # 3^18 candidate tables per structure: the search sets only the entries
    # the matrix reads, and decides each leader within the default budget
    from deplog.structures import _walk
    er = corpus_item("even_R")
    s = er.sentence()
    leaders = [m for m in _walk(er.sig, 3, Budget(10 ** 6), leaders_only=True)
               if m is not None]
    assert len(leaders) == 104
    for m in leaders:
        assert eso_satisfies(m, s) == (len(m.relations["R"]) % 2 == 0)


def test_zero_function_sentence_is_first_order():
    s = parse_eso("forall x. exists y. ~x = y", SIG0)
    assert s.functions == ()
    for n in (1, 2, 3):
        assert eso_satisfies(bare(n), s) == fo(
            bare(n), parse_formula("forall x. exists y. ~x = y", SIG0))


def test_mixed_prefix_evaluation():
    s = corpus_item("mixed_choice").sentence()
    sig = corpus_item("mixed_choice").sig
    for n in (1, 2):
        for m in enumerate_structures(sig, n):
            assert eso_satisfies(m, s) == oracle_eso(m, s)


def test_budget_rejects_up_front():
    # nothing is counted up front: the search spends as it works, so a run
    # stops at the first unit past its limit, naming the work that ran out.
    # f(x,x) = x on three elements spends 12 units in all
    s = parse_eso("exists fn f/2. forall x. f(x,x) = x", SIG0)
    contexts = set()
    for limit in range(1, 12):
        b = Budget(limit)
        with pytest.raises(BudgetExceededError) as e:
            eso_satisfies(bare(3), s, b)
        assert b.spent == e.value.spent == limit + 1
        assert str(e.value).endswith(f"(budget {limit} exhausted, spent >= {limit + 1})")
        contexts.add(e.value.context)
    assert contexts == {"function table candidate", "first-order evaluation"}
    assert eso_satisfies(bare(3), s, Budget(12)) is True


@pytest.mark.parametrize("text,struct,verdict", [
    # 3^9 tables, and a matrix that reads f: under a limit of 10 the search
    # stops at the 11th unit
    ("exists fn f/2. forall x. f(x,x) = x", bare(3), None),
    # 2^(2^64), 2^(2^20) and 3^(3^(10^8)) tables, too many to count: a
    # function the matrix never reads is never given an entry, so each is
    # decided on P alone (P(0) true, P(1) false)
    ("exists fn f/64. forall x. P(x)", pstruct(2, [(0,)]), False),
    ("exists fn f/20. forall x. P(x)", pstruct(2, [(0,)]), False),
    ("exists fn f/100000000. forall x. P(x)", pstruct(3, [(0,)]), False),
])
def test_budget_rejects_huge_count_up_front(text, struct, verdict):
    from test_team_eval import Ledger
    s = parse_eso(text, struct.sig)
    b = Ledger()
    b.limit = 10
    if verdict is None:
        with pytest.raises(BudgetExceededError) as e:
            eso_satisfies(struct, s, b)
        assert b.spent == e.value.spent == 11
    else:
        assert eso_satisfies(struct, s, b) is verdict
        assert b.tally == {"first-order evaluation": 2}


def test_work_ledger():
    # the exact work of the table search, by context: one unit per value
    # tried for a table entry, and the matrix spends under the plan's
    # context, as the team evaluator's row checks spend under theirs
    # (test_team_eval's ledger).  f(x) = x on two elements: instance x=0
    # reads f(0), set to 0, and holds; x=1 reads f(1), set to 0, and fails;
    # f(1) takes 1 and the search resumes at x=1, which holds
    from test_team_eval import Ledger
    ledger = Ledger()
    assert eso_satisfies(bare(2), parse_eso("exists fn f/1. forall x. f(x) = x",
                                            SIG0), ledger)
    assert ledger.tally == {"function table candidate": 3,
                            "first-order evaluation": 3}
    even_r = corpus_item("even_R")
    ledger = Ledger()
    assert eso_satisfies(list(enumerate_structures(even_r.sig, 2))[5],
                         even_r.sentence(), ledger)
    assert ledger.tally == {"function table candidate": 9,
                            "first-order evaluation": 55}


def test_malformed_tree_is_a_shape_error():
    # a hand-built atom whose argument is not a term reaches the compiler
    # behind every evaluator entry
    bad = RelAtom("P", (5,))
    m = pstruct(2, [(0,)])
    for call in (lambda: satisfies(m, Team((), [()]), bad),
                 lambda: sentence_value(m, bad),
                 lambda: eso_satisfies(m, EsoSentence((), (), bad))):
        with pytest.raises(ShapeError, match="not a term: 5"):
            call()


def test_oracle_agreement_on_corpus_eso():
    for name in ("eso_id", "eso_const", "eso_choice", "eso_square",
                 "eso_coherent"):
        item = corpus_item(name)
        s = item.sentence()
        for n in (1, 2):
            for m in enumerate_structures(item.sig, n):
                assert eso_satisfies(m, s) == oracle_eso(m, s), (name, n)


# ---------------------------------------------------------------------------
# plan reuse: eso_satisfies compiles a sentence once and runs the plan on
# every later call, each run spending from its own budget
# ---------------------------------------------------------------------------

def _cached(sentence):
    return [plan for s, plan in eso_eval._PLANS.plans.values() if s is sentence]


def _even_r():
    even_r = corpus_item("even_R")
    return even_r.sentence(), list(enumerate_structures(even_r.sig, 2))[5]


def test_reused_plan_spends_from_each_calls_budget():
    from test_team_eval import Ledger
    s, m = _even_r()
    ledgers = [Ledger() for _ in range(3)]
    assert [eso_satisfies(m, s, ledger) for ledger in ledgers] == [True] * 3
    plans = _cached(s)
    assert len(plans) == 1
    eso_satisfies(m, s, Ledger())
    assert _cached(s) == plans
    # the cold call's tally, test_work_ledger's
    assert all(l.tally == {"function table candidate": 9,
                           "first-order evaluation": 55} for l in ledgers)


def test_run_after_an_aborted_run_is_cold():
    from test_team_eval import Ledger
    s, m = _even_r()
    cold = Ledger()
    assert eso_satisfies(m, s, cold)
    small = Ledger()
    small.limit = 30  # the cold call spends 64 units
    with pytest.raises(BudgetExceededError, match="spent >= 31"):
        eso_satisfies(m, s, small)
    warm = Ledger()
    assert eso_satisfies(m, s, warm)
    assert warm.tally == cold.tally


def test_refusal_counts_at_the_running_budgets_limit():
    # one cached plan, each run stopping at its own budget's limit, where a
    # fresh plan run with that limit stops
    s, m = _even_r()
    warm, cold = [], []
    for limit in (10 ** 9, 40, 30):
        for lines, run in ((warm, eso_satisfies),
                           (cold, lambda m, s, b: eso_eval._eso_plan(s, m.sig)(m, b))):
            try:
                assert run(m, s, Budget(limit)) is True
            except BudgetExceededError as e:
                lines.append(str(e))
    assert warm == cold == [
        "function table candidate (budget 40 exhausted, spent >= 41)",
        "first-order evaluation (budget 30 exhausted, spent >= 31)"]


def test_cached_plan_keeps_no_structure_or_budget():
    import gc
    import weakref

    class Held(Budget):  # no __slots__, so it can be weakly referenced
        pass

    s, m = _even_r()
    budget = Held(10 ** 6)
    assert eso_satisfies(m, s, budget) is True
    gone = weakref.ref(budget)
    del budget
    gc.collect()
    assert gone() is None
    plan, = _cached(s)
    assert plan.syms.values[1:] == [None] * (len(plan.syms.values) - 1)


def test_mutated_signature_is_checked_again():
    sig = Signature({"P": 1})
    m = Structure(sig, 2, {"P": frozenset({(0,)})}, {}, {})
    s = parse_eso("exists fn f/1. forall x. P(f(x))", sig)
    assert eso_satisfies(m, s) is True
    sig.relations["P"] = 2
    with pytest.raises(ShapeError, match="relation 'P' has arity 2"):
        eso_satisfies(m, s)


def test_budget_is_checked_before_the_symbols():
    # a budget that is not a Budget is reported before a symbol the
    # signature lacks
    s = parse_eso("exists fn f/1. forall x. Q(f(x))", Signature({"Q": 1}))
    m = pstruct(2, [(0,)])
    with pytest.raises(ShapeError, match="budget must be a Budget, got 5"):
        eso_satisfies(m, s, 5)
    with pytest.raises(ShapeError, match="'Q'"):
        eso_satisfies(m, s)


def test_budget_variable_is_read_on_every_call(monkeypatch):
    monkeypatch.delenv("DEPLOG_BUDGET", raising=False)
    s, m = _even_r()
    assert eso_satisfies(m, s) is True
    monkeypatch.setenv("DEPLOG_BUDGET", "5")
    with pytest.raises(BudgetExceededError) as e:
        eso_satisfies(m, s)
    assert e.value.limit == 5


def test_plan_cache_stays_at_its_bound():
    cache = eso_eval._PLANS
    sentences = [parse_eso(f"exists fn f{i}/1. forall x. f{i}(x) = x", SIG0)
                 for i in range(3 * fo_eval._PLAN_CACHE_SIZE)]
    for s in sentences:
        assert eso_satisfies(bare(1), s) is True
    assert len(cache.plans) == fo_eval._PLAN_CACHE_SIZE
    assert _cached(sentences[-1]) and not _cached(sentences[0])


def test_two_threads_decide_one_sentence():
    import sys
    import threading
    s, _ = _even_r()
    sig = corpus_item("even_R").sig
    cases = [(Structure(sig, 2, {"R": frozenset(edges)}, {}, {}), len(edges) % 2 == 0)
             for edges in ([(0, 1), (1, 0)], [(0, 1)])]
    got = [[], []]

    def decide(i):
        m, _ = cases[i]
        for _ in range(100):
            got[i].append(eso_satisfies(m, s))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=decide, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert got == [[want] * 100 for _, want in cases]
