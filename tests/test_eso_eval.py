"""Classical first-order evaluation and function-table search.

The classical evaluator has no public entry of its own; its tests run it
through satisfies on a one-row team, which decides a dependence-free
formula row by row."""
import pytest

from helpers import oracle_eso, oracle_fo
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
    s = parse_eso("exists fn f/2. forall x. f(x,x) = x", SIG0)
    b = Budget(10)
    with pytest.raises(BudgetExceededError):
        eso_satisfies(bare(3), s, b)  # 3^9 candidate tables
    assert b.spent == 0  # nothing was burned before the refusal


@pytest.mark.parametrize("text,struct,spent", [
    # 3^9 tables: a count that fits is reported exactly
    ("exists fn f/2. forall x. f(x,x) = x", bare(3), 3**9),
    # 2^(2^64) and 2^(2^20) tables: the refusal builds the count only up
    # to 65 table entries, the bits of 2^64, and reports that lower bound
    # (2^(2^20) has 315,653 digits, past what Python converts to a string)
    ("exists fn f/64. forall x. P(x)", pstruct(2, [(0,)]), 2**65),
    ("exists fn f/20. forall x. P(x)", pstruct(2, [(0,)]), 2**65),
    # nor does it build the number of entries, 3^(10^8)
    ("exists fn f/100000000. forall x. P(x)", pstruct(3, [(0,)]), 3**65),
])
def test_budget_rejects_huge_count_up_front(text, struct, spent):
    s = parse_eso(text, struct.sig)
    b = Budget(10)
    with pytest.raises(BudgetExceededError) as e:
        eso_satisfies(struct, s, b)
    assert b.spent == 0
    assert e.value.spent == spent
    assert str(e.value).endswith(f"spent >= {spent})")


def test_work_ledger():
    # the exact work of the table search, by context: one unit per candidate
    # tried, and the matrix spends under the plan's context, as the team
    # evaluator's row checks spend under theirs (test_team_eval's ledger)
    from test_team_eval import Ledger
    even_r = corpus_item("even_R")
    ledger = Ledger()
    assert eso_satisfies(list(enumerate_structures(even_r.sig, 2))[5],
                         even_r.sentence(), ledger)
    assert ledger.tally == {"function table candidate": 70,
                            "first-order evaluation": 676}


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
