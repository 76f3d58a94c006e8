"""Team-semantics evaluation: pinned verdicts, laws, and the full-cover
comparison against the independent oracle in helpers.py."""
import pytest

from helpers import enumerate_teams, oracle_satisfies, restrict
from deplog import fo_eval, team_eval
from deplog.budget import Budget
from deplog.errors import BudgetExceededError, ShapeError
from deplog.harness import corpus_item
from deplog.structures import Structure, Team, enumerate_structures
from deplog.syntax import (
    And, DepAtom, Exists, Forall, RelAtom, Signature, Var, free_vars,
    parse_eso, parse_formula,
)
from deplog.team_eval import satisfies, sentence_truth
from deplog.transforms import eso_to_d

SIG0 = Signature({}, {}, frozenset())
SIG_PE = Signature({"P": 1, "E": 2}, {}, frozenset())


def bare(size):
    return Structure(SIG0, size, {}, {}, {})


def pe(size, P=(), E=()):
    return Structure(SIG_PE, size, {"P": frozenset(P), "E": frozenset(E)}, {}, {})


def d(text, sig=SIG0):
    return parse_formula(text, sig)


# ---------------------------------------------------------------------------
# pinned verdicts
# ---------------------------------------------------------------------------

def test_empty_team_satisfies_everything():
    m = pe(2)
    for text in ["P(x)", "~P(x)", "=(x,y)", "~=(x,y)", "false",
                 "exists z. (E(x,z) | =(y,z))"]:
        f = d(text, SIG_PE)
        team = Team(sorted(free_vars(f)), ())
        assert satisfies(m, team, f)


def test_empty_dep_atom_universally_true():
    m = bare(2)
    for team in enumerate_teams(("x",), 2):
        assert satisfies(m, team, d("=()"))


def test_dep_atom_violation():
    # equal x, unequal y
    m = bare(2)
    team = Team(("x", "y"), [(0, 0), (0, 1)])
    assert not satisfies(m, team, d("=(x,y)"))


def test_negated_dep_atom_only_empty_team():
    m = bare(2)
    assert satisfies(m, Team(("x",), ()), d("~=(x)"))
    assert not satisfies(m, Team(("x",), [(0,)]), d("~=(x)"))


def test_phi1_three_row_team():
    # frozen: the split {rows 1,3} / {row 2} works
    m = bare(2)
    phi1 = corpus_item("phi1").formula()
    team = Team(("x", "y", "u", "v"),
                   [(0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 1, 0)])
    expected = True
    assert oracle_satisfies(m, team.vars, team.rows, phi1) == expected
    assert satisfies(m, team, phi1) == expected


def test_phi1_failing_team():
    # frozen: x determines neither y-branch nor u-branch under any split
    m = bare(2)
    phi1 = corpus_item("phi1").formula()
    team = Team(("x", "y", "u", "v"),
                   [(0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 0, 1), (0, 1, 0, 0)])
    expected = False
    assert oracle_satisfies(m, team.vars, team.rows, phi1) == expected
    assert satisfies(m, team, phi1) == expected


def test_constant_choice_sentence_sizes():
    f = d("forall x. exists y. (=(y) & y = x)")
    assert sentence_truth(bare(1), f) is True
    assert sentence_truth(bare(2), f) is False


def test_henkin_variant_sentence():
    # frozen: all-zero choice functions witness x1 = x3
    f = d("forall x0. exists x1. forall x2. exists x3. (=(x2,x3) & x1 = x3)")
    assert sentence_truth(bare(2), f) is True


def test_spine_on_cycle_and_on_sink_free_graph():
    spine = corpus_item("spine").formula()
    cycle = pe(2, E=[(0, 1), (1, 0)])
    no_out = pe(2, E=[(0, 1)])  # node 1 has no outgoing edge
    assert sentence_truth(cycle, spine) is True
    assert sentence_truth(no_out, spine) is False


def test_disjunction_needs_split_not_both():
    # each row can pick a different disjunct
    m = pe(2, P=[(0,)], E=[(1, 1)])
    f = d("P(x) | E(x,x)", SIG_PE)
    team = Team(("x",), [(0,), (1,)])
    assert satisfies(m, team, f)
    assert not satisfies(m, team, d("P(x)", SIG_PE))
    assert not satisfies(m, team, d("E(x,x)", SIG_PE))


def test_requantification_overwrites():
    f = d("forall x. (P(x) | (exists x. P(x)))", SIG_PE)
    assert sentence_truth(pe(2, P=[(0,)]), f) is True
    assert sentence_truth(pe(2, P=[]), f) is False


# ---------------------------------------------------------------------------
# laws on a small grid
# ---------------------------------------------------------------------------

GRID_FORMULAS = [
    "=(x,y)", "~=(x)", "P(x) | E(x,y)", "=(x,y) | =(y,x)",
    "P(x) & =(x,y)", "exists z. (E(x,z) & =(z,y))",
    "forall z. (E(x,z) | =(z))", "=() | P(y)",
    "exists z. forall w. (E(z,w) | =(w,x))",
]


def grid_structures():
    return [pe(1), pe(1, P=[(0,)], E=[(0, 0)]),
            pe(2, P=[(0,)], E=[(0, 1), (1, 0)]),
            pe(2, P=[(0,), (1,)], E=[(1, 1)]),
            pe(2, E=[(0, 0), (0, 1)])]


def test_downward_closure_on_grid():
    import itertools
    for m in grid_structures():
        for text in GRID_FORMULAS:
            f = d(text, SIG_PE)
            fv = tuple(sorted(free_vars(f)))
            for team in enumerate_teams(fv, m.size, max_rows=3):
                if not satisfies(m, team, f):
                    continue
                rows = sorted(team.rows)
                for k in range(len(rows)):
                    for sub in itertools.combinations(rows, k):
                        assert satisfies(m, Team(fv, frozenset(sub)), f), \
                            (text, rows, sub)


def test_locality_on_grid():
    for m in grid_structures():
        for text in GRID_FORMULAS:
            f = d(text, SIG_PE)
            fv = tuple(sorted(free_vars(f)))
            big = tuple(sorted(set(fv) | {"x", "pad"}))
            for team in enumerate_teams(big, m.size, max_rows=3):
                assert (satisfies(m, team, f)
                        == satisfies(m, restrict(team, fv), f)), (text, team)


def test_flatness_for_dependence_free():
    flat_formulas = ["P(x) | E(x,y)", "exists z. (E(x,z) & ~P(z))",
                     "forall z. (E(x,z) | z = y)", "~x = y & P(y)"]
    for m in grid_structures():
        for text in flat_formulas:
            f = d(text, SIG_PE)
            fv = tuple(sorted(free_vars(f)))
            for team in enumerate_teams(fv, m.size, max_rows=3):
                whole = satisfies(m, team, f)
                rowwise = all(satisfies(m, Team(fv, frozenset({r})), f)
                              for r in team.rows)
                assert whole == rowwise, (text, team)


def test_full_cover_oracle_agreement():
    for m in grid_structures():
        for text in GRID_FORMULAS:
            f = d(text, SIG_PE)
            fv = tuple(sorted(free_vars(f)))
            for team in enumerate_teams(fv, m.size, max_rows=3):
                assert (satisfies(m, team, f)
                        == oracle_satisfies(m, fv, team.rows, f)), (text, team)


# existential bodies that are one check of each extended row, and bodies
# whose rows go on to further choice points or to a negated atom
LOCAL_EXISTS_FORMULAS = [
    "exists z. (~z = y & =(x,z) & =(y,z) & E(x,z))",
    "exists z. (=() & =(z) & E(x,z))",
    "exists z. exists w. (=(x,y,z) & =(z,w) & (E(z,w) | P(y)))",
    # x fixes w, but w is chosen after z, so =(w,z) must not fix z
    "exists z. exists w. (=(w,z) & =(x,w) & w = x & E(z,w))",
    # the value term x is a team column, not a chosen one
    "exists z. (=(z,x) & =(y,z) & E(z,x))",
    # x and the earlier z both fix w, and can disagree
    "exists z. exists w. (=(x,w) & =(z,w) & =(y,z) & E(w,z))",
    # z = 0 suits row (0,0) but not (0,1): the search must undo row (0,0)
    "exists z. (=(z) & (x = y | z = y))",
    # with E = {(1,1)}, row (1,1) reads z through x from row (1,0) and
    # through y from row (0,1); when those differ it has no value, and the
    # search must go back to the rows that fixed them
    "exists z. (=(x,z) & =(y,z) & (~E(x,y) | z = y))",
]
NESTED_EXISTS_FORMULAS = [
    "E(x,y) | (exists z. (~=(x,z) & P(z)))",
    "exists z. (E(x,z) & (=(y,z) | P(z)))",
    "exists z. (E(x,z) & (exists x. =(z,x)))",
    "E(x,y) & (exists x. (=(y,x) & P(x)))",
]


def test_existential_oracle_agreement():
    for m in grid_structures():
        for text in LOCAL_EXISTS_FORMULAS + NESTED_EXISTS_FORMULAS:
            f = d(text, SIG_PE)
            fv = tuple(sorted(free_vars(f)))
            for team in enumerate_teams(fv, m.size, max_rows=3):
                assert (satisfies(m, team, f)
                        == oracle_satisfies(m, fv, team.rows, f)), (text, team)


# disjunctions whose sides are one check of each placed row (a conjunction
# of positive atoms and dependence-free formulas), and sides whose rows go
# on to further choice points or to a negated atom
DISJUNCTION_FORMULAS = [
    "(=(x,y) & E(x,y)) | (=(y,x) & =() & ~P(x))",  # two local sides
    "=(x,y) | E(x,y) & P(y)",  # a dependence-free side
    "=(x,y) | =(y,x) | =(y)",  # phi2's shape: a nested | on the left
    "~=(x,y) | =(y,x)",  # a negated atom
    "(exists z. (E(x,z) & =(y,z))) | =(x,y)",  # an atom under a quantifier
    "exists z. (=(x,z) | E(z,y) & =(y,z))",  # | under exists
    # rows placed on the nested left side must leave it on backtracking
    "(=(x) | P(y)) | (=(y) & E(x,y))",
]


def test_disjunction_oracle_agreement():
    for m in grid_structures():
        for text in DISJUNCTION_FORMULAS:
            f = d(text, SIG_PE)
            fv = tuple(sorted(free_vars(f)))
            for team in enumerate_teams(fv, m.size, max_rows=3):
                assert (satisfies(m, team, f)
                        == oracle_satisfies(m, fv, team.rows, f)), (text, team)


# ---------------------------------------------------------------------------
# errors and budget
# ---------------------------------------------------------------------------

def test_unbound_free_variable():
    with pytest.raises(ShapeError):
        satisfies(bare(2), Team(("x",), [(0,)]), d("=(x,y)"))


def test_sentence_truth_rejects_open_formula():
    with pytest.raises(ShapeError):
        sentence_truth(bare(2), d("=(x,y)"))


def test_row_outside_domain():
    with pytest.raises(ShapeError):
        satisfies(bare(2), Team(("x",), [(7,)]), d("=(x)"))


def test_budget_exhaustion():
    f = d("forall x. forall y. forall z. (=(x,y) | =(y,z) | =(z,x))")
    with pytest.raises(BudgetExceededError) as e:
        sentence_truth(bare(3), f, Budget(50))
    assert e.value.limit == 50


def test_verdict_independent_of_budget():
    f = corpus_item("phi1_closed").formula()
    assert sentence_truth(bare(2), f) == sentence_truth(bare(2), f, Budget(10 ** 7))


def test_budget_bounds_existential_search():
    item = corpus_item("even_R")
    image = eso_to_d(item.sentence())
    m = next(iter(enumerate_structures(item.sig, 2)))
    # the six universals extend 1, 2, ..., 32 rows by 2 values each; the
    # next unit is the first candidate tuple at the existential block
    universal_cost = sum(2 * 2 ** k for k in range(6))
    with pytest.raises(BudgetExceededError, match="existential extension"):
        sentence_truth(m, image, Budget(universal_cost))


def test_budget_bounds_forced_choice():
    # the parity image chooses y1 = f(x) and y2 = f(z1) per row; once a
    # row's x or z1 is in its atom's table, that value is the only one
    # tried. That takes 447 existential extensions and 3,973 units in all;
    # trying every pair of values takes 3,792 extensions and 14,008 units
    sig = Signature({"P": 1}, {}, frozenset())
    s = parse_eso("exists fn f/1. forall x. "
                  "(~P(x) | P(f(x)) & ~f(x) = x & f(f(x)) = x)", sig)
    m = Structure(sig, 4, {"P": frozenset({(1,), (3,)})}, {}, {})
    assert sentence_truth(m, eso_to_d(s), Budget(4_000)) is True


def test_forcing_conflict_tries_no_value():
    # z = x ties z to x; on the last row x = 1 fixes z to 1 and y = 1 (from
    # the first row) fixes it to 0, so that row tries no value. The
    # refutation takes 4 value choices of 1 + 2 atom + 1 row evaluation
    # units each; trying a value on the conflicting row would cost 3 more
    f = d("exists z. (=(x,z) & =(y,z) & z = x)")
    team = Team(("x", "y"), [(0, 1), (1, 0), (1, 1)])
    assert satisfies(bare(2), team, f, Budget(16)) is False


def test_long_team_needs_no_recursion():
    # the search keeps its rows and its choices on explicit stacks, not in
    # Python frames
    import itertools
    team = Team(("x", "y", "u"),
                frozenset(itertools.product(range(10), repeat=3)))
    assert satisfies(bare(10), team, d("exists w. =(x,w)")) is True
    assert satisfies(bare(10), team, d("=(x,y,u,x) | =(u)")) is True


def test_deep_right_nested_chain_evaluates():
    # a right-nested chain of one connective: the classical compiler writes
    # it as one flat run of blocks and the team compiler gathers its
    # conjuncts on an explicit stack, so neither recurses once per link
    sig = Signature({"P": 1})
    m = Structure(sig, 2, {"P": frozenset({(0,), (1,)})}, {}, {})
    for atom, quant in ((RelAtom("P", (Var("x"),)), Forall),
                        (DepAtom((Var("x"),)), Exists)):
        chain = atom
        for _ in range(899):
            chain = And(atom, chain)
        assert sentence_truth(m, quant("x", chain)) is True


def test_deep_dependence_chain_evaluates():
    # a chain with dependence atoms is walked on explicit stacks only, so it
    # may nest deeper than Python's recursion limit
    chain = " & ".join(["=(x)"] + ["P(x)"] * 2999 + ["=(x,y)"])
    sig = Signature({"P": 1})
    m = Structure(sig, 1, {"P": frozenset({(0,)})}, {}, {})
    f = d(f"forall x. exists y. ({chain})", sig)
    assert sentence_truth(m, f) is True


# The team compiler builds a plan in one loop, so formulas nested deeper
# than Python's recursion limit are decided. The oracles recurse, so these
# verdicts are written by hand; on a domain of size 1 every team has at
# most one row, and a dependence atom always holds on it.
SIG_P = Signature({"P": 1})
P_FULL = Structure(SIG_P, 1, {"P": frozenset({(0,)})}, {}, {})
P_EMPTY = Structure(SIG_P, 1, {"P": frozenset()}, {}, {})
_ALTERNATION = "".join(f"forall x{k}. exists y{k}. " for k in range(200))
_NEST = "forall x0. " * 1500
# per input: a sentence true in every structure, and one true iff P is not
# empty (only the empty team satisfies ~=(x,y))
DEEP_INPUTS = {
    "alternation": (_ALTERNATION + "=(x0,y0)",
                    _ALTERNATION + "(=(x0,y0) & P(y199))"),
    "universal_nest": (_NEST + "exists y. =(x0,y)",
                       _NEST + "exists y. (=(x0,y) & P(y))"),
    "dependence_chain": ("forall x. exists y. (=(x,y)" + " | P(y)" * 1500 + ")",
                         "forall x. exists y. (~=(x,y)" + " | P(y)" * 1500 + ")"),
    "atom_disjunction": (
        "forall x. exists y. (" + " | ".join(["=(x,y)"] * 1500) + ")",
        "forall x. exists y. (" + " | ".join(["(=(x,y) & P(y))"] * 1500) + ")"),
}


@pytest.mark.parametrize("name", DEEP_INPUTS)
def test_deep_formula_is_decided(name):
    f, g = (d(text, SIG_P) for text in DEEP_INPUTS[name])
    assert sentence_truth(P_EMPTY, f) is True
    assert sentence_truth(P_FULL, g) is True
    assert sentence_truth(P_EMPTY, g) is False


def test_plan_compiles_depth_first_left_to_right():
    # a conjunction's atoms and dependence-free conjuncts are compiled
    # first, then its other conjuncts in order, each depth first and left
    # before right, so the symbols take their slots in that order
    sig = Signature(dict.fromkeys("PQRS", 1), {"f": 1}, frozenset({"c"}))
    f = d("forall x. (exists y. (=(x,y) & P(y) | Q(y)) & (=(x) | R(x))"
          " & =(f(x),c) & S(x))", sig)
    plan = team_eval._plan(f, (), sig)
    assert [name for _, name in plan.syms.slots] == list("fcSPQR")
    m = Structure(sig, 1, dict.fromkeys("PQRS", frozenset({(0,)})),
                  {"f": (0,)}, {"c": 0})
    assert sentence_truth(m, f) is True


def test_open_deep_chain_on_a_team_of_several_rows():
    # the rows with y = 0 all go to =(x,y), which holds on them; without P
    # every row must, and (0,0) and (0,1) break the atom
    import itertools
    f = d("=(x,y)" + " | P(y)" * 1500, SIG_P)
    team = Team(("x", "y"), frozenset(itertools.product(range(2), repeat=2)))
    some = Structure(SIG_P, 2, {"P": frozenset({(1,)})}, {}, {})
    none = Structure(SIG_P, 2, {"P": frozenset()}, {}, {})
    assert satisfies(some, team, f) is True
    assert satisfies(none, team, f) is False


def test_budget_bounds_split_search():
    # the full team of all 81 rows over size 3 fails phi1; the split search
    # prunes every partial split that already fails a side, where trying
    # every two-colouring would take 2^81 units
    import itertools
    phi1 = corpus_item("phi1").formula()
    team = Team(("x", "y", "u", "v"),
                frozenset(itertools.product(range(3), repeat=4)))
    assert satisfies(bare(3), team, phi1, Budget(10_000)) is False


# ---------------------------------------------------------------------------
# work ledger: exact spend per context
# ---------------------------------------------------------------------------

class Ledger(Budget):
    """A budget that also tallies its spend by context."""

    __slots__ = ("tally",)

    def __init__(self):
        super().__init__(10 ** 9)
        self.tally = {}

    def spend(self, amount=1, context="work"):
        self.tally[context] = self.tally.get(context, 0) + amount
        super().spend(amount, context)


SPLIT, ATOM, EXT, ROW, UNIV = ("disjunction split", "dependence atom",
                               "existential extension", "row evaluation",
                               "universal extension")


def _ledger_cases():
    import itertools
    phi1, phi2 = corpus_item("phi1").formula(), corpus_item("phi2").formula()
    xyuv = ("x", "y", "u", "v")
    full = Team(xyuv, frozenset(itertools.product(range(3), repeat=4)))
    crowded = Team(xyuv, frozenset((x, y, 0, v) for x in range(2)
                                   for y in range(3) for v in range(2)))
    sig_p = Signature({"P": 1}, {}, frozenset())
    parity = eso_to_d(parse_eso(
        "exists fn f/1. forall x. (~P(x) | P(f(x)) & ~f(x) = x & f(f(x)) = x)",
        sig_p))
    even_r = corpus_item("even_R")
    return {
        "phi1 full": (lambda b: satisfies(bare(3), full, phi1, b),
                      False, {SPLIT: 444, ATOM: 444}),
        "phi2 crowded": (lambda b: satisfies(bare(3), crowded, phi2, b),
                         True, {SPLIT: 36, ATOM: 24}),
        "phi2_closed": (lambda b: sentence_truth(
                            bare(2), corpus_item("phi2_closed").formula(), b),
                        True, {SPLIT: 8, ATOM: 4, EXT: 4, UNIV: 6}),
        "phi1_closed": (lambda b: sentence_truth(
                            bare(3), corpus_item("phi1_closed").formula(), b),
                        True, {SPLIT: 9, ATOM: 9, EXT: 9, UNIV: 12}),
        "henkin_eq": (lambda b: sentence_truth(
                          bare(3), corpus_item("henkin_eq").formula(), b),
                      True, {ATOM: 15, EXT: 20, ROW: 36, UNIV: 18}),
        # a refusal in the existential conjunct, from the row x = 1, undoes
        # only the existential's own choices; deciding the two conjuncts
        # apart spends split 16 and atom 34, and backtracking through the
        # splits beside the existential as well spends atom 4,086,
        # doubling with each row more
        "split beside refused exists": (lambda b: sentence_truth(
            pe(2, E=[(0, 0), (0, 1)]),
            d("forall x. forall w. forall v. forall u. ((=(x,x) | =(x,x)) "
              "& (exists z. (=(z) & E(x,z))))", SIG_PE), b),
            False, {SPLIT: 17, ATOM: 35, EXT: 18, ROW: 18, UNIV: 30}),
        "parity": (lambda b: sentence_truth(
                       Structure(sig_p, 4, {"P": frozenset({(1,), (3,)})},
                                 {}, {}), parity, b),
                   True, {EXT: 447, ATOM: 894, ROW: 2_612, UNIV: 20}),
        "even_R": (lambda b: sentence_truth(
                       list(enumerate_structures(even_r.sig, 2))[5],
                       eso_to_d(even_r.sentence()), b),
                   True, {EXT: 1_013, ATOM: 4_052, ROW: 14_233, UNIV: 126}),
    }


@pytest.mark.parametrize("name", list(_ledger_cases()))
def test_work_ledger(name):
    # the exact work of the split and existential searches, by context:
    # a change to either search that keeps verdicts but tries more (or
    # other) rows or values shows here
    run, verdict, tally = _ledger_cases()[name]
    ledger = Ledger()
    assert run(ledger) is verdict
    assert ledger.tally == tally


def test_rebinding_existential_checks_one_row_at_a_time():
    # a rebinding existential fills a column of its own, checked row by row
    # against the atoms' tables: 2 atom units per value tried, where
    # evaluating the whole partial team on each try took 414
    import itertools
    team = Team(("x", "y", "u"),
                frozenset(itertools.product(range(3), repeat=3)))
    ledger = Ledger()
    assert satisfies(bare(3), team, d("exists x. (=(u,x) & =(y,x))"), ledger)
    assert ledger.tally == {EXT: 27, ATOM: 54}


# ---------------------------------------------------------------------------
# plan reuse: satisfies and sentence_truth compile a formula once and run
# the plan on every later call, each run spending from its own budget
# ---------------------------------------------------------------------------

def _cached(formula):
    """The plans the one-shot entries hold for this formula object."""
    return [plan for f, plan in team_eval._PLANS.plans.values() if f is formula]


def _reuse_cases():
    """name -> (formula, call with a budget): a fresh formula object each."""
    import itertools
    phi2 = corpus_item("phi2").formula()
    crowded = Team(("x", "y", "u", "v"), frozenset(
        (x, y, 0, v) for x in range(2) for y in range(3) for v in range(2)))
    phi1 = corpus_item("phi1").formula()
    full = Team(("x", "y", "u", "v"),
                frozenset(itertools.product(range(3), repeat=4)))
    sig_p = Signature({"P": 1})
    parity = eso_to_d(parse_eso(
        "exists fn f/1. forall x. (~P(x) | P(f(x)) & ~f(x) = x & f(f(x)) = x)",
        sig_p))
    m = Structure(sig_p, 4, {"P": frozenset({(1,), (3,)})}, {}, {})
    return {
        "phi2 crowded": (phi2, lambda b: satisfies(bare(3), crowded, phi2, b)),
        "phi1 full": (phi1, lambda b: satisfies(bare(3), full, phi1, b)),
        "parity": (parity, lambda b: sentence_truth(m, parity, b)),
    }


@pytest.mark.parametrize("name", list(_reuse_cases()))
def test_reused_plan_spends_from_each_calls_budget(name):
    formula, call = _reuse_cases()[name]
    ledgers = [Ledger() for _ in range(3)]
    verdicts = [call(ledger) for ledger in ledgers]
    # the first call compiled the plan that the others ran
    plans = _cached(formula)
    assert len(plans) == 1
    call(Ledger())
    assert _cached(formula) == plans
    assert verdicts == [verdicts[0]] * 3
    assert ledgers[0].tally and all(l.tally == ledgers[0].tally for l in ledgers)


@pytest.mark.parametrize("name", list(_reuse_cases()))
def test_run_after_an_aborted_run_is_cold(name):
    # the aborted run leaves table entries behind; the next run starts
    # from none
    formula, call = _reuse_cases()[name]
    cold = Ledger()
    verdict = call(cold)
    small = Ledger()
    small.limit = sum(cold.tally.values()) // 2
    with pytest.raises(BudgetExceededError):
        call(small)
    warm = Ledger()
    assert call(warm) is verdict
    assert warm.tally == cold.tally


def test_cached_plan_keeps_no_structure_or_budget():
    import gc
    import weakref

    class Held(Budget):  # no __slots__, so it can be weakly referenced
        pass

    f = d("forall x. exists y. (=(x,y) & E(x,y))", SIG_PE)
    budget = Held(10 ** 6)
    assert sentence_truth(pe(2, E=[(0, 1), (1, 0)]), f, budget) is True
    gone = weakref.ref(budget)
    del budget
    gc.collect()
    assert gone() is None
    plan, = _cached(f)
    assert plan.syms.values[1:] == [None] * (len(plan.syms.values) - 1)


def test_mutated_signature_is_checked_again():
    sig = Signature({"P": 1, "E": 2})
    m = Structure(sig, 2, {"P": frozenset({(0,)}), "E": frozenset({(1, 1)})},
                  {}, {})
    f = d("forall x. exists y. (=(x,y) & (P(x) | E(x,y)))", sig)
    assert sentence_truth(m, f) is True
    sig.relations["E"] = 3
    with pytest.raises(ShapeError, match="relation 'E' has arity 3"):
        sentence_truth(m, f)
    # contents that cannot key the cache are decided without it
    sig.relations["E"] = 2
    sig.constants = set()
    assert sentence_truth(m, f) is True


def test_budget_variable_is_read_on_every_call(monkeypatch):
    monkeypatch.delenv("DEPLOG_BUDGET", raising=False)
    f = corpus_item("phi1_closed").formula()
    assert sentence_truth(bare(3), f) is True
    monkeypatch.setenv("DEPLOG_BUDGET", "5")
    with pytest.raises(BudgetExceededError) as e:
        sentence_truth(bare(3), f)
    assert e.value.limit == 5


def test_plan_cache_stays_at_its_bound():
    cache = team_eval._PLANS
    formulas = [d(f"exists x{i}. x{i} = x{i}") for i in range(3 * fo_eval._PLAN_CACHE_SIZE)]
    for f in formulas:
        assert sentence_truth(bare(1), f) is True
    assert len(cache.plans) == fo_eval._PLAN_CACHE_SIZE
    assert _cached(formulas[-1]) and not _cached(formulas[0])


def test_two_threads_decide_one_sentence():
    import sys
    import threading
    spine = d("forall x. exists y. (=(x,y) & E(x,y))", SIG_PE)
    cases = [(pe(3, E=[(0, 1), (1, 2), (2, 0)]), True), (pe(3, E=[(0, 1)]), False)]
    got = [[], []]

    def decide(i):
        m, _ = cases[i]
        for _ in range(300):
            got[i].append(sentence_truth(m, spine))

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
    assert got == [[want] * 300 for _, want in cases]
