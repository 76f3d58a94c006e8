"""Generated formulas against the independent oracles in helpers.py, and
generated sentences against the translations' guarantees.

Each test draws formulas and structures with hypothesis, derandomized so a
run is repeatable, and compares the package's evaluator with its oracle,
or a translation's output with its input (fragment bounds, and
equivalence at sizes up to 2).  An example whose evaluation runs out of
budget is discarded and counted; it never counts as a pass, and each test
asserts how many were compared.
"""
import itertools

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import oracle_eso, oracle_fo, oracle_satisfies
from deplog.budget import Budget
from deplog.errors import BudgetExceededError
from deplog.eso_eval import eso_satisfies
from deplog.fragments import classify_d, classify_eso
from deplog.harness import equiv_check
from deplog.structures import Structure, Team
from deplog.syntax import (
    And, App, Bool, Const, DepAtom, Equal, EsoSentence, Exists, Forall, Or,
    RelAtom, Signature, Var, free_vars,
)
from deplog.team_eval import satisfies
from deplog.transforms import d_to_eso, snf_to_star

VARS = ("x", "y", "z")
SIG_FO = Signature({"P": 1, "E": 2}, {"g": 1, "h": 2}, frozenset({"c"}))
SIG_PE = Signature({"P": 1, "E": 2})
EXAMPLES = 300


def _atoms(term):
    return st.one_of(
        st.builds(RelAtom, st.just("P"), st.tuples(term), st.booleans()),
        st.builds(RelAtom, st.just("E"), st.tuples(term, term), st.booleans()),
        st.builds(Equal, term, term, st.booleans()),
    )


def _formulas(leaf, max_leaves):
    """And, Or and quantifiers over VARS, so quantifiers rebind."""
    var = st.sampled_from(VARS)

    def extend(sub):
        return st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub),
                         st.builds(Exists, var, sub), st.builds(Forall, var, sub))
    return st.recursive(leaf, extend, max_leaves=max_leaves)


@st.composite
def _structures(draw, sig, max_size):
    n = draw(st.integers(1, max_size))
    rels = {}
    for name, ar in sig.relations.items():
        points = list(itertools.product(range(n), repeat=ar))
        rels[name] = frozenset(draw(st.sets(st.sampled_from(points))))
    fns = {name: tuple(draw(st.lists(st.integers(0, n - 1), min_size=n ** ar,
                                     max_size=n ** ar)))
           for name, ar in sig.functions.items()}
    consts = {name: draw(st.integers(0, n - 1)) for name in sig.constants}
    return Structure(sig, n, rels, fns, consts)


def _run(test, examples=EXAMPLES):
    """Run a hypothesis test body that returns "checked" or "discarded";
    return the tally."""
    tally = {"checked": 0, "discarded": 0}

    @settings(max_examples=examples, derandomize=True, deadline=None,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def body(data):
        outcome = test(data)
        tally[outcome] += 1
        assume(outcome == "checked")

    body()
    return tally


_FO_TERMS = st.recursive(
    st.sampled_from([Var(v) for v in VARS] + [Const("c")]),
    lambda sub: st.one_of(st.builds(App, st.just("g"), st.tuples(sub)),
                          st.builds(App, st.just("h"), st.tuples(sub, sub))),
    max_leaves=3)
_FO_FORMULAS = _formulas(st.one_of(_atoms(_FO_TERMS), st.builds(Bool, st.booleans())),
                         max_leaves=6)


def test_generated_fo_agrees_with_oracle():
    def check(data):
        m = data.draw(_structures(SIG_FO, 3))
        f = data.draw(_FO_FORMULAS)
        env = {v: data.draw(st.integers(0, m.size - 1)) for v in VARS}
        try:
            one_row = Team(VARS, [tuple(env[v] for v in VARS)])
            got = satisfies(m, one_row, f, budget=Budget(10_000))
        except BudgetExceededError:
            return "discarded"
        assert got == oracle_fo(m, env, f)
        return "checked"

    tally = _run(check)
    assert tally["checked"] >= 250, tally


_TEAM_TERMS = st.sampled_from([Var(v) for v in VARS])
_DEP_ATOMS = st.builds(DepAtom, st.lists(_TEAM_TERMS, max_size=3).map(tuple),
                       st.booleans())
# dependence atoms drawn as often as the three classical atoms together
_TEAM_FORMULAS = _formulas(st.one_of(_atoms(_TEAM_TERMS), _DEP_ATOMS, _DEP_ATOMS),
                           max_leaves=5)


def test_generated_team_semantics_agrees_with_oracle():
    def check(data):
        m = data.draw(_structures(SIG_PE, 2))
        f = data.draw(_TEAM_FORMULAS)
        vars = tuple(sorted(free_vars(f)))
        points = list(itertools.product(range(m.size), repeat=len(vars)))
        k = data.draw(st.integers(1, min(3, len(points))))
        rows = data.draw(st.sets(st.sampled_from(points), min_size=k, max_size=k))
        try:
            got = satisfies(m, Team(vars, frozenset(rows)), f, Budget(10_000))
        except BudgetExceededError:
            return "discarded"
        assert got == oracle_satisfies(m, vars, rows, f)
        return "checked"

    tally = _run(check)
    assert tally["checked"] >= 250, tally


# the most candidate tables oracle_eso may have to try for one example
ORACLE_TABLES = 3 ** 6


@st.composite
def _eso_sentences(draw, n):
    """Sentences with 0-2 functions of arity 0-3, as many as keep the
    tables at size ``n`` within ORACLE_TABLES, and 1-3 prefix variables,
    so that the table search resumes past the first instance."""
    fns, entries = [], 0
    for i in range(draw(st.integers(0, 2))):
        arities = [a for a in (0, 1, 2, 3) if n ** (entries + n ** a) <= ORACLE_TABLES]
        a = draw(st.sampled_from(arities))
        fns.append((f"f{i}", a))
        entries += n ** a
    pvars = VARS[:draw(st.integers(1, 3))]
    prefix = tuple((draw(st.sampled_from(["forall", "exists"])), v) for v in pvars)
    leaves = [Var(v) for v in pvars]
    term = st.recursive(
        st.sampled_from(leaves + [App(name, ()) for name, ar in fns if ar == 0]),
        lambda sub: st.one_of([st.builds(App, st.just(name), st.tuples(*[sub] * ar))
                               for name, ar in fns if ar > 0] or [sub]),
        max_leaves=3)
    # the binary atom twice as often as P or =, to tell its arguments apart
    binary = st.builds(RelAtom, st.just("E"), st.tuples(term, term), st.booleans())
    matrix = draw(st.recursive(
        st.one_of(_atoms(term), binary),
        lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub)),
        max_leaves=4))
    return EsoSentence(tuple(fns), prefix, matrix)


def test_generated_eso_agrees_with_oracle():
    def check(data):
        m = data.draw(_structures(SIG_PE, 3))
        s = data.draw(_eso_sentences(m.size))
        try:
            got = eso_satisfies(m, s, Budget(10_000))
        except BudgetExceededError:
            return "discarded"
        assert got == oracle_eso(m, s)
        return "checked"

    # fewer examples: the oracle builds every table as a dict
    tally = _run(check, 200)
    assert tally["checked"] >= 150, tally


def _equivalent_at_2(left, right, budget):
    """True when equiv_check finds the two sentences equivalent at sizes up
    to 2 over SIG_PE, None when it runs out of budget."""
    try:
        verdict = equiv_check(left, right, SIG_PE, 2, budget=budget)
    except BudgetExceededError:
        return None
    return verdict.outcome == "equivalent"


@st.composite
def _d_sentences(draw):
    """Prenex sentences over 1-4 distinct variables whose body has at most
    4 leaves: P, E, = and dependence atoms of width 0-3, either sign."""
    pvars = ("x", "y", "z", "u")[:draw(st.integers(1, 4))]
    term = st.sampled_from([Var(v) for v in pvars])
    dep = st.builds(DepAtom, st.lists(term, max_size=3).map(tuple), st.booleans())
    f = draw(st.recursive(
        st.one_of(_atoms(term), dep),
        lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub)),
        max_leaves=4))
    for v in reversed(pvars):
        f = draw(st.sampled_from([Exists, Forall]))(v, f)
    return f


def test_generated_d_to_eso_keeps_fragment_and_truth():
    # D(k-forall) to ESO_f(k-forall) and D(k-dep) to ESO_f(k-ary): an atom of
    # width w becomes a function of arity at most w - 1
    def check(data):
        f = data.draw(_d_sentences())
        s = d_to_eso(f)
        d, e = classify_d(f), classify_eso(s)
        assert e.forall_count <= d.forall_count, (f, s)
        assert e.max_arity <= max(d.max_dep_width - 1, 0), (f, s)
        assert e.star and e.exists_star, (f, s)
        same = _equivalent_at_2(f, s, 2 * 10**5)
        if same is None:
            return "discarded"
        assert same, (f, s)
        return "checked"

    tally = _run(check, 200)
    assert tally["checked"] >= 150, tally


@st.composite
def _snf_sentences(draw):
    """Sentences with a universal prefix of k = 1-3 variables and 1-2
    quantified functions of arity at most min(k, 2), applied nested."""
    pvars = ("x", "y", "z")[:draw(st.integers(1, 3))]
    fns = tuple((f"f{i}", draw(st.integers(0, min(len(pvars), 2))))
                for i in range(draw(st.integers(1, 2))))
    term = st.recursive(
        st.sampled_from([Var(v) for v in pvars]),
        lambda sub: st.one_of([st.builds(App, st.just(name), st.tuples(*[sub] * ar))
                               for name, ar in fns]),
        max_leaves=3)
    matrix = draw(st.recursive(
        _atoms(term),
        lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub)),
        max_leaves=3))
    return EsoSentence(fns, tuple(("forall", v) for v in pvars), matrix)


def test_generated_snf_to_star_keeps_2k_bound_and_truth():
    def check(data):
        s = data.draw(_snf_sentences())
        out = snf_to_star(s)
        k, got = classify_eso(s).forall_count, classify_eso(out)
        assert got.star and got.forall_count <= 2 * k, (s, out)
        same = _equivalent_at_2(s, out, 3 * 10**5)
        if same is None:
            return "discarded"
        assert same, (s, out)
        return "checked"

    tally = _run(check, 150)
    assert tally["checked"] >= 90, tally
