"""Acceptance criteria, one verdict line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL
lines as they are produced.  Each criterion prints exactly one line and
then asserts it; the suite is ordered, but every test recomputes what it
needs, so single tests can be selected with -k.
"""
import random
import time

from helpers import enumerate_teams, oracle_satisfies, restrict
from deplog.cli import _PASS_ORDER, main as cli_main
from deplog.fragments import classify_d, classify_eso
from deplog.harness import corpus, corpus_item, equiv_check, sentence_value
from deplog.structures import enumerate_structures
from deplog.syntax import (
    And, Bool, DepAtom, Equal, Exists, Forall, Or, RelAtom, Signature, Var,
    contains_dep_atom, free_vars, render_formula,
)
from deplog.team_eval import satisfies
from deplog.transforms import (
    collapse_existential_to_fo, d_to_eso, eliminate_width1, eso_to_d,
    snf_to_star,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# Shared grid: all structures of size <= 2 over {P/1, E/2}, all teams of
# size <= 3 over three variables, and a fixed generated formula pool.
# ---------------------------------------------------------------------------

GRID_SIG = Signature({"P": 1, "E": 2})
GRID_VARS = ("x", "y", "z")

_ATOMS = [
    RelAtom("P", (Var("x"),)),
    RelAtom("P", (Var("y"),), negated=True),
    RelAtom("E", (Var("x"), Var("y"))),
    RelAtom("E", (Var("y"), Var("z")), negated=True),
    RelAtom("E", (Var("z"), Var("z"))),
    Equal(Var("x"), Var("y")),
    Equal(Var("y"), Var("z"), negated=True),
    DepAtom((Var("x"), Var("y"))),
    DepAtom((Var("y"),)),
    DepAtom((Var("x"), Var("y"), Var("z"))),
    DepAtom(()),
    DepAtom((Var("x"), Var("z")), negated=True),
    Bool(True),
]


def _full_cover_cost(f, rows: int, size: int = 2) -> int:
    """Worst-case work for the exhaustive-cover oracle; the generator
    rejects formulas whose oracle runs would dominate the suite."""
    if isinstance(f, Or):
        return (3 ** rows) * (_full_cover_cost(f.left, rows, size)
                              + _full_cover_cost(f.right, rows, size))
    if isinstance(f, And):
        return (_full_cover_cost(f.left, rows, size)
                + _full_cover_cost(f.right, rows, size))
    if isinstance(f, Exists):
        return (size ** rows) * _full_cover_cost(f.body, rows, size)
    if isinstance(f, Forall):
        return _full_cover_cost(f.body, rows * size, size)
    return max(rows, 1)


def grid_formulas(count: int = 28, depth: int = 3,
                  cost_cap: int = 40_000, seed: int = 20260814):
    """Fixed pseudorandom pool of NNF formulas of depth <= depth over
    GRID_VARS: quantifiers may rebind, splits may nest, dependence atoms
    range over widths 0..3 including negated ones."""
    rng = random.Random(seed)

    def build(d):
        if d == 0 or rng.random() < 0.34:
            return rng.choice(_ATOMS)
        r = rng.random()
        if r < 0.28:
            return And(build(d - 1), build(d - 1))
        if r < 0.56:
            return Or(build(d - 1), build(d - 1))
        if r < 0.78:
            return Exists(rng.choice(GRID_VARS), build(d - 1))
        return Forall(rng.choice(GRID_VARS), build(d - 1))

    out, seen = [], set()
    while len(out) < count:
        f = build(depth)
        key = render_formula(f)
        if key in seen or _full_cover_cost(f, 3) > cost_cap:
            continue
        seen.add(key)
        out.append(f)
    return out


_GRID_CACHE: dict | None = None


def _grid() -> dict:
    """Package verdict for every (structure, formula, team) instance.

    Returns {"pool": [...], "structs": [...], "teams": {id(m): [...]},
    "values": {(id(m), fi): {rows: bool}}}; computed once per session.
    """
    global _GRID_CACHE
    if _GRID_CACHE is not None:
        return _GRID_CACHE
    pool = grid_formulas()
    structs = [m for n in (1, 2) for m in enumerate_structures(GRID_SIG, n)]
    teams: dict[int, list] = {}
    values: dict[tuple, dict] = {}
    for m in structs:
        teams[id(m)] = list(enumerate_teams(GRID_VARS, m.size, max_rows=3))
        for fi, f in enumerate(pool):
            values[(id(m), fi)] = {
                team.rows: satisfies(m, team, f) for team in teams[id(m)]}
    _GRID_CACHE = {"pool": pool, "structs": structs, "teams": teams,
                   "values": values}
    return _GRID_CACHE


def test_criterion_1_semantics_conformance():
    t0 = time.perf_counter()
    try:
        grid = _grid()
    except Exception as e:
        _verdict(1, False, f"grid evaluation failed: {e}")
        raise
    pool, structs = grid["pool"], grid["structs"]
    violations = {"empty": 0, "downward": 0, "locality": 0, "flatness": 0}
    instances = 0
    for m in structs:
        teams = grid["teams"][id(m)]
        for fi, f in enumerate(pool):
            vals = grid["values"][(id(m), fi)]
            instances += len(teams)
            if not vals[frozenset()]:
                violations["empty"] += 1
            for rows, value in vals.items():
                if value and rows:
                    if not all(vals[rows - {r}] for r in rows):
                        violations["downward"] += 1
            fvs = tuple(sorted(free_vars(f)))
            local: dict[frozenset, bool] = {}
            for team in teams:
                small = restrict(team, fvs)
                if small.rows not in local:
                    local[small.rows] = satisfies(m, small, f)
                if local[small.rows] != vals[team.rows]:
                    violations["locality"] += 1
            if not contains_dep_atom(f):
                for rows, value in vals.items():
                    flat = all(vals[frozenset({r})] for r in rows)
                    if value != flat:
                        violations["flatness"] += 1
    elapsed = time.perf_counter() - t0
    bad = sum(violations.values())
    ok = bad == 0 and elapsed <= 300
    _verdict(1, ok,
             f"{len(pool)} formulas x {len(structs)} structures, "
             f"{instances} team instances; violations {violations}; "
             f"{elapsed:.1f}s (limit 300s)")


def test_criterion_2_coloring_completeness():
    grid = _grid()
    pool, structs = grid["pool"], grid["structs"]
    disagreements = 0
    checked = 0
    for m in structs:
        for fi, f in enumerate(pool):
            vals = grid["values"][(id(m), fi)]
            for team in grid["teams"][id(m)]:
                want = oracle_satisfies(m, team.vars, team.rows, f)
                checked += 1
                if want != vals[team.rows]:
                    disagreements += 1
    ok = disagreements == 0
    _verdict(2, ok,
             f"split search vs full-cover search on {checked} instances; "
             f"{disagreements} disagreements")


# ---------------------------------------------------------------------------
# Translations
# ---------------------------------------------------------------------------

# Domain sizes per sentence: 3 wherever the translated side stays inside
# the default work budget, 2 where function-table enumeration or the raw
# structure count makes size 3 unreachable.  henkin needs the budget flag
# even at size 2 (65536 structures, ~3.4e7 work units); the flag is the
# harness's documented override and does not change any verdict.
_C3_PLAN = (
    ("phi1_closed", 3, None),
    ("phi2_closed", 3, None),
    ("henkin", 2, 2 * 10**8),
    ("henkin_eq", 3, None),
    ("spine", 3, None),
    ("width3", 2, None),
    ("term_atom", 2, None),
    ("const_choice", 3, None),
    ("const_eq", 3, None),
    ("global_pick", 3, None),
    ("zero_slice", 2, None),
    ("exist_pair", 3, None),
    ("exist_neg", 3, None),
    ("exist_const", 3, None),
    ("exist_or", 3, None),
)


def test_criterion_3_translation_soundness():
    t0 = time.perf_counter()
    failures = []
    for name, max_n, budget in _C3_PLAN:
        item = corpus_item(name)
        f = item.formula()
        try:
            v = equiv_check(f, d_to_eso(f), item.sig, max_n, budget=budget)
            if v.outcome != "equivalent":
                failures.append(f"{name}: {v.outcome}")
        except Exception as e:
            failures.append(f"{name}: {type(e).__name__}: {e}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed <= 600
    _verdict(3, ok,
             f"{len(_C3_PLAN)} D sentences vs their function translations; "
             f"failures {failures or 'none'}; {elapsed:.1f}s (limit 600s)")


def test_criterion_4_converse_soundness():
    failures = []
    names = ("even_R", "eso_id", "eso_const", "eso_choice", "eso_square",
             "eso_coherent", "mixed_choice")
    for name in names:
        item = corpus_item(name)
        s = item.sentence()
        # even_R's image carries six universals; its team evaluation needs
        # more than the default work budget at size 2
        budget = 10**9 if name == "even_R" else None
        try:
            v = equiv_check(s, eso_to_d(s), item.sig, 2, budget=budget)
            if v.outcome != "equivalent":
                failures.append(f"{name}: {v.outcome}")
        except Exception as e:
            failures.append(f"{name}: {type(e).__name__}: {e}")
    ok = not failures
    _verdict(4, ok, f"{len(names)} function sentences vs their "
                    f"dependence translations at size 2; "
                    f"failures {failures or 'none'}")


def test_criterion_5_fragment_preservation():
    problems = []
    for item in corpus():
        if item.kind == "D":
            f = item.formula()
            if free_vars(f):
                continue
            r = classify_d(f)
            e = classify_eso(d_to_eso(f))
            k_dep = max((r.max_dep_width or 0) - 1, 0)
            if e.max_arity > k_dep:
                problems.append(f"{item.name}: arity {e.max_arity} > {k_dep}")
            if r.single_quantification:
                if e.forall_count > r.forall_count:
                    problems.append(f"{item.name}: {e.forall_count} universals"
                                    f" > {r.forall_count}")
                if not (e.star and e.exists_star):
                    problems.append(f"{item.name}: pattern flags not set")
        else:
            s = item.sentence()
            r = classify_eso(s)
            if not r.snf:
                continue
            out = classify_eso(snf_to_star(s))
            if not out.star:
                problems.append(f"{item.name}: output misses the pattern "
                                f"discipline")
            if out.forall_count > 2 * r.forall_count:
                problems.append(f"{item.name}: {out.forall_count} universals "
                                f"> {2 * r.forall_count}")
    ok = not problems
    _verdict(5, ok, f"syntactic guarantees on all corpus translations; "
                    f"problems {problems or 'none'}")


def test_criterion_6_witness_behavior():
    t0 = time.perf_counter()
    item = corpus_item("even_R")
    s = item.sentence()
    image = eso_to_d(s)
    mism = []
    checked = 0
    for n in (1, 2):
        for m in enumerate_structures(item.sig, n):
            want = len(m.relations["R"]) % 2 == 0
            if sentence_value(m, s) != want:
                mism.append(f"direct at |R|={len(m.relations['R'])}")
            if sentence_value(m, image) != want:
                mism.append(f"image at |R|={len(m.relations['R'])}")
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = not mism and checked == 18 and elapsed <= 120
    _verdict(6, ok,
             f"edge-pairing sentence and its translation match |R| parity on "
             f"{checked} structures; mismatches {mism or 'none'}; "
             f"{elapsed:.1f}s (limit 120s)")


def test_criterion_7_collapse_correctness():
    failures = []
    for name in ("exist_pair", "exist_neg", "exist_const", "exist_or"):
        item = corpus_item(name)
        f = item.formula()
        v = equiv_check(f, collapse_existential_to_fo(f), item.sig, 3)
        if v.outcome != "equivalent":
            failures.append(f"collapse {name}")
    for name in ("const_choice", "const_eq", "global_pick"):
        item = corpus_item(name)
        f = item.formula()
        out = eliminate_width1(f)
        if contains_dep_atom(out):
            failures.append(f"width1 {name}: atoms remain")
        v = equiv_check(f, out, item.sig, 3)
        if v.outcome != "equivalent":
            failures.append(f"width1 {name}")
    ok = not failures
    _verdict(7, ok, f"4 universal-free collapses and 3 width-1 eliminations "
                    f"equivalent up to size 3; failures {failures or 'none'}")


def test_criterion_8_determinism(tmp_path, capsys):
    first: dict[tuple, tuple] = {}
    stable = True
    for run in range(2):
        for item in corpus():
            path = tmp_path / f"{item.name}.dl"
            path.write_text(item.text, encoding="utf-8")
            for pass_name in _PASS_ORDER:
                code = cli_main(["translate", "--pass", pass_name,
                                 "--input", str(path)])
                captured = capsys.readouterr()
                record = (code, captured.out, captured.err)
                key = (item.name, pass_name)
                if run == 0:
                    first[key] = record
                elif first[key] != record:
                    stable = False
    with capsys.disabled():
        _verdict(8, stable,
                 f"{len(first)} pass/item combinations byte-identical "
                 f"across repeated runs")
