"""The four benchmark workloads.

Each workload makes its inputs from the seed, hands them to deplog's
public API, and checks every output against an answer deplog does not
compute at run time (see oracles.py and data/phi2_teams.json).

A workload is set up once per process (``setup``) and makes a round of
jobs from the seeded generator (``round``), which the runner repeats;
``round_seconds`` is the time one round took on the machine the benchmark
was defined on (2 cores, Python 3.11).  A round's composition (sentences,
row counts, input sizes) is fixed and the seed draws the concrete inputs
and their order, so the work barely depends on the seed.

Layer modules are looked up through the ``mods`` namespace at call time,
so the traced run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))


class WrongAnswer(Exception):
    """An output disagrees with the expected answer; the run is invalid."""


class JobFailed(Exception):
    """deplog refused or aborted the job (error exit, budget exhausted)."""


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    # returns the number of job units the output completed, or raises
    # WrongAnswer
    check: Callable[[object], int]


def plain_span(name: str, fn, *args, **kwargs):
    return fn(*args, **kwargs)


@dataclass
class Context:
    mods: object
    rng: random.Random
    make_budget: Callable
    workdir: str
    span: Callable = plain_span
    # sizes the workloads measure themselves (transforms.out_nodes)
    counts: Counter = field(default_factory=Counter)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


def checked_once(check: Callable[[object], int]) -> Callable[[object], int]:
    """Run an expensive check on a job's first output only; later outputs
    of the same job must equal the first."""
    first: list = []

    def wrapped(out) -> int:
        if not first:
            first.append((out, check(out)))
        ref, units = first[0]
        _expect(oracles.same_tree(out, ref), "output differs between repetitions")
        return units

    return wrapped


# ---------------------------------------------------------------------------
# equiv_sweep: `deplog equiv` on every translation pair
# ---------------------------------------------------------------------------

# (name, kind, text, relations, functions, constants, max size).  The
# dependence sentences and sizes are criterion 3's, except two that would
# crowd out the rest of the round: henkin, which at size 2 alone enumerates
# 65,536 structures (about 32 s), is checked at size 1, and exist_or, which
# at size 3 takes 0.75 s (a third of the round), at size 2.  The function
# sentences are the small ones of criterion 4, checked at size 3.
EQUIV_PAIRS = (
    ("phi1_closed", "D",
     "forall x. forall u. exists y. exists v. (=(x,y) | =(u,v))", {}, {}, (), 3),
    ("phi2_closed", "D",
     "forall x. forall u. exists y. exists v. (=(x,y) | =(u,v) | =(u,v))",
     {}, {}, (), 3),
    ("henkin", "D",
     "forall x0. exists x1. forall x2. exists x3. (=(x2,x3) & P(x0,x1,x2,x3))",
     {"P": 4}, {}, (), 1),
    ("henkin_eq", "D",
     "forall x0. exists x1. forall x2. exists x3. "
     "(=(x2,x3) & (~x0 = x2 | ~x1 = x3))", {}, {}, (), 3),
    ("spine", "D", "forall x. exists y. (=(x,y) & E(x,y))", {"E": 2}, {}, (), 3),
    ("width3", "D", "forall x. forall y. exists z. (=(x,y,z) & E(y,z))",
     {"E": 2}, {}, (), 2),
    ("term_atom", "D", "forall x. exists y. (=(g(x), y) & E(x, g(y)))",
     {"E": 2}, {"g": 1}, (), 2),
    ("const_choice", "D", "forall x. exists y. (=(y) & E(x,y))",
     {"E": 2}, {}, (), 3),
    ("const_eq", "D", "forall x. exists y. (=(y) & x = y)", {}, {}, (), 3),
    ("global_pick", "D", "forall x. exists y. (=(y) & (P(x) | P(y)))",
     {"P": 1}, {}, (), 3),
    ("zero_slice", "D", "forall a1. forall a2. F(a1,a2,zero) = zero",
     {}, {"F": 3}, ("zero",), 2),
    ("exist_pair", "D", "exists x. exists y. (=(x,y) & E(x,y))",
     {"E": 2}, {}, (), 3),
    ("exist_neg", "D", "exists x. (~=(x) & P(x))", {"P": 1}, {}, (), 3),
    ("exist_const", "D", "exists x. (=(x) & P(x))", {"P": 1}, {}, (), 3),
    ("exist_or", "D", "exists x. (P(x) | (exists y. (=(x,y) & E(x,y))))",
     {"P": 1, "E": 2}, {}, (), 2),
    ("eso_id", "ESO", "exists fn f/1. forall x. f(x) = x", {}, {}, (), 3),
    ("eso_const", "ESO", "exists fn c/0. P(c())", {"P": 1}, {}, (), 3),
    ("eso_choice", "ESO", "exists fn f/1. forall x. E(x, f(x))",
     {"E": 2}, {}, (), 3),
    ("eso_square", "ESO", "exists fn f/1. forall x. P(f(f(x)))",
     {"P": 1}, {}, (), 3),
    ("eso_coherent", "ESO", "exists fn f/1. forall x. forall y. f(x) = f(y)",
     {}, {}, (), 3),
    ("mixed_choice", "ESO",
     "exists fn f/1. forall x. exists y. (E(x,y) & E(y,f(x)))",
     {"E": 2}, {}, (), 3),
)


# Each pair is checked in this many seeded variants (bound variables
# renamed), so that a round has enough jobs for a tail percentile.
EQUIV_VARIANTS = 2


def rename_bound(text: str, rng: random.Random) -> str:
    """Rename every first-order bound variable of a sentence to a fresh
    seeded name."""
    bound = re.findall(r"\b(?:forall|exists)\s+(?!fn\b)(\w+)\s*\.", text)
    names = list(dict.fromkeys(bound))
    fresh = {n: f"w{k}" for n, k in zip(names, rng.sample(range(10, 1000), len(names)))}
    return re.sub(r"\b\w+\b", lambda m: fresh.get(m.group(0), m.group(0)), text)


def _render(mods, out) -> str:
    if isinstance(out, mods.syntax.EsoSentence):
        return mods.syntax.render_eso(out)
    return mods.syntax.render_formula(out)


class EquivSweep:
    name = "equiv_sweep"
    unit = "structures checked; latency per equiv pair"
    round_seconds = 2.2

    def setup(self, ctx: Context):
        mods = ctx.mods
        pairs = []
        for i, (name, kind, text, rels, fns, consts, size) in enumerate(EQUIV_PAIRS):
            sig = mods.syntax.Signature(rels, fns, frozenset(consts))
            expected = sum(oracles.structure_count(rels, fns, len(consts), n)
                           for n in range(1, size + 1))
            for v in range(EQUIV_VARIANTS):
                variant = rename_bound(text, ctx.rng)
                if kind == "D":
                    left = mods.syntax.parse_formula(variant, sig)
                    right = ctx.span("pass.d2eso", mods.transforms.d_to_eso, left)
                else:
                    left = mods.syntax.parse_eso(variant, sig)
                    right = ctx.span("pass.eso2d", mods.transforms.eso_to_d, left)
                base = os.path.join(ctx.workdir, f"{i:02d}_{v}_{name}")
                paths = {}
                for part, content in (("left.dl", variant),
                                      ("right.dl", _render(mods, right)),
                                      ("sig.json", json.dumps(sig.to_json_dict()))):
                    paths[part] = f"{base}_{part}"
                    with open(paths[part], "w", encoding="utf-8") as fh:
                        fh.write(content)
                argv = ["equiv", "--left", paths["left.dl"],
                        "--right", paths["right.dl"], "--sig", paths["sig.json"],
                        "--max-size", str(size)]
                pairs.append((name, argv, size, expected))
        return pairs

    def round(self, ctx: Context, pairs) -> list[Job]:
        order = list(pairs)
        ctx.rng.shuffle(order)
        return [self._job(ctx.mods, *p) for p in order]

    @staticmethod
    def _job(mods, name, argv, size, expected) -> Job:
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = mods.cli.main(argv)
            if code not in (0, 1, 3):
                raise JobFailed(f"exit {code}: {err.getvalue().strip()}")
            return code, out.getvalue()

        def check(result) -> int:
            code, text = result
            verdict = json.loads(text)
            _expect(code == 0 and verdict["outcome"] == "equivalent",
                    f"{name}: translation not equivalent: {text.strip()}")
            _expect(verdict["max_size"] == size
                    and verdict["structures_checked"] == expected,
                    f"{name}: checked {verdict['structures_checked']} "
                    f"structures, expected {expected}")
            return expected

        return Job(name, run, check)


# ---------------------------------------------------------------------------
# parity_witness: both sides of an edge-free parity sentence
# ---------------------------------------------------------------------------

PARITY_TEXT = ("exists fn f/1. forall x. "
               "(~P(x) | P(f(x)) & ~f(x) = x & f(f(x)) = x)")
# Every structure of size 1-3, and the size-4 structures with |P| even.
# A false size-4 structure makes the team side exhaust its search, and
# where that search finds its contradiction depends on which elements are
# in P: the eight of them take from 10 ms to 4.8 s each, so one of them
# alone would outlast a quarter of a run and could not be repeated.  The
# false verdicts that exhaust the search are the size-3 ones.
PARITY_SIZES = (1, 2, 3, 4)
PARITY_ALL_UP_TO = 3


class ParityWitness:
    name = "parity_witness"
    unit = "structures, both sides each"
    round_seconds = 0.6

    def setup(self, ctx: Context):
        mods = ctx.mods
        sig = mods.syntax.Signature({"P": 1})
        sentence = mods.syntax.parse_eso(PARITY_TEXT, sig)
        image = ctx.span("pass.eso2d", mods.transforms.eso_to_d, sentence)
        structs = []
        for n in PARITY_SIZES:
            for mask in range(2 ** n):
                if n > PARITY_ALL_UP_TO and bin(mask).count("1") % 2:
                    continue
                ps = frozenset((a,) for a in range(n) if mask >> a & 1)
                structs.append(mods.structures.Structure(sig, n, {"P": ps}, {}, {}))
        return sentence, image, structs

    def round(self, ctx: Context, state) -> list[Job]:
        sentence, image, structs = state
        order = list(structs)
        ctx.rng.shuffle(order)
        return [self._job(ctx, sentence, image, m) for m in order]

    @staticmethod
    def _job(ctx: Context, sentence, image, m) -> Job:
        mods = ctx.mods
        want = len(m.relations["P"]) % 2 == 0

        def run():
            return (mods.eso_eval.eso_satisfies(m, sentence, ctx.make_budget()),
                    mods.team_eval.sentence_truth(m, image, ctx.make_budget()))

        def check(values) -> int:
            _expect(values == (want, want),
                    f"parity on size {m.size}, |P|={len(m.relations['P'])}: "
                    f"function side {values[0]}, team side {values[1]}, "
                    f"want {want}")
            return 1

        return Job(f"size{m.size}", run, check)


# ---------------------------------------------------------------------------
# split_teams: satisfies on the open split formulas
# ---------------------------------------------------------------------------

SPLIT_FORMULAS = {"phi1": "(=(x,y) | =(u,v))",
                  "phi2": "(=(x,y) | =(u,v) | =(u,v))"}
SPLIT_VARS = ("x", "y", "u", "v")
SPLIT_SIZE = 3
# (formula, kind, rows, count) per round: 10 planted, 14 uniform and 12
# crowded teams.  Planted teams are unions of functional parts, true by
# construction.  Uniform teams are drawn uniformly from the 81 possible
# rows; for phi1 they are drawn until the 2-SAT check finds one false.
# Crowded teams put every row on u = 0 and x in {0, 1} and are drawn until
# false for phi2.  Uniform and crowded phi2 teams come from the fixed
# verdict list in data/.  A true team's cost depends on where the search
# finds its first split and varies a hundredfold, while a false one tries
# every split and costs nearly the same for every draw, so the mix is
# layered by cost and the percentiles fall inside layers of false teams:
# 12 cheap true teams, 10 false 12-row phi1 teams (about 45 ms each; the
# median falls at their middle), 10 false 9-row crowded phi2 teams (about
# 90 ms, the nested split trying up to 3^9 ways; the tail, p72, falls at
# their middle), and 4 heavier false teams on top.  Every team stays well
# below a tenth of the round so that it runs many times.
SPLIT_ROUND = (
    ("phi1", "planted", 12, 4), ("phi2", "planted", 10, 3),
    ("phi2", "planted", 11, 3), ("phi2", "uniform", 10, 1),
    ("phi2", "uniform", 11, 1), ("phi1", "uniform", 12, 10),
    ("phi2", "crowded", 9, 10), ("phi2", "crowded", 10, 2),
    ("phi1", "uniform", 13, 2),
)
# functional parts of a planted team: (determinant, dependent) columns
PLANTED_PARTS = {"phi1": ((0, 1), (2, 3)), "phi2": ((0, 1), (2, 3), (2, 3))}
PHI2_DATA = os.path.join(HERE, "data", "phi2_teams.json")


def planted_rows(rng: random.Random, parts, k: int, size: int = SPLIT_SIZE):
    """k distinct rows, each satisfying one of the parts' functions."""
    fns = [[rng.randrange(size) for _ in range(size)] for _ in parts]
    rows: set[tuple[int, ...]] = set()
    while len(rows) < k:
        p = rng.randrange(len(parts))
        row = [rng.randrange(size) for _ in SPLIT_VARS]
        det, dep = parts[p]
        row[dep] = fns[p][row[det]]
        rows.add(tuple(row))
    return sorted(rows)


def uniform_rows(rng: random.Random, k: int, size: int = SPLIT_SIZE):
    every = [(x, y, u, v) for x in range(size) for y in range(size)
             for u in range(size) for v in range(size)]
    return sorted(rng.sample(every, k))


def crowded_rows(rng: random.Random, k: int):
    """k distinct rows with u = 0 and x in {0, 1}: phi2's right side must
    then cover all but one v value, so most such teams are false."""
    crowded = [(x, y, 0, v) for x in range(2) for y in range(SPLIT_SIZE)
               for v in range(SPLIT_SIZE)]
    return sorted(rng.sample(crowded, k))


def load_phi2_pool() -> dict[tuple[str, int], list]:
    """Verdict list by (kind, rows): [(rows, satisfies), ...]."""
    with open(PHI2_DATA, encoding="utf-8") as fh:
        data = json.load(fh)
    pool: dict[tuple[str, int], list] = {}
    for entry in data["teams"]:
        rows = [tuple(r) for r in entry["rows"]]
        pool.setdefault((entry["kind"], len(rows)), []).append(
            (rows, entry["satisfies"]))
    return pool


class SplitTeams:
    name = "split_teams"
    unit = "teams checked"
    round_seconds = 2.2

    def setup(self, ctx: Context):
        mods = ctx.mods
        sig = mods.syntax.Signature()
        formulas = {name: mods.syntax.parse_formula(text, sig)
                    for name, text in SPLIT_FORMULAS.items()}
        struct = mods.structures.Structure(sig, SPLIT_SIZE, {}, {}, {})
        return formulas, struct, load_phi2_pool()

    def round(self, ctx: Context, state) -> list[Job]:
        formulas, struct, pool = state
        jobs = []
        spec = [(name, kind, k) for name, kind, k, count in SPLIT_ROUND
                for _ in range(count)]
        ctx.rng.shuffle(spec)
        for name, kind, k in spec:
            if kind == "planted":
                rows, want = planted_rows(ctx.rng, PLANTED_PARTS[name], k), True
            elif name == "phi1":
                rows = uniform_rows(ctx.rng, k)
                while oracles.phi1_two_sat(rows):
                    rows = uniform_rows(ctx.rng, k)
                want = False
            else:
                rows, want = ctx.rng.choice(pool[kind, k])
            jobs.append(self._job(ctx, formulas[name], struct, rows, want,
                                  f"{name}-{kind}-{k}"))
        return jobs

    @staticmethod
    def _job(ctx: Context, formula, struct, rows, want, label) -> Job:
        mods = ctx.mods
        team = mods.structures.Team(SPLIT_VARS, frozenset(rows))

        def run():
            return mods.team_eval.satisfies(struct, team, formula,
                                            ctx.make_budget())

        def check(value) -> int:
            _expect(value == want, f"{label} {rows}: got {value}, want {want}")
            return 1

        return Job(label, run, check)


# ---------------------------------------------------------------------------
# rewrite_chain: parse, render, classify and every in-fragment pass
# ---------------------------------------------------------------------------

REL_ARITY = {"P": 1, "E": 2, "R": 3}
FN_ARITY = {"g": 1}

# (kind, flavour, quantifiers, atoms) per round.  D flavours: "mixed"
# (alternating prefix, atoms over distinct variables), "terms" (atoms over
# composite or repeated terms), "existential" (no universals), "width1"
# (atoms of width at most one).  ESO flavours: "mixed" and "universal".
# Two sentences of each: with one, the tail (the 11th slowest job) falls
# between the passes on the 200- and 120-atom sentences and those on the
# 60-atom ones and jumps between them from seed to seed; with two it falls
# among the former.  Sentences stop at 200 atoms: a pass on 300 atoms
# takes up to 0.3 s, too long to repeat often enough within a run.
REWRITE_ROUND = 2 * (
    ("D", "mixed", 12, 200), ("D", "terms", 10, 120), ("D", "existential", 8, 60),
    ("D", "width1", 6, 30), ("D", "mixed", 6, 20),
    ("ESO", "universal", 12, 200), ("ESO", "mixed", 10, 120),
    ("ESO", "universal", 8, 60), ("ESO", "mixed", 6, 30), ("ESO", "universal", 6, 20),
)
# call shapes per quantified function in generated function sentences
ESO_SHAPES = 10
# Long inputs, parse and render only: thousands of conjuncts, and deep
# parenthesis nesting.
LONG_CONJUNCTS = 3000
DEEP_PARENS = 1500

ESO_PASSES = ("star", "eso2d", "snf", "prop36")
# passes whose output is the other kind of sentence
CROSSING = {"skolemize", "d2eso", "eso2d"}


def _passes(kind: str, flavour: str) -> list[str]:
    """Passes applicable inside the input's fragment (documented
    preconditions; any refusal on these is a failure)."""
    if kind == "ESO":
        return [p for p in ESO_PASSES if p != "prop36" or flavour == "universal"]
    out = ["prenex", "simplify-atoms", "skolemize", "d2eso", "single-forall"]
    if flavour != "terms":
        out.append("extract")  # atom arguments are distinct variables
    if flavour == "existential":
        out.append("fo-collapse")
    if flavour == "width1":
        out.append("width1")
    return out


def run_pass(mods, name: str, f):
    """One translate pass, as `deplog translate --pass NAME` applies it."""
    tr, sx = mods.transforms, mods.syntax
    if name == "prenex":
        return tr.to_prenex(f)
    if name == "simplify-atoms":
        return tr.simplify_atom_terms(f)
    if name == "extract":
        prefix, body = sx.prenex_split(f)
        ys, bindings, theta = tr.extract_dep_atoms(
            body, reserved=tuple(sx.symbols_of(f)))
        out = sx.and_chain(list(bindings) + [theta]) if bindings else theta
        for kind, var in reversed(prefix + [("exists", y) for y in ys]):
            out = sx.Exists(var, out) if kind == "exists" else sx.Forall(var, out)
        return out
    if name == "skolemize":
        return tr.skolemize_normal_form(tr.to_normal_form(f))
    if name == "d2eso":
        return tr.d_to_eso(f)
    if name == "fo-collapse":
        return tr.collapse_existential_to_fo(f)
    if name == "width1":
        return tr.eliminate_width1(f)
    if name == "single-forall":
        return tr.single_forall_reuse(f, sx.fresh_var(sx.symbols_of(f), "x"))
    if name == "star":
        return tr.star_normalize(f)
    if name == "eso2d":
        return tr.eso_to_d(f)
    if name == "snf":
        return tr.skolemize_prefix_existentials(f)
    if name == "prop36":
        return tr.snf_to_star(f)
    raise ValueError(name)


def _atom_d(rng: random.Random, flavour: str, scope: list[str]) -> tuple[str, int]:
    """One atom over the variables in scope; returns (text, dep width or -1)."""
    r = rng.random()
    if r < 0.3:
        width = {"width1": rng.choice((0, 1, 1)),
                 "terms": 2}.get(flavour, rng.choice((2, 2, 3)))
        width = min(width, len(scope))
        if flavour == "terms":
            a, b = rng.choice(scope), rng.choice(scope)
            args = [f"g({a})", b] if rng.random() < 0.5 else [a, a]
        else:
            args = rng.sample(scope, width)
        neg = "~" if rng.random() < 0.05 else ""
        return f"{neg}=({','.join(args)})", width
    neg = "~" if rng.random() < 0.3 else ""
    if r < 0.45:
        a, b = rng.choice(scope), rng.choice(scope)
        if flavour == "terms":
            a = f"g({a})"
        return f"{neg}{a} = {b}", -1
    rel = rng.choice(sorted(REL_ARITY))
    args = [rng.choice(scope) for _ in range(REL_ARITY[rel])]
    return f"{neg}{rel}({','.join(args)})", -1


def _chain(rng: random.Random, parts: list[str]) -> str:
    out = parts[0]
    for p in parts[1:]:
        out += (" & " if rng.random() < 0.6 else " | ") + p
    return out


def gen_d(rng: random.Random, flavour: str, quants: int, atoms: int):
    """Dependence sentence: quantifier pairs nested inside flat &/| chains.
    Returns (text, facts) with the universal count and widest atom."""
    names = [f"x{i + 1}" for i in range(quants)]
    kinds = ["exists" if flavour == "existential" or i % 2 else "forall"
             for i in range(quants)]
    blocks = [list(range(i, min(i + 2, quants))) for i in range(0, quants, 2)]
    per_block = [atoms // len(blocks)] * len(blocks)
    per_block[0] += atoms - sum(per_block)
    width = 0
    inner = ""
    for b in reversed(range(len(blocks))):
        scope = names[:blocks[b][-1] + 1]
        parts = []
        for _ in range(per_block[b]):
            text, w = _atom_d(rng, flavour, scope)
            width = max(width, w)
            parts.append(text)
        if inner:
            parts.insert(rng.randrange(len(parts) + 1), f"({inner})")
        head = "".join(f"{kinds[i]} {names[i]}. " for i in blocks[b])
        inner = f"{head}({_chain(rng, parts)})"
    return inner, {"foralls": kinds.count("forall"), "width": width}


def gen_e(rng: random.Random, flavour: str, quants: int, atoms: int):
    """Function sentence with a flat &/| matrix.  Returns (text, facts)
    with the universal count and the largest function arity.

    Applications come from a pool with a fixed number of call shapes per
    function (and a fixed number of nested ones), since the rewriting cost
    grows with the number of shapes."""
    fns = {"f1": 1, "f2": 2, "f3": 1}
    names = [f"x{i + 1}" for i in range(quants)]
    kinds = ["forall" if flavour == "universal" or i % 2 == 0 else "exists"
             for i in range(quants)]

    def app(fn: str) -> str:
        return f"{fn}({','.join(rng.choice(names) for _ in range(fns[fn]))})"

    pool = [app(fn) for fn in fns for _ in range(ESO_SHAPES)]
    pool += [f"g({rng.choice(names)})", f"f1({app('f2')})", f"g({app('f3')})"]

    def term() -> str:
        return rng.choice(pool) if rng.random() < 0.5 else rng.choice(names)

    parts = []
    for _ in range(atoms):
        neg = "~" if rng.random() < 0.3 else ""
        if rng.random() < 0.2:
            parts.append(f"{neg}{term()} = {term()}")
            continue
        rel = rng.choice(sorted(REL_ARITY))
        parts.append(f"{neg}{rel}({','.join(term() for _ in range(REL_ARITY[rel]))})")
    head = "".join(f"exists fn {n}/{a}. " for n, a in fns.items())
    head += "".join(f"{k} {v}. " for k, v in zip(kinds, names))
    return (f"{head}({_chain(rng, parts)})",
            {"foralls": kinds.count("forall"), "arity": max(fns.values())})


def long_conjunction(rng: random.Random, n: int) -> str:
    parts = [_atom_d(rng, "mixed", ["x1", "x2"])[0] for _ in range(n)]
    return f"forall x1. exists x2. ({' & '.join(parts)})"


def deep_parens(rng: random.Random, depth: int) -> str:
    rel = rng.choice(sorted(REL_ARITY))
    atom = f"{rel}({','.join(['x1'] * REL_ARITY[rel])})"
    return f"forall x1. {'(' * depth}{atom}{')' * depth}"


def node_count(node) -> int:
    """Formula and term nodes of a sentence (iterative)."""
    count = 0
    todo = [node]
    while todo:
        n = todo.pop()
        count += 1
        kind = type(n).__name__
        if kind == "EsoSentence":
            todo.append(n.matrix)
        elif kind in ("And", "Or"):
            todo.extend((n.left, n.right))
        elif kind in ("Exists", "Forall"):
            todo.append(n.body)
        elif kind in ("RelAtom",):
            todo.extend(n.args)
        elif kind == "Equal":
            todo.extend((n.left, n.right))
        elif kind == "DepAtom":
            todo.extend(n.terms)
        elif kind == "App":
            todo.extend(n.args)
    return count


class RewriteChain:
    name = "rewrite_chain"
    unit = "parse, render, classify and pass applications"
    round_seconds = 1.8

    def setup(self, ctx: Context):
        mods = ctx.mods
        sig = mods.syntax.Signature(REL_ARITY, FN_ARITY)
        structures = [frozenset(r for i, r in enumerate(sorted(REL_ARITY))
                                if mask >> i & 1)
                      for mask in range(2 ** len(REL_ARITY))]
        return {"sig": sig, "size1": structures}

    def round(self, ctx: Context, state) -> list[Job]:
        jobs: list[Job] = []
        for kind, flavour, quants, atoms in REWRITE_ROUND:
            gen = gen_d if kind == "D" else gen_e
            text, facts = gen(ctx.rng, flavour, quants, atoms)
            jobs.extend(self._input_jobs(ctx, state, kind, flavour, text, facts))
        for text in (long_conjunction(ctx.rng, LONG_CONJUNCTS),
                     deep_parens(ctx.rng, DEEP_PARENS)):
            jobs.append(self._long_job(ctx, state, text))
        return jobs

    def _parse(self, ctx: Context, state, kind: str, text: str):
        sx = ctx.mods.syntax
        parse = sx.parse_formula if kind == "D" else sx.parse_eso
        return parse(text, state["sig"])

    def _roundtrip(self, ctx: Context, state, node, label: str) -> str:
        kind = "ESO" if isinstance(node, ctx.mods.syntax.EsoSentence) else "D"
        text = _render(ctx.mods, node)
        _expect(oracles.same_tree(self._parse(ctx, state, kind, text), node),
                f"{label}: parse(render(x)) != x for {text[:200]}")
        return kind

    def _input_jobs(self, ctx: Context, state, kind, flavour, text, facts):
        mods = ctx.mods
        holder: dict = {}
        label = f"{kind}-{flavour}"

        def parsed():
            if "ast" not in holder:
                raise JobFailed(f"{label}: input did not parse")
            return holder["ast"]

        def run_parse():
            holder["ast"] = self._parse(ctx, state, kind, text)
            return holder["ast"]

        def check_parse(ast) -> int:
            self._roundtrip(ctx, state, ast, f"{label} input")
            return 1

        def check_render(out) -> int:
            _expect(oracles.same_tree(self._parse(ctx, state, kind, out),
                                      parsed()),
                    f"{label}: rendering does not parse back")
            return 1

        def run_classify():
            classify = (mods.fragments.classify_d if kind == "D"
                        else mods.fragments.classify_eso)
            return classify(parsed())

        def check_classify(report) -> int:
            _expect(report.forall_count == facts["foralls"],
                    f"{label}: {report.forall_count} universals, "
                    f"generated {facts['foralls']}")
            if kind == "D":
                _expect(report.max_dep_width == facts["width"],
                        f"{label}: width {report.max_dep_width}, "
                        f"generated {facts['width']}")
            else:
                _expect(report.max_arity == facts["arity"],
                        f"{label}: arity {report.max_arity}, "
                        f"generated {facts['arity']}")
            return 1

        jobs = [Job("parse", run_parse, checked_once(check_parse)),
                Job("render", lambda: _render(mods, parsed()),
                    checked_once(check_render)),
                Job("classify", run_classify, check_classify)]
        for name in _passes(kind, flavour):
            jobs.append(self._pass_job(ctx, state, name, kind, parsed, label))
        return jobs

    def _pass_job(self, ctx: Context, state, name, kind, parsed, label) -> Job:
        mods = ctx.mods

        def run():
            return ctx.span(f"pass.{name}", run_pass, mods, name, parsed())

        def check(out) -> int:
            crossed = (kind == "D") == (name in CROSSING)
            want = "ESO" if crossed else "D"
            got = self._roundtrip(ctx, state, out, f"{label} {name}")
            _expect(got == want, f"{label} {name}: output is {got}, want {want}")
            src = parsed()
            for nonempty in state["size1"]:
                _expect(oracles.size1_truth(src, nonempty)
                        == oracles.size1_truth(out, nonempty),
                        f"{label} {name}: truth changes at size 1 with "
                        f"nonempty relations {sorted(nonempty)}")
            ctx.counts["transforms.out_nodes"] += node_count(out)
            return 1

        return Job(name, run, checked_once(check))

    def _long_job(self, ctx: Context, state, text: str) -> Job:
        def run():
            ast = self._parse(ctx, state, "D", text)
            return ast, _render(ctx.mods, ast)

        def check(out) -> int:
            ast, rendered = out
            _expect(oracles.same_tree(self._parse(ctx, state, "D", rendered), ast),
                    "long input: parse(render(x)) != x")
            return 1

        return Job("long", run, checked_once(check))


WORKLOADS = {w.name: w for w in (EquivSweep(), ParityWitness(), SplitTeams(),
                                 RewriteChain())}
