"""Equivalence-preserving rewriting passes for both logics.

Dependence-logic passes (Formula sentences):

* to_prenex: hoist every quantifier into one leading prefix (with
  syntax's prenex_split and its inverse _wrap_prefix).
* simplify_atom_terms: make every dependence-atom argument a plain
  variable, pairwise distinct within each atom.
* extract_dep_atoms: split a quantifier-free body into fresh existential
  variables, one binding atom per dependence-atom occurrence, and a
  dependence-free matrix.
* to_normal_form: the three passes above packaged into a NormalFormD.
* skolemize_normal_form / d_to_eso: replace each constrained existential
  by a quantified function applied to the variables its atom lists.
* collapse_existential_to_fo: without universals, teams never grow past
  one row, so dependence atoms are decided by polarity alone.
* eliminate_width1: a dependence atom naming one variable pins it to a
  single value team-wide, which an existential placed in front of the
  prefix provides directly.
* single_forall_reuse: rebind every universal to one designated variable,
  recovering the original variable through a guarded existential.

Function-sentence passes (EsoSentence):

* skolemize_prefix_existentials: drop first-order existentials in favour
  of quantified functions over the preceding universals.
* star_normalize: rewrite until every quantified function is applied to a
  single tuple of pairwise-distinct variables, spending fresh universals
  on guard clauses and splitting off copies of functions that keep more
  than one call shape.
* snf_to_star: same goal for purely universal prefixes, but through
  canonical compositions; adds one shared block of fresh universals no
  wider than the widest rewritten function.
* deskolemize_functions / eso_to_d: replace each function by an
  existential constrained by a dependence atom over the call shape.

Each substitution is one pass over the formula, and each stage
substitutes once.  The Skolem and de-Skolem passes and eliminate_width1
build one mapping each; star_normalize builds one per stage (its first
stage one per function, since a function's guards can hold the next
function's shapes), and snf_to_star one for its composed shapes.  A
mapping's keys are the shapes as the stage finds them: fresh names never
occur in the input, so no two keys can become equal, and the outermost
match wins, so one top-down substitution equals replacing the shapes one
at a time.  The exception is snf_to_star's canonical forms, which rewrite
one target at a time: a target's arguments move into helper equalities,
where they can hold the next target.

Fresh names come from numbered families (z1, z2, ... for guard variables,
y1, ... for extracted existentials, f1/g1/h1 ... for functions, and so
on), falling back to an underscore suffix on collision, so repeated runs
produce identical output.  Every pass avoids the names its input uses,
and only those: a signature symbol the input does not use can be reused
(d_to_eso under a signature declaring an unused f1/1 quantifies its own
f1).  extract_dep_atoms, which sees only a body, also avoids its
``reserved`` names, e.g. the variables of the enclosing prefix.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError
from .syntax import (
    FALSE, TRUE, And, App, DepAtom, Equal, EsoSentence, Exists, Forall,
    Formula, Term, Var, _as_tuple, _call_shapes, _check_eso, _check_prenex,
    _distinct_var_tuple, _pairs, _rebuild, _wrap_prefix, and_chain,
    eso_symbols, free_vars, fresh_var, function_patterns, is_quantifier_free,
    iter_subformulas, iter_terms, or_chain, prenex_split, replace_terms,
    satisfies_star, symbols_of,
)

__all__ = [
    "NormalFormD",
    "to_prenex", "simplify_atom_terms", "extract_dep_atoms",
    "to_normal_form", "skolemize_normal_form", "d_to_eso",
    "star_normalize", "deskolemize_functions", "eso_to_d",
    "skolemize_prefix_existentials", "snf_to_star",
    "collapse_existential_to_fo", "eliminate_width1", "single_forall_reuse",
]


class _Names:
    """Deterministic fresh names: family1, family2, ... with an underscore
    suffix whenever the numbered name is already taken."""

    def __init__(self, used: set[str], family: str):
        self.used = used
        self.family = family
        self.count = 0

    def new(self) -> str:
        self.count += 1
        name = fresh_var(self.used, f"{self.family}{self.count}")
        self.used.add(name)
        return name


# ---------------------------------------------------------------------------
# Dependence logic: prenex form and the constrained-existential normal form
# ---------------------------------------------------------------------------

def to_prenex(f: Formula) -> Formula:
    """Hoist every quantifier of a sentence into one leading prefix.

    Requires each variable to be quantified at most once, which makes the
    hoisting capture-free; left operands contribute their quantifiers
    before right operands.
    """
    prefix, matrix = prenex_split(f)
    return _wrap_prefix(prefix, matrix)


def _simplify_core(prefix, matrix, used):
    """Repair dependence atoms over mirror variables; returns the extended
    prefix and the matrix with the defining equalities conjoined."""
    names = _Names(used, "z")
    order: list[str] = []
    equalities: list[Formula] = []

    def repair(g: Formula) -> Formula:
        if not isinstance(g, DepAtom) or _distinct_var_tuple(g.terms):
            return g
        # repair the whole atom: one fresh mirror per argument position
        args = []
        for t in g.terms:
            z = names.new()
            order.append(z)
            equalities.append(Equal(Var(z), t))
            args.append(Var(z))
        return DepAtom(tuple(args), g.negated)

    new_matrix = and_chain(equalities + [_rebuild(matrix, repair)])
    return list(prefix) + [("exists", z) for z in order], new_matrix


def simplify_atom_terms(f: Formula) -> Formula:
    """Rewrite dependence atoms so each argument is a distinct variable.

    An atom whose arguments are already pairwise-distinct variables is left
    alone.  Any other atom is repaired wholesale: every argument t moves to
    a fresh existential z pinned by a conjunct z = t at the top level of
    the matrix.  The conjunct makes z mirror t on every row of every team
    reached during evaluation, so the swap preserves the verdict, and
    replacing all arguments at once keeps the atom's width unchanged.
    """
    prefix, matrix = prenex_split(f)
    used = symbols_of(f)
    new_prefix, new_matrix = _simplify_core(prefix, matrix, used)
    return _wrap_prefix(new_prefix, new_matrix)


def _check_atom_args(matrix: Formula) -> None:
    for sub in iter_subformulas(matrix):
        if isinstance(sub, DepAtom) and not _distinct_var_tuple(sub.terms):
            raise ShapeError(
                "dependence atom arguments must be pairwise-distinct "
                "variables; run the atom simplification pass first")


def _extract_core(matrix, used):
    """Replace each dependence atom in place and collect its binding."""
    names = _Names(used, "y")
    bindings: list[DepAtom] = []

    def extract(g: Formula) -> Formula:
        if not isinstance(g, DepAtom):
            return g
        if g.negated:
            return FALSE  # only the empty team satisfies a negated atom
        if not g.terms:
            return TRUE  # the empty atom holds in every team
        y = names.new()
        bindings.append(DepAtom(tuple(g.terms[:-1]) + (Var(y),)))
        return Equal(Var(y), g.terms[-1])

    return bindings, _rebuild(matrix, extract)


def extract_dep_atoms(
    body: Formula, reserved: tuple[str, ...] = (),
) -> tuple[tuple[str, ...], tuple[DepAtom, ...], Formula]:
    """Hoist every dependence atom out of a quantifier-free body.

    Each positive occurrence =(z1, ..., zm) contributes a fresh
    existential y and the binding =(z1, ..., z(m-1), y), while the
    occurrence itself weakens to y = zm.  Negated atoms hold only in the
    empty team and become the false constant; empty atoms hold everywhere
    and become true.  The returned triple (variables, bindings, matrix)
    stands for the equivalent

        exists y1 ... exists yn . (bindings & matrix)

    Atom arguments must already be pairwise-distinct variables (run
    simplify_atom_terms first).  Quantified variables of an enclosing
    prefix that do not occur in the body should be passed via ``reserved``
    so the fresh names avoid them.
    """
    if not is_quantifier_free(body):
        raise ShapeError("the body must be quantifier free; prenex first")
    _check_atom_args(body)
    used = symbols_of(body) | set(reserved)
    bindings, theta = _extract_core(body, used)
    ys = tuple(b.terms[-1].name for b in bindings)
    return ys, tuple(bindings), theta


@dataclass(frozen=True)
class NormalFormD:
    """A sentence split into prefix, dependence constraints, and matrix.

    ``prefix`` is the original mixed quantifier block.  Each binding
    =(z1, ..., zm, y) constrains a fresh existential y, quantified after
    the prefix, to be a function of z1, ..., zm.  ``matrix`` is quantifier
    free and dependence free.  ``to_formula`` rebuilds

        prefix . exists y1 ... exists yn . (bindings & matrix)

    syntax._check_prenex, which EsoSentence shares, checks all but the bindings.
    """

    prefix: tuple[tuple[str, str], ...]
    bindings: tuple[DepAtom, ...]
    matrix: Formula

    def __post_init__(self):
        pool = {v for _, v in _pairs(self.prefix, "prefix")}
        bound: list[str] = []
        for b in _as_tuple(self.bindings, "bindings"):
            if not isinstance(b, DepAtom) or b.negated or not b.terms:
                raise ShapeError(
                    "each binding must be a positive non-empty dependence atom")
            if not all(isinstance(t, Var) for t in b.terms):
                raise ShapeError("binding arguments must be variables")
            names = [t.name for t in b.terms]
            if len(set(names)) != len(names):
                raise ShapeError("binding arguments must be pairwise distinct")
            if not set(names[:-1]) <= pool:
                raise ShapeError("binding patterns may only use prefix variables")
            if names[-1] in pool or names[-1] in bound:
                raise ShapeError("bound variables must be fresh and carry "
                                 "exactly one binding each")
            bound.append(names[-1])
        _check_prenex(self.prefix, self.matrix, bound, {})

    @property
    def bound_vars(self) -> tuple[str, ...]:
        return tuple(b.terms[-1].name for b in self.bindings)

    def to_formula(self) -> Formula:
        prefix = list(self.prefix) + [("exists", y) for y in self.bound_vars]
        return _wrap_prefix(prefix, and_chain(list(self.bindings) + [self.matrix]))


def to_normal_form(f: Formula) -> NormalFormD:
    """Prenex the sentence, clean its atoms, and hoist them, in one go."""
    prefix, matrix = prenex_split(f)
    used = symbols_of(f)
    prefix, matrix = _simplify_core(prefix, matrix, used)
    bindings, theta = _extract_core(matrix, used)
    return NormalFormD(tuple(prefix), tuple(bindings), theta)


def skolemize_normal_form(nf: NormalFormD) -> EsoSentence:
    """Turn each binding into a quantified function.

    A binding =(z1, ..., zm, y) says y is a function of z1, ..., zm, so
    the sentence holds exactly when some function f supplies the value:
    every occurrence of y becomes f(z1, ..., zm).
    """
    if not isinstance(nf, NormalFormD):
        raise ShapeError(f"not a normal form: {nf!r}")
    used = {v for _, v in nf.prefix}
    used.update(nf.bound_vars)
    used |= symbols_of(nf.matrix)
    names = _Names(used, "f")
    functions = [(names.new(), len(b.terms) - 1) for b in nf.bindings]
    skolem = {b.terms[-1]: App(fn, b.terms[:-1])
              for (fn, _), b in zip(functions, nf.bindings)}
    return EsoSentence(tuple(functions), nf.prefix,
                       replace_terms(nf.matrix, skolem))


def d_to_eso(f: Formula) -> EsoSentence:
    """Full pipeline from a dependence-logic sentence to a function sentence."""
    return skolemize_normal_form(to_normal_form(f))


# ---------------------------------------------------------------------------
# Function sentences: Skolem prefixes and single call shapes
# ---------------------------------------------------------------------------

def skolemize_prefix_existentials(s: EsoSentence) -> EsoSentence:
    """Remove first-order existentials: each becomes a quantified function
    applied to the universals quantified before it."""
    _check_eso(s)
    if all(kind == "forall" for kind, _ in s.prefix):
        return s
    used = eso_symbols(s)
    names = _Names(used, "g")
    functions = list(s.functions)
    skolem: dict[Term, Term] = {}
    outer: list[Var] = []
    for kind, v in s.prefix:
        if kind == "forall":
            outer.append(Var(v))
        else:
            g = names.new()
            functions.append((g, len(outer)))
            skolem[Var(v)] = App(g, tuple(outer))
    return EsoSentence(tuple(functions), tuple(("forall", u.name) for u in outer),
                       replace_terms(s.matrix, skolem))


def star_normalize(s: EsoSentence) -> EsoSentence:
    """Rewrite until every quantified function has a single call shape
    consisting of pairwise-distinct universal variables.

    Three stages, each one equivalence preserving:

    1. Flatten.  An application f(t1, ..., tm) whose arguments are not
       pairwise-distinct variables becomes f(z1, ..., zm) over fresh
       trailing universals, guarded by
       ~(z1 = t1) | ... | ~(zm = tm) | matrix', which only bites on the
       one value tuple where z equals t.  All occurrences of the same
       application share one guard.
    2. Re-ground.  Any remaining shape that is not all-universal, or that
       shares a variable with the shape its function keeps, is flattened
       the same way; stage 3 needs the kept shapes to range over the whole
       domain independently of the split-off ones.
    3. Split.  A function left with shapes p1, ..., pr keeps p1 and hands
       each pi (i >= 2) to a fresh copy fi, with the coherence guard
       ~(p1_1 = pi_1) | ... | ~(p1_m = pi_m) | f(p1) = fi(pi)
       conjoined, forcing fi to agree with f wherever it is applied.
    """
    _check_eso(s)
    outer_universals = {v for kind, v in s.prefix if kind == "forall"}
    if satisfies_star(s) and all(
            a.name in outer_universals
            for pats in function_patterns(s).values() for p in pats for a in p):
        return s
    used = eso_symbols(s)
    znames = _Names(used, "z")
    prefix = list(s.prefix)
    matrix = s.matrix
    fn_names = [n for n, _ in s.functions]
    arities = dict(s.functions)

    def flatten(shapes: list[App]) -> None:
        """Move each application onto fresh universals behind its guard,
        the latest guard outermost, then substitute them all at once, in
        the guards too (an argument can hold another moved shape)."""
        nonlocal matrix
        moves = {}
        for t in shapes:
            fresh = tuple(Var(znames.new()) for _ in t.args)
            prefix.extend(("forall", v.name) for v in fresh)
            moves[t] = App(t.fn, fresh)
            matrix = or_chain([Equal(z, a, negated=True)
                               for z, a in zip(fresh, t.args)] + [matrix])
        if moves:
            matrix = replace_terms(matrix, moves)

    # one function at a time: its guards can hold the next one's shapes
    for fn in fn_names:
        flatten([App(fn, args) for args in _call_shapes(matrix, [fn])[fn]
                 if not _distinct_var_tuple(args)])

    universals = {v for kind, v in prefix if kind == "forall"}
    moved: list[App] = []
    for fn, shapes in _call_shapes(matrix, fn_names).items():
        kept: set[str] = set()
        for i, args in enumerate(shapes):
            names = {a.name for a in args}
            if not names <= universals or names & kept:
                moved.append(App(fn, args))
            elif i == 0:
                kept = names
    flatten(moved)

    guards: list[Formula] = []
    functions = list(s.functions)
    split: dict[Term, Term] = {}
    for fn, tuples in _call_shapes(matrix, fn_names).items():
        copies = _Names(used, fn + "_")
        for args in tuples[1:]:
            copy = copies.new()
            functions.append((copy, arities[fn]))
            split[App(fn, args)] = App(copy, args)
            mismatches = [Equal(a, b, negated=True)
                          for a, b in zip(tuples[0], args)]
            guards.append(or_chain(
                mismatches + [Equal(App(fn, tuples[0]), App(copy, args))]))
    if guards:
        matrix = and_chain(guards + [replace_terms(matrix, split)])
    return EsoSentence(tuple(functions), tuple(prefix), matrix)


def deskolemize_functions(s: EsoSentence) -> Formula:
    """Replace every quantified function by a constrained existential.

    Needs the single distinct-variable call shape (run star_normalize
    first).  A function f used as f(z1, ..., zm) becomes an existential y
    quantified after the first-order prefix and constrained by
    =(z1, ..., zm, y); functions with no occurrence are dropped, since any
    witness works for them.  The result is built as a NormalFormD, which
    checks it with syntax._check_prenex.
    """
    if not satisfies_star(s):
        raise ShapeError("every function needs a single distinct-variable "
                         "call shape; run star normalization first")
    used = eso_symbols(s)
    names = _Names(used, "y")
    patterns = function_patterns(s)
    bindings: list[DepAtom] = []
    deskolem: dict[Term, Term] = {}
    for fn, _ in s.functions:
        if not patterns[fn]:
            continue
        (pattern,) = patterns[fn]
        y = Var(names.new())
        bindings.append(DepAtom(pattern + (y,)))
        deskolem[App(fn, pattern)] = y
    return NormalFormD(s.prefix, tuple(bindings),
                       replace_terms(s.matrix, deskolem)).to_formula()


def eso_to_d(s: EsoSentence) -> Formula:
    """Full pipeline from a function sentence to a dependence-logic sentence."""
    return deskolemize_functions(star_normalize(s))


def snf_to_star(s: EsoSentence) -> EsoSentence:
    """Single call shapes for a purely universal prefix, by composition.

    Where star_normalize spends fresh universals per rewritten call shape,
    this pass first pushes every application into one of two canonical
    forms over the prefix x1, ..., xk:

    * simple: f(x1, ..., xa), the first a prefix variables in order;
    * composed: f(u1, ..., ua), each argument a prefix variable or a
      simple application of another quantified function, no variable or
      function repeated among the arguments and none equal to f.

    Helper functions (h family) absorb non-canonical arguments through
    defining equalities h(x1, ..., xk) = t conjoined to the matrix.  Every
    function still used in composed form is then rewritten over a single
    shared block of fresh universals v1, ..., vL, where L is the widest
    such function: each composed shape u gets the guard
    ~(v1 = u1) | ... | ~(va = ua) | f(v1, ..., va) = h'(x1, ..., xk)
    pinning a fresh helper h' to the composed value (an argument g(...)
    whose g has composed shapes of its own is read there through a helper
    defined equal to g), composed occurrences are replaced by their
    helper, simple occurrences move onto the fresh block, and the matrix
    is only required on the diagonal:
    ~(x1 = v1) | ... | matrix'.  The output keeps the k original
    universals plus the L fresh ones, so at most 2k in total.

    Inputs already in single-call-shape form are returned unchanged.
    Otherwise every function arity must be at most k, or no canonical
    shape over the prefix exists.
    """
    _check_eso(s)
    if any(kind != "forall" for kind, _ in s.prefix):
        raise ShapeError("prefix must be purely universal; skolemize the "
                         "existentials first")
    if satisfies_star(s):
        return s
    wide = [n for n, a in s.functions if a > len(s.prefix)]
    if wide:
        raise ShapeError("function arity exceeds the universal count: "
                         + ", ".join(wide))
    used = eso_symbols(s)
    hnames = _Names(used, "h")
    vnames = _Names(used, "v")
    xs = tuple(Var(v) for _, v in s.prefix)
    k = len(xs)
    functions = list(s.functions)
    arities = dict(s.functions)
    matrix = s.matrix

    def quantified(t: Term) -> bool:
        return isinstance(t, App) and t.fn in arities

    def simple(t: Term) -> bool:
        return quantified(t) and t.args == xs[:len(t.args)]

    def composed(t: Term) -> bool:
        keys = []
        for a in t.args:
            if isinstance(a, Var):
                keys.append(("var", a.name))
            elif simple(a) and a.fn != t.fn:
                keys.append(("fn", a.fn))
            else:
                return False
        return len(set(keys)) == len(keys)

    def helper(arity: int) -> str:
        h = hnames.new()
        functions.append((h, arity))
        arities[h] = arity
        return h

    while True:
        target = next((t for t in iter_terms(matrix)
                       if quantified(t) and not simple(t) and not composed(t)),
                      None)
        if target is None:
            break
        helpers = [App(helper(k), xs) for _ in target.args]
        matrix = replace_terms(matrix, {target: App(target.fn, tuple(helpers))})
        matrix = and_chain([matrix] + [Equal(h, arg)
                                       for h, arg in zip(helpers, target.args)])

    shapes: dict[str, list[App]] = {}
    for t in dict.fromkeys(t for t in iter_terms(matrix)
                           if quantified(t) and not simple(t)):
        shapes.setdefault(t.fn, []).append(t)
    # no symbol may stay on both sides of a composition: where a function
    # with composed shapes is another's argument, the guards read it
    # through a helper equal to it, since its own occurrences move onto vs
    inner = {u.fn for ts in shapes.values() for t in ts for u in t.args
             if isinstance(u, App)}
    both = [(g, a) for g, a in functions if g in shapes and g in inner]
    twin = {App(g, xs[:a]): App(helper(a), xs[:a]) for g, a in both}
    matrix = and_chain([matrix] + [Equal(g, h) for g, h in twin.items()])

    width = max(arities[n] for n in shapes)
    vs = tuple(Var(vnames.new()) for _ in range(width))
    guards: list[Formula] = []
    moves: dict[Term, Term] = {}
    for n, a in [(n, a) for n, a in functions if n in shapes]:
        for t in shapes[n]:
            moves[t] = App(helper(k), xs)
            guards.append(or_chain(
                [Equal(v, twin.get(u, u), negated=True) for v, u in zip(vs, t.args)]
                + [Equal(App(n, vs[:a]), moves[t])]))
        moves[App(n, xs[:a])] = App(n, vs[:a])
    matrix = replace_terms(matrix, moves)
    diagonal = or_chain(
        [Equal(x, v, negated=True) for x, v in zip(xs, vs)] + [matrix])
    new_prefix = tuple(s.prefix) + tuple(("forall", v.name) for v in vs)
    return EsoSentence(tuple(functions), new_prefix,
                       and_chain(guards + [diagonal]))


# ---------------------------------------------------------------------------
# Special-purpose eliminations
# ---------------------------------------------------------------------------

def collapse_existential_to_fo(f: Formula) -> Formula:
    """Replace dependence atoms by their polarity in a universal-free
    sentence.

    Without universals every team reached during evaluation has at most
    one row.  On such teams a positive dependence atom always holds, and a
    negated one holds exactly when the team is empty, which is the truth
    condition of the false constant.
    """
    if free_vars(f):
        raise ShapeError("only sentences can be collapsed")
    if any(isinstance(sub, Forall) for sub in iter_subformulas(f)):
        raise ShapeError("sentence quantifies universally; cannot collapse")

    def polarity(g: Formula) -> Formula:
        if isinstance(g, DepAtom):
            return FALSE if g.negated else TRUE
        return g

    return _rebuild(f, polarity)


def eliminate_width1(f: Formula) -> Formula:
    """Remove dependence atoms of width at most one.

    =(t) forces one shared value of t across the team, so the function
    translation produces only 0-ary quantified functions; existentials
    placed in front of the prefix supply those constants directly, leaving
    an ordinary first-order sentence.  =() is simply true and disappears.
    """
    for sub in iter_subformulas(f):
        if isinstance(sub, DepAtom) and len(sub.terms) > 1:
            raise ShapeError("a dependence atom has width above one")
    e = d_to_eso(f)
    used = eso_symbols(e)
    names = _Names(used, "w")
    # width <= 1 atoms leave empty binding patterns
    assert all(arity == 0 for _, arity in e.functions)
    constants = {App(fn, ()): Var(names.new()) for fn, _ in e.functions}
    front = [("exists", w.name) for w in constants.values()]
    return _wrap_prefix(front + list(e.prefix),
                        replace_terms(e.matrix, constants))


def single_forall_reuse(f: Formula, designated: str = "x") -> Formula:
    """Rebind every universal quantifier to one designated variable.

    Each "forall y: body" becomes "forall designated: exists y:
    (designated = y & body)": the universal ranges over the designated
    variable and the old variable copies its value row by row.  The output
    reuses the designated variable, so it abandons the one-quantifier-per-
    variable discipline; evaluation handles this by rebinding.
    """
    if designated in symbols_of(f):
        raise ShapeError(f"designated variable {designated!r} already occurs")

    def reuse(g: Formula) -> Formula:
        if not isinstance(g, Forall):
            return g
        return Forall(designated, Exists(
            g.var, And(Equal(Var(designated), Var(g.var)), g.body)))

    return _rebuild(f, reuse)
