"""Classical first-order evaluation: the compiler both evaluators run.

The package's one classical evaluator, with no public entry: the ESO plan
runs it on the matrix, the team evaluator on dependence-free subformulas
row by row (so satisfies on a one-row team is classical satisfaction).
It imports neither evaluator, so their two searches share no code.

A formula is compiled once into closures over a slot-indexed environment
(a list, or a team row tuple): each variable is resolved to its slot (by
_scope, which the team evaluator shares), each quantifier gets a slot of
its own, and each relation, function and constant to a slot of a _Symbols
table that is refilled per structure, so a compiled formula runs on
another structure without being walked again.  The table also holds the
spend method of the budget a run charges, set with the structure, so a
compiled formula spends from whichever budget runs it.  Each caller
charges that budget under its own context, one unit per node visited:
"first-order evaluation" for the ESO plan and "row evaluation" for the
team plan.  A quantified function (the ESO plan's "extra" ones) is read
from a _Table that the ESO search gives each run empty: the first read of
an entry sets it to 0, spends one "function table candidate" unit and
puts the entry on the symbols' trail for the search to branch on.
_PlanCache keeps the compiled plans of both evaluators' one-shot entries
for reuse across calls.
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import Callable, Sequence

from .budget import Budget
from .errors import ShapeError
from .structures import Structure, _getter
from .syntax import (
    And, App, Bool, Const, Equal, Exists, Forall, Formula, Or, RelAtom, Term, Var,
)

__all__: list[str] = []

# a compiled formula or term, called on a slot-indexed environment
_Check = Callable[[Sequence[int]], bool]
_Value = Callable[[Sequence[int]], int]


def _scope(vars: tuple[str, ...]) -> dict[str, int]:
    # a rebound variable names its newest slot
    return {v: i for i, v in enumerate(vars)}


class _Symbols:
    """The symbols compiled closures read, one slot each in ``values``;
    slot 0 holds the domain size.  ``bind`` refills the slots from a
    structure and puts the spend method of the run's budget in ``meter``,
    a one-item list that the closures call through (an index is cheaper
    than an attribute there).  The slots of ``extra`` functions (quantified
    ones, absent from the structure) are filled by the caller with empty
    _Tables: an entry set on a read goes on ``trail``, with the
    ``instance`` the caller's search was at."""

    def __init__(self, extra=()):
        self.extra = frozenset(extra)
        self.values: list = [0]
        self.slots: dict[tuple[str, str], int] = {}
        self.meter: list[Callable[[int, str], None] | None] = [None]
        self.trail: list[tuple[_Table, object, int]] = []
        self.instance = 0

    def slot(self, table: str, name: str) -> int:
        """Slot of a relation, function, constant or extra function
        (``table`` names the Structure field, or is "extra")."""
        key = (table, name)
        if key not in self.slots:
            self.slots[key] = len(self.values)
            self.values.append(None)
        return self.slots[key]

    def release(self) -> None:
        """Drop what ``bind`` and the caller filled in: the structure's
        tables, the quantified functions' tables and the budget."""
        self.values[1:] = [None] * (len(self.values) - 1)
        self.meter[0] = None
        self.trail.clear()

    def bind(self, struct: Structure, budget: Budget) -> None:
        self.meter[0] = budget.spend
        values = self.values
        values[0] = struct.size
        for (table, name), i in self.slots.items():
            if table != "extra":
                values[i] = getattr(struct, table)[name]


class _Table(dict):
    """A quantified function's table for one run of the ESO search, keyed by
    the argument (by the tuple of arguments from arity 2 on, by 0 at arity
    0) and empty at first: reading an absent entry sets it to 0, spends one
    "function table candidate" unit and puts (table, key, instance) on the
    trail of its symbols, for the search to branch on."""

    __slots__ = ("syms",)

    def __init__(self, syms: _Symbols):
        self.syms = syms

    def __missing__(self, key):
        syms = self.syms
        syms.meter[0](1, "function table candidate")
        self[key] = 0
        syms.trail.append((self, key, syms.instance))
        return 0


def _compile_term(t: Term, scope: dict[str, int], syms: _Symbols) -> _Value:
    """A term as a closure; a structure function's arguments index its flat
    table in lexicographic order, the first argument most significant (a
    quantified function's table is a _Table)."""
    if isinstance(t, Var):
        return itemgetter(scope[t.name])
    values = syms.values
    if isinstance(t, Const):
        k = syms.slot("constants", t.name)
        return lambda env: values[k]
    if not isinstance(t, App):
        raise ShapeError(f"not a term: {t!r}")
    extra = t.fn in syms.extra
    k = syms.slot("extra" if extra else "functions", t.fn)
    if extra and len(t.args) > 1:
        key = _compile_terms(t.args, scope, syms)
        return lambda env: values[k][key(env)]
    args = []
    for a in t.args:
        args.append(_compile_term(a, scope, syms))
    if not args:
        return lambda env: values[k][0]
    if len(args) == 1:
        a0, = args
        return lambda env: values[k][a0(env)]
    if len(args) == 2:
        a0, a1 = args
        return lambda env: values[k][a0(env) * values[0] + a1(env)]

    def app(env):
        n, idx = values[0], 0
        for a in args:
            idx = idx * n + a(env)
        return values[k][idx]
    return app


def _compile_terms(ts: Sequence[Term], scope: dict[str, int],
                   syms: _Symbols) -> Callable[[Sequence[int]], tuple]:
    """A tuple of terms as one closure returning the tuple of values."""
    if all(isinstance(t, Var) for t in ts):
        return _getter([scope[t.name] for t in ts])
    fns = [_compile_term(t, scope, syms) for t in ts]
    if len(fns) == 1:
        f0, = fns
        return lambda env: (f0(env),)
    if len(fns) == 2:
        f0, f1 = fns
        return lambda env: (f0(env), f1(env))
    return lambda env: tuple([f(env) for f in fns])


def _compile_fo(f: Formula, vars: tuple[str, ...], syms: _Symbols,
                context: str) -> _Check:
    """A dependence-free formula as a closure over an environment holding
    the values of ``vars`` in order (a list or a tuple).  Every node visited
    spends one unit of the bound budget under ``context``."""
    values, meter = syms.values, syms.meter
    width = len(vars)

    def comp(f: Formula, scope: dict[str, int]) -> _Check:
        nonlocal width
        if isinstance(f, RelAtom):
            k = syms.slot("relations", f.rel)
            args = _compile_terms(f.args, scope, syms)
            if f.negated:
                def check(env):
                    meter[0](1, context)
                    return args(env) not in values[k]
            else:
                def check(env):
                    meter[0](1, context)
                    return args(env) in values[k]
        elif isinstance(f, Equal):
            left = _compile_term(f.left, scope, syms)
            right = _compile_term(f.right, scope, syms)
            if f.negated:
                def check(env):
                    meter[0](1, context)
                    return left(env) != right(env)
            else:
                def check(env):
                    meter[0](1, context)
                    return left(env) == right(env)
        elif isinstance(f, Bool):
            value = f.value

            def check(env):
                meter[0](1, context)
                return value
        elif isinstance(f, And):
            left, right = comp(f.left, scope), comp(f.right, scope)

            def check(env):
                meter[0](1, context)
                return left(env) and right(env)
        elif isinstance(f, Or):
            left, right = comp(f.left, scope), comp(f.right, scope)

            def check(env):
                meter[0](1, context)
                return left(env) or right(env)
        elif isinstance(f, (Exists, Forall)):
            # a slot of its own, so a rebinding leaves the outer value alone
            i = width
            width += 1
            loop = _quantifier_loop(i, isinstance(f, Exists),
                                    comp(f.body, {**scope, f.var: i}), values)

            def check(env):
                meter[0](1, context)
                return loop(env)
        else:
            raise ShapeError(f"cannot evaluate {f!r}")
        return check

    check = comp(f, _scope(vars))
    if width == len(vars):
        return check
    pad = (0,) * (width - len(vars))
    return lambda env: check([*env, *pad])


def _quantifier_loop(i: int, want: bool, body: _Check, values: list) -> _Check:
    """An existential (want True) or universal quantifier over slot i;
    spends nothing of its own."""
    def check(env):
        for a in range(values[0]):
            env[i] = a
            if body(env) == want:
                return want
        return not want
    return check


# Plans a _PlanCache keeps.  A cached plan serves only a call that passes
# the same formula object again; a caller that parses afresh per call (the
# CLI's check and eval) never hits.  The benchmark's repeating callers cycle
# through at most two formula objects per evaluator (split_teams: phi1 and
# phi2), so twice that keeps every repeat a hit and caps what fresh-parse
# callers keep alive.
_PLAN_CACHE_SIZE = 4


class _PlanCache:
    """At most _PLAN_CACHE_SIZE compiled plans, by formula identity, team
    variables and signature contents, the least recently used dropped
    first.  A call takes its plan out for the run and puts it back after,
    so a nested or concurrent call with the same key compiles a plan of its
    own and no plan is shared mid-run.  A plan is a callable whose ``syms``
    is the symbol table it runs on, released after each run so that the
    cache keeps no structure or budget alive."""

    def __init__(self, build: Callable):
        self.build = build  # (formula, vars, sig) -> plan
        self.plans: dict[tuple, tuple] = {}
        self.lock = threading.Lock()

    def run(self, formula, vars: tuple[str, ...], sig, *args):
        """``build(formula, vars, sig)(*args)``, reusing a cached plan.
        The key holds the formula's id, not its hash, which recurses once
        per level; an entry holds the formula, so no other object takes
        that id while it is cached."""
        key = (id(formula), vars, tuple(sig.relations.items()),
               tuple(sig.functions.items()), sig.constants)
        try:
            with self.lock:
                entry = self.plans.pop(key, None)
        except TypeError:  # a signature mutated to hold unhashable values
            key = entry = None
        plan = self.build(formula, vars, sig) if entry is None else entry[1]
        try:
            return plan(*args)
        finally:
            plan.syms.release()
            if key is not None:
                with self.lock:
                    self.plans[key] = formula, plan
                    if len(self.plans) > _PLAN_CACHE_SIZE:
                        del self.plans[next(iter(self.plans))]
