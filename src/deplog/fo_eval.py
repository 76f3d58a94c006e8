"""Classical first-order evaluation: the compiler both evaluators run.

The package's one classical evaluator, with no public entry: the ESO plan
runs it on the prefix after the leading universals and the matrix, the
team evaluator on dependence-free subformulas row by row (so satisfies on
a one-row team is classical satisfaction).  It imports neither evaluator,
so their two searches share no code.

A formula is compiled once into straight-line Python: _Gen writes the
source of one function of an environment (a list, or a team row tuple),
with a for loop per quantifier, a flat run of if blocks per chain of one
connective, tuple membership for relations and flat-table reads for
functions, each application in a temporary of its own, and _load
compiles that text once while it is among the 256 texts used last,
whatever formula it came from.  The text holds slot numbers and integers
only: each variable is resolved to its slot (by _scope, which the team
evaluator shares), each quantifier gets a slot of its own, and each
relation, function and constant a slot of a _Symbols table that is
refilled per structure, so a compiled formula runs on another structure
without being compiled again, and a renamed sentence runs the same code.
_Gen writes a formula in one loop over an explicit stack, so a nest of
any depth is written without recursion; a quantifier nest or a block
nest deeper than CPython compiles goes into functions of their own,
split off in that same loop.  Every function application reads its table
at the flat lexicographic index of its arguments, as a Structure stores
it; the table of a quantified function (the ESO plan's "extra" ones) is
whatever the caller puts in its slot, and the search over those tables,
with all its state, lives in eso_eval.

The table also holds the run's budget, set with the structure, so a
compiled formula spends from whichever budget runs it.  Each caller
charges it under its own context, one unit per node visited:
"first-order evaluation" for the ESO plan and "row evaluation" for the
team plan.  A generated call counts its units and spends them in one call
of the budget's spend (a subclass sees every unit) when it returns and
before each read of a quantified function's table, which spends on its
own; at each quantifier step it checks the count against the budget's
room, and spends the unit that passes it as soon as it does, so every
tally and abort is the one a unit-by-unit count gives.  _PlanCache keeps
the compiled plans of both evaluators' one-shot entries for reuse across
calls.
"""

from __future__ import annotations

import functools
import threading
from operator import itemgetter
from typing import Callable, Sequence

from .budget import Budget
from .errors import ShapeError
from .structures import Structure, _getter
from .syntax import (
    And, Bool, Const, Equal, Exists, Forall, Formula, Or, RelAtom, Term, Var,
    _fold_term, _wrap_prefix,
)

__all__: list[str] = []

# a compiled formula, called on a slot-indexed environment
_Check = Callable[[Sequence[int]], bool]


def _scope(vars: tuple[str, ...]) -> dict[str, int]:
    # a rebound variable names its newest slot
    return {v: i for i, v in enumerate(vars)}


class _Symbols:
    """The symbols compiled code reads, one slot each in ``values``; slot
    0 holds the domain size.  ``bind`` refills the slots from a structure
    and puts the run's budget in ``meter``, a two-item list of its spend
    method and the budget itself, which the code reads through (an index
    is cheaper than an attribute there).  The slots of "extra" functions
    (quantified ones, absent from the structure) are reserved and filled
    by the caller."""

    def __init__(self):
        self.values: list = [0]
        self.slots: dict[tuple[str, str], int] = {}
        self.meter: list = [None, None]

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
        self.meter[:] = None, None

    def bind(self, struct: Structure, budget: Budget) -> None:
        self.meter[:] = budget.spend, budget
        values = self.values
        values[0] = struct.size
        for (table, name), i in self.slots.items():
            if table != "extra":
                values[i] = getattr(struct, table)[name]


# the most loops (static blocks: CPython allows 20) and indentation levels
# (it allows 100) one generated function nests; a deeper node is written
# as a function of its own
_MAX_LOOPS = 16
_MAX_INDENT = 40
# when the count c has passed the room R, spend the unit that passes the
# budget's limit (the first unit when the budget is already past it)
_ABORT = "if c > R: M[0](R + 1 if R > 0 else 1, X)"
_RETURN = "M[0](c if c <= R else R + 1 if R > 0 else 1, X)"


@functools.lru_cache(maxsize=256)
def _load(src: str) -> Callable:
    """The factory ``_make`` that ``src`` defines, compiled once per text
    while the text is among the 256 used last; the code sees no builtin
    but ``range``."""
    ns = {"__builtins__": {}, "range": range}
    exec(compile(src, "<fo_eval>", "exec"), ns)
    return ns["_make"]


class _Gen:
    """Writes the source of one compiled formula or term tuple: a factory
    ``_make(V, M, X)`` of the symbols' values, the meter and the spend
    context, returning the entry ``_f0(E)`` (E the environment) and
    defining the functions split off it.  The text names only the
    generator's own locals and slots, v<slot> for variables, w<n> for
    terms and V[<slot>] for symbols, so no input name reaches it.  A
    formula's code sets t to its truth and counts in c one unit per node
    it visits, in the order it visits them."""

    def __init__(self, syms: _Symbols, width: int):
        self.syms = syms
        self.width = width  # variable slots taken
        self.defs: list[list[str]] = []  # the functions split off
        self.temps = 0
        # the function being written: its lines, the variable slots it reads
        # (its split-offs' parameters included), the units not yet written
        # (counted at indentation pind), whether it reads the domain size
        # and a quantified function's table
        self.body: list[str] = []
        self.used: set[int] = set()
        self.pending = self.pind = 0
        self.wide = self.reads = False

    def line(self, ind: int, text: str) -> None:
        self.count()
        self.body.append(" " * ind + text)

    def unit(self, ind: int) -> None:
        if self.pind != ind:
            self.count()
        self.pending += 1
        self.pind = ind

    def count(self) -> None:
        """Write the pending units where they were counted."""
        if self.pending:
            self.body.append(f"{' ' * self.pind}c += {self.pending}")
            self.pending = 0

    def formula(self, f: Formula, scope: dict[str, int], ind: int, loops: int,
                free: int = 0) -> None:
        """Code at indentation ``ind``, inside ``loops`` loops, that sets t
        to f's truth; the ``free`` outermost quantifiers of f count no
        unit.  One loop writes it, depth first, from a stack of nodes still
        to write, lines that close a block and ends of split-off functions.
        A chain of one connective, left or right nested, is written flat:
        each link's unit where the link is visited, and each right side in
        a block one indentation past the chain's guards, which runs while
        the chain is undecided (t true for And, false for Or).  A node
        nested deeper than CPython compiles is split off as a function of
        its own, called with the slots in scope that it reads once the
        units counted so far are spent, so that its room is right."""
        # a node carries the chain it continues: (connective, guards'
        # indentation), or None
        todo: list = [(f, scope, ind, loops, free, None)]
        while todo:
            item = todo.pop()
            if isinstance(item, str):  # a line that closes a block, indented
                self.line(0, item)
                continue
            if item[0] is None:  # the end of a split-off function
                _, ind, outside, outer = item
                slots = sorted(self.used & outside)
                params = ", ".join(f"v{i}" for i in slots)
                name = f"_f{len(self.defs) + 1}"
                self.function(name, params, "t", True)
                self.body, self.wide, self.reads, self.used = outer
                self.used.update(slots)
                self.line(ind, f"t = {name}({params})")
                self.line(ind, "R = B.limit - B.spent")
                self.line(ind, "c = 0")
                continue
            f, scope, ind, loops, free, chain = item
            quantifier = isinstance(f, (Exists, Forall))
            if chain is None or not isinstance(f, chain[0]):
                if ind >= _MAX_INDENT or quantifier and loops >= _MAX_LOOPS:
                    self.line(ind, _ABORT)
                    self.line(ind, "M[0](c, X)")
                    outer = self.body, self.wide, self.reads, self.used
                    todo += ((None, ind, set(scope.values()), outer),
                             (f, scope, 1, 0, free, None))
                    self.body, self.wide, self.reads, self.used = [], False, False, set()
                    continue
                chain = ((And if isinstance(f, And) else Or, ind)
                         if isinstance(f, (And, Or)) else None)
            if not (quantifier and free):
                self.unit(ind)
            if chain:
                kind, at = chain
                todo += ((f.right, scope, at + 1, loops, 0, chain),
                         " " * at + ("if t:" if kind is And else "if not t:"),
                         (f.left, scope, ind, loops, 0, chain))
            elif quantifier:
                i = self.width
                self.width += 1
                self.wide = True
                self.line(ind, f"for v{i} in range(N):")
                self.line(ind + 1, _ABORT)
                todo += (" " * (ind + 1) + ("if t: break" if isinstance(f, Exists)
                                            else "if not t: break"),
                         (f.body, {**scope, f.var: i}, ind + 1, loops + 1,
                          max(free - 1, 0), None))
            elif isinstance(f, RelAtom):
                k = self.syms.slot("relations", f.rel)
                args = [self.term(a, scope, ind) for a in f.args]
                row = ", ".join(args) + ("," if len(args) == 1 else "")
                self.line(ind, f"t = ({row}) {'not in' if f.negated else 'in'} V[{k}]")
            elif isinstance(f, Equal):
                left = self.term(f.left, scope, ind)
                right = self.term(f.right, scope, ind)
                self.line(ind, f"t = {left} {'!=' if f.negated else '=='} {right}")
            elif isinstance(f, Bool):
                self.line(ind, f"t = {bool(f.value)}")
            else:
                raise ShapeError(f"cannot evaluate {f!r}")

    def term(self, t: Term, scope: dict[str, int], ind: int) -> str:
        """Write the temporaries that compute t, each argument list left to
        right before its application; the expression of t's value."""
        def leaf(u: Term) -> str:
            if isinstance(u, Const):
                return f"V[{self.syms.slot('constants', u.name)}]"
            i = scope[u.name]
            self.used.add(i)
            return f"v{i}"
        return _fold_term(t, leaf, lambda u, args: self.app(u.fn, args, ind))

    def app(self, fn: str, args: list[str], ind: int) -> str:
        """Read fn's table at the flat lexicographic index of ``args``, the
        first most significant; a quantified function's (one with a
        reserved "extra" slot) after spending the units counted so far when
        the entry is absent, since reading it then spends on its own."""
        extra = self.syms.slots.get(("extra", fn))
        k = extra or self.syms.slot("functions", fn)
        w = f"w{self.temps}"
        self.temps += 1
        index = args[0] if args else "0"
        if len(args) > 1:
            self.wide = True
            index = f"{index} * N + {args[1]}"
        if len(args) > 2:
            self.line(ind, f"{w} = {index}")
            for a in args[2:]:
                self.line(ind, f"{w} = {w} * N + {a}")
            index = w
        if extra is None:
            self.line(ind, f"{w} = V[{k}][{index}]")
            return w
        self.reads = True
        if " " in index:
            self.line(ind, f"{w} = {index}")
            index = w
        self.line(ind, f"if {index} in V[{k}]: {w} = V[{k}][{index}]")
        self.line(ind, "else:")
        self.line(ind + 1, _ABORT)
        self.line(ind + 1, "M[0](c, X)")
        self.line(ind + 1, f"{w} = V[{k}][{index}]")
        self.line(ind + 1, "R = B.limit - B.spent")
        self.line(ind + 1, "c = 0")
        return w

    def function(self, name: str, params: str, result: str, budget: bool,
                 entry: Sequence[str] = ()) -> None:
        """Close the body as the function ``name`` of ``params``, with the
        prologue it needs (the ``entry`` loads last), returning
        ``result``; a formula's (``budget``) spends its count first."""
        body = self.body
        head = [f" def {name}({params}):"]
        if self.wide:
            head.append("  N = V[0]")
        if budget:
            self.line(1, "if c: " + _RETURN if self.reads else _RETURN)
            head += ["  B = M[1]", "  R = B.limit - B.spent"]
            if body[0].startswith(" c += "):
                body[0] = " c = " + body[0][6:]
            else:
                head.append("  c = 0")
        head += [f" {s}" for s in entry]
        self.defs.append(head + [f" {s}" for s in body] + [f"  return {result}"])

    def source(self, entry: Sequence[str], result: str, budget: bool) -> str:
        """The factory's text, with the body written last as _f0."""
        self.function("_f0", "E", result, budget, entry)
        return "\n".join(["def _make(V, M, X):", *(s for d in self.defs for s in d),
                          " return _f0", ""])


def _entry(vars: tuple[str, ...], used: set[int]) -> list[str]:
    """The loads of the read slots of the environment E."""
    slots = sorted(i for i in used if i < len(vars))
    if slots and len(slots) == len(vars):
        return [f" {', '.join(f'v{i}' for i in slots)}, = E"]
    return [f" v{i} = E[{i}]" for i in slots]


def _compile_fo(f: Formula, vars: tuple[str, ...], syms: _Symbols,
                context: str, loops: Sequence[tuple[str, str]] = ()) -> _Check:
    """A dependence-free formula as a function of an environment holding
    the values of ``vars`` in order (a list or a tuple), run inside the
    ``loops``, (quantifier, variable) pairs that count nothing.  Every node
    of f visited spends one unit of the bound budget under ``context``."""
    gen = _Gen(syms, len(vars))
    gen.formula(_wrap_prefix(loops, f), _scope(vars), 1, 0, len(loops))
    src = gen.source(_entry(vars, gen.used), "t", True)
    return _load(src)(syms.values, syms.meter, context)


def _compile_terms(ts: Sequence[Term], vars: tuple[str, ...], syms: _Symbols,
                   bare: bool = False) -> Callable[[Sequence[int]], object]:
    """Terms as a function of a row returning the tuple of their values,
    or the one term's value when ``bare``.  A team's terms read no
    quantified function, so they spend nothing."""
    scope = _scope(vars)
    if all(isinstance(t, Var) for t in ts):
        slots = [scope[t.name] for t in ts]
        return itemgetter(*slots) if bare else _getter(slots)
    gen = _Gen(syms, len(vars))
    out = [gen.term(t, scope, 1) for t in ts]
    result = out[0] if bare else f"({', '.join(out)},)"
    src = gen.source(_entry(vars, gen.used), result, False)
    return _load(src)(syms.values, syms.meter, "")


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
