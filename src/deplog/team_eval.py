"""Team-semantics model checking for dependence logic, by exhaustive search.

A team satisfies:

* a first-order literal iff every row satisfies it classically;
* a dependence atom =(t1,...,tn) iff rows agreeing on t1..t(n-1) agree on
  tn (the empty atom =() is universally true);
* a negated dependence atom iff the team is empty;
* a conjunction iff it satisfies both conjuncts;
* a disjunction iff it splits into two subteams satisfying the disjuncts;
* an existential quantifier iff some choice of one value per row makes the
  extended team satisfy the body;
* a universal quantifier iff extending every row with every domain value
  satisfies the body.

The empty team satisfies every formula.

The search is exhaustive but takes verdict-preserving shortcuts. Formulas
without dependence atoms are evaluated row by row (satisfaction of such
formulas only depends on the individual rows), by the classical evaluator
of eso_eval. The two searches, choosing values at an existential and
splitting the team at a disjunction, both grow a team one row at a time
and abandon a partial team as soon as it fails its formula. Every formula
here is downward closed (a team that satisfies it passes that to all its
subteams), so a failing partial team cannot grow into a satisfying one.

Both searches hand their rows to a sink, compiled once per formula: `add`
keeps a row if the team grown so far still satisfies the formula and
refuses it otherwise, `undo` drops the last row kept, and `choices` lists
the values worth trying in one column of a row. A conjunction of
dependence-free formulas and positive dependence atoms (the shape of the
normal form "prefix ∃ȳ (=(z̄1,y1) ∧ ... ∧ matrix)" that translations
produce, and of each side of phi1) gets a local sink. It checks only the
new row: dependence-free formulas are flat (a team satisfies one iff each
row does), and a dependence atom is a condition on pairs of rows (a team
satisfies it iff no two rows agree on the determinant and differ on the
value), so the new row is checked against one determinant->value table
per atom and against the dependence-free conjuncts alone. The entries a
row adds are recorded, and undo deletes them. Its choices force a value:
an atom =(t̄,y) whose t̄ uses only team columns and variables chosen
before y fixes y once the row's value of t̄ is in its table, so y is tried
with that value only (any other fails the atom), and with none when two
such atoms disagree. On the translation of even_R over its 18 structures
of size <= 2 this cuts the value tuples tried from 818,210 to 59,781. Any
other formula (a negated atom, an atom under a disjunction or a
quantifier) gets a sink that re-evaluates the whole partial team on each
row and tries every value. Both sinks prune exactly where the whole-team
check would, in the same order, so verdicts are unchanged.

An existential chooses each row's values column by column, depth-first in
lexicographic order. A block of fresh variables fills appended columns; a
rebinding existential overwrites its variable's column, and rows it maps
to the same values are kept twice, which changes no verdict. A split
places the sorted rows one at a time, each on the left side first and then
on the right. A split into two disjoint subteams (a two-colouring of the
rows) exists whenever any covering pair of subteams does, so a false team
is refuted without trying all 2^m colourings: phi1 = =(x,y) | =(u,v) on
all 81 rows over a domain of 3 takes 444 placements. Both searches keep
their state on an explicit stack, one entry per row, so a long team needs
no deep Python recursion.

All of this is planned once per formula and root variables (_TeamPlan):
every subformula's variables, and so each variable's column, follow from
the root's and the quantifiers above it. The plan holds per subformula its
dependence-free flag, the compiled row predicate of a dependence-free one,
the compiled determinant and value terms of each atom, and each sink with
the atoms that fix each existential. Deciding a team in another structure
then rebinds the structure's symbols and walks no syntax. equiv_check
builds one plan per sentence and runs it on every structure.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .budget import Budget
from .errors import EvalError, ShapeError
from .eso_eval import (
    _Symbols, _compile_fo, _compile_term, _compile_terms, _spender,
)
from .structures import Structure, Team
from .syntax import (
    And, DepAtom, Exists, Forall, Formula, Or, Var, check_symbols, free_vars,
    term_vars,
)

__all__ = ["satisfies", "sentence_truth"]

_Rows = frozenset[tuple[int, ...]]
# a compiled formula: does a nonempty team (of rows over the formula's
# variables, in order) satisfy it?
_Node = Callable[[_Rows], bool]
# a sink for one team: add(row), undo() and choices(row, j), see _sink
_Sink = tuple[Callable[[Sequence[int]], bool], Callable[[], object],
              Callable[[list[int], int], Iterator[int]] | None]


def _mark_dep_free(f: Formula, flags: dict[int, bool]) -> bool:
    """Record for f and each subformula whether it is dependence-free."""
    if isinstance(f, DepAtom):
        free = False
    elif isinstance(f, (And, Or)):
        free = _mark_dep_free(f.left, flags) & _mark_dep_free(f.right, flags)
    elif isinstance(f, (Exists, Forall)):
        free = _mark_dep_free(f.body, flags)
    else:
        free = True
    flags[id(f)] = free
    return free


class _TeamPlan:
    """A formula compiled once for teams over the given variables; calling
    the plan with a structure and a team's rows decides satisfaction.

    Every subformula becomes a closure over rows whose variables' columns
    are fixed at compile time: the variables of a subformula follow from
    the root's and the quantifiers above it."""

    def __init__(self, root: Formula, vars: tuple[str, ...],
                 budget: Budget | None):
        self.syms = _Symbols()
        self.budget = budget
        self.spend = _spender(budget)
        self.dep_free: dict[int, bool] = {}
        _mark_dep_free(root, self.dep_free)
        self.check = self._node(root, vars)

    def __call__(self, struct: Structure, rows: _Rows) -> bool:
        if not rows:
            return True  # the only empty team a node can be handed
        self.syms.bind(struct)
        return self.check(rows)

    # -- compilation ----------------------------------------------------------

    def _node(self, f: Formula, vars: tuple[str, ...]) -> _Node:
        if self.dep_free[id(f)]:
            row_ok = _compile_fo(f, vars, self.syms, self.budget, "row evaluation")
            return lambda rows: all(map(row_ok, rows))
        if isinstance(f, DepAtom):
            return self._dep(f, vars)
        if isinstance(f, And):
            left, right = self._node(f.left, vars), self._node(f.right, vars)
            return lambda rows: left(rows) and right(rows)
        if isinstance(f, Or):
            return self._or(f, vars)
        if isinstance(f, Exists):
            return self._exists(f, vars)
        if isinstance(f, Forall):
            return self._forall(f, vars)
        raise EvalError(f"cannot evaluate {f!r}")

    def _scope(self, vars: tuple[str, ...]) -> dict[str, int]:
        return {v: i for i, v in enumerate(vars)}

    def _dep(self, f: DepAtom, vars: tuple[str, ...]) -> _Node:
        if f.negated:
            # only the empty team satisfies a negated dependence atom
            return lambda rows: False
        if not f.terms:
            return lambda rows: True
        scope = self._scope(vars)
        key = _compile_terms(f.terms[:-1], scope, self.syms)
        value = _compile_term(f.terms[-1], scope, self.syms)
        spend = self.spend

        def check(rows):
            spend(len(rows), "dependence atom")
            determined: dict[tuple[int, ...], int] = {}
            for row in rows:
                v = value(row)
                if determined.setdefault(key(row), v) != v:
                    return False
            return True
        return check

    def _sink(self, body: Formula, vars: tuple[str, ...],
              block: tuple[str, ...]) -> Callable[[], _Sink]:
        """Compile body, over rows of ``vars`` in which the variables of
        block are being chosen, in order, into a maker of sinks, one per
        team. ``add(row)`` keeps the row (a tuple or list of values) and
        returns True if the rows kept so far satisfy body, else leaves
        them as they were and returns False; ``undo()`` drops the last row
        kept; ``choices(row, j)`` iterates the values worth trying for the
        j-th variable of block, given the row's columns other than block's
        and block's first j (a local sink with an empty block has none).

        A conjunction of dependence-free formulas and positive dependence
        atoms is checked on the new row alone, against one
        determinant->value table per atom. A column that an atom's table
        already fixes for the row is offered only that value, and none if
        two atoms disagree. Any other body is evaluated on all rows kept."""
        free: list[Formula] = []
        atoms: list[DepAtom] = []
        todo = [body]
        while todo:
            g = todo.pop()
            if self.dep_free[id(g)]:
                free.append(g)
            elif isinstance(g, And):
                todo += (g.right, g.left)
            elif isinstance(g, DepAtom) and not g.negated:
                if g.terms:
                    atoms.append(g)
            else:
                return self._whole_team_sink(body, vars)
        scope = self._scope(vars)
        keys = [_compile_terms(g.terms[:-1], scope, self.syms) for g in atoms]
        terms = list(zip(keys, (_compile_term(g.terms[-1], scope, self.syms)
                                for g in atoms)))
        row_oks = [_compile_fo(g, vars, self.syms, self.budget, "row evaluation")
                   for g in free]
        # per variable of block: (atom index, determinant key) of the atoms
        # whose value term is the variable and whose determinant has no
        # variable of block from it on
        fixing: list[list[tuple[int, Callable]]] = [[] for _ in block]
        for a, g in enumerate(atoms):
            dep = g.terms[-1]
            if isinstance(dep, Var) and dep.name in block:
                j = block.index(dep.name)
                later = set(block[j:])
                if not any(term_vars(t) & later for t in g.terms[:-1]):
                    fixing[j].append((a, keys[a]))
        spend, values = self.spend, self.syms.values
        m = len(atoms)

        def make() -> _Sink:
            n = values[0]
            tables: list[dict] = [{} for _ in atoms]
            log: list[list] = []  # the table entries each kept row added

            def add(env) -> bool:
                if m:
                    spend(m, "dependence atom")
                added: list[tuple[dict, tuple[int, ...]]] = []
                for (key, value), table in zip(terms, tables):
                    k = key(env)
                    v = value(env)
                    old = table.get(k)
                    if old is None:
                        table[k] = v
                        added.append((table, k))
                    elif old != v:
                        break
                else:
                    for ok in row_oks:
                        if not ok(env):
                            break
                    else:
                        log.append(added)
                        return True
                for table, k in added:
                    del table[k]
                return False

            def undo() -> None:
                for table, k in log.pop():
                    del table[k]

            if not block:
                return add, undo, None  # a side of a split chooses nothing

            def choices(env: list[int], j: int) -> Iterator[int]:
                forced = None
                for a, key in fixing[j]:
                    table = tables[a]
                    if not table:
                        continue
                    v = table.get(key(env))
                    if v is None or v == forced:
                        continue
                    if forced is not None:
                        return iter(())  # two atoms disagree
                    forced = v
                return iter(range(n) if forced is None else (forced,))
            return add, undo, choices
        return make

    def _whole_team_sink(self, body: Formula, vars: tuple[str, ...]
                         ) -> Callable[[], _Sink]:
        node, values = self._node(body, vars), self.syms.values

        def choices(env: list[int], j: int) -> Iterator[int]:
            return iter(range(values[0]))

        def make() -> _Sink:
            acc: list[tuple[int, ...]] = []

            def add(env) -> bool:
                acc.append(tuple(env))
                if node(frozenset(acc)):
                    return True
                acc.pop()
                return False
            return add, acc.pop, choices
        return make

    # -- team evaluation ------------------------------------------------------

    def _or(self, f: Or, vars: tuple[str, ...]) -> _Node:
        left, right = self._sink(f.left, vars, ()), self._sink(f.right, vars, ())
        spend = self.spend

        def check(rows):
            row_list = sorted(rows)
            add_left, undo_left, _ = left()
            add_right, undo_right, _ = right()
            adds, undos = (add_left, add_right), (undo_left, undo_right)
            placed: list[int] = []  # the side of each row placed so far
            i = side = 0  # the next row, and the side to try it on
            while True:
                spend(1, "disjunction split")
                if adds[side](row_list[i]):
                    i += 1
                    if i == len(row_list):
                        return True
                    placed.append(side)
                    side = 0
                    continue
                while side == 1:
                    # neither side takes row i: move the last placed row on
                    if not placed:
                        return False
                    side = placed.pop()
                    undos[side]()
                    i -= 1
                side += 1
        return check

    def _forall(self, f: Forall, vars: tuple[str, ...]) -> _Node:
        # a fresh variable is a new last column
        i = vars.index(f.var) if f.var in vars else len(vars)
        body = self._node(f.body, vars[:i] + (f.var,) + vars[i + 1:])
        spend, values = self.spend, self.syms.values

        def check(rows):
            n = values[0]
            spend(len(rows) * n, "universal extension")
            return body(frozenset(r[:i] + (a,) + r[i + 1:]
                                  for r in rows for a in range(n)))
        return check

    def _exists(self, f: Exists, vars: tuple[str, ...]) -> _Node:
        # a maximal run of existentials over fresh distinct variables is
        # chosen jointly in appended columns; a rebinding existential
        # overwrites its variable's column. Either way block's columns
        # start at base.
        block: list[str] = []
        body: Formula = f
        while (isinstance(body, Exists) and body.var not in vars
               and body.var not in block):
            block.append(body.var)
            body = body.body
        if block:
            new_vars, base = vars + tuple(block), len(vars)
        else:
            body, new_vars, block = f.body, vars, [f.var]
            base = vars.index(f.var)
        make = self._sink(body, new_vars, tuple(block))
        pad = (0,) * (len(new_vars) - len(vars))
        last = len(block) - 1
        spend = self.spend

        def check(rows):
            row_list = sorted(rows)
            add, undo, choices = make()
            kept = 0  # rows kept by the sink so far
            # one frame per block column of the row being chosen and of
            # each row kept before it
            env = [*row_list[0], *pad]
            frames = [(env, 0, choices(env, 0))]
            while frames:
                env, j, it = frames[-1]
                v = next(it, None)
                if v is None:
                    frames.pop()
                    if j == 0 and kept:
                        # the previous row goes on to its next value tuple
                        undo()
                        kept -= 1
                    continue
                env[base + j] = v
                if j < last:
                    frames.append((env, j + 1, choices(env, j + 1)))
                    continue
                spend(1, "existential extension")
                if add(env):
                    kept += 1
                    if kept == len(row_list):
                        return True
                    env = [*row_list[kept], *pad]
                    frames.append((env, 0, choices(env, 0)))
            return False
        return check


def satisfies(struct: Structure, team: Team, formula: Formula,
              budget: Budget | None = None) -> bool:
    """Does the team satisfy the formula in the structure (team semantics)?"""
    check_symbols(formula, struct.sig)
    missing = free_vars(formula) - set(team.vars)
    if missing:
        raise EvalError(f"team does not bind free variables {sorted(missing)}")
    for r in team.rows:
        if not all(0 <= v < struct.size for v in r):
            raise ShapeError(f"team row {list(r)!r} outside domain of size {struct.size}")
    return _TeamPlan(formula, team.vars, budget)(struct, team.rows)


def _sentence_plan(formula: Formula, budget: Budget | None
                   ) -> Callable[[Structure], bool]:
    """Compile a sentence once; the result decides it on any structure of
    the signature it was checked against."""
    plan = _TeamPlan(formula, (), budget)
    rows = Team.initial().rows
    return lambda struct: plan(struct, rows)


def sentence_truth(struct: Structure, formula: Formula,
                   budget: Budget | None = None) -> bool:
    """Truth of a sentence: satisfaction by the team of the empty assignment."""
    loose = free_vars(formula)
    if loose:
        raise EvalError(f"not a sentence: free variables {sorted(loose)}")
    return satisfies(struct, Team.initial(), formula, budget)
