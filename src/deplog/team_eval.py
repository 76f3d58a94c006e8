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

The search is exhaustive but takes verdict-preserving shortcuts: formulas
without dependence atoms are evaluated row by row (satisfaction of such
formulas only depends on the individual rows), by the classical evaluator
of eso_eval; and existential value choices are searched row by row
depth-first, abandoning a partial choice as soon as the partially extended
team already fails the body (a failing subteam cannot be part of a
satisfying extension). One search serves both kinds of existential: a block
of fresh variables appends a value tuple to each row, a rebinding
existential overwrites its column. This search and the split search below
keep their state on an explicit stack, one entry per row, so a long team
needs no deep Python recursion.

A disjunction split is searched the same way: the sorted rows are placed one
at a time, each on the left side first and then on the right, and a
placement is abandoned as soon as the side's partial subteam fails its
disjunct. Every formula here is downward closed (a team that satisfies it
passes that to all its subteams), so a failing partial side cannot grow
into a satisfying one, and a split into two disjoint subteams (a
two-colouring of the rows) exists whenever any covering pair of subteams
does. A false team is thus refuted without trying all 2^m colourings:
phi1 = =(x,y) | =(u,v) on all 81 rows over a domain of 3 takes 444
placements.

A conjunction of dependence-free formulas and positive dependence atoms (the
shape of the normal form "prefix ∃ȳ (=(z̄1,y1) ∧ ... ∧ matrix)" that
translations produce, and of each side of phi1) is checked one new row at a
time, both under a block of fresh existentials and on a side of a split,
instead of re-evaluating it on the whole partial team. This is sound because
dependence-free formulas are flat (a team satisfies one iff each row does),
and a dependence atom is a condition on pairs of rows (a team satisfies it
iff no two rows agree on the determinant and differ on the value), so the
new row is checked against one determinant->value table per atom, filled as
rows are added and undone on backtracking, and against the dependence-free
conjuncts alone. Under a block of fresh existentials the row's values are
chosen one variable at a time, in lexicographic order: an atom =(t̄,y) whose
t̄ uses only team columns and variables chosen before y fixes y once the
row's value of t̄ is in its table, so y is tried with that value only (any
other fails the atom), and with none when two such atoms disagree; on the
translation of even_R over its 18 structures of size <= 2 this cuts the value
tuples tried from 818,210 to 59,781. The search prunes exactly where the
whole-team check would, in the same order, so verdicts are unchanged. Any
other formula (a negated atom, an atom under a disjunction or a quantifier)
evaluates the whole partial team, and any existential rebinding a variable
takes that path too.

All of this is planned once per formula and root variables (_TeamPlan):
every subformula's variables, and so each variable's column, follow from
the root's and the quantifiers above it. The plan holds per subformula its
dependence-free flag, the compiled row predicate of a dependence-free one,
the compiled determinant and value terms of each atom, and each local
split with the atoms that fix each existential. Deciding a team in another
structure then rebinds the structure's symbols and walks no syntax.
equiv_check builds one plan per sentence and runs it on every structure.
"""

from __future__ import annotations

import itertools
from typing import Callable

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
# a compiled _local_split: the row adder, the determinant key of each atom,
# and per existential of the block the indices of the atoms that fix it
_Local = tuple[Callable, list[Callable], list[list[int]]]


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

    def _local_split(self, body: Formula, vars: tuple[str, ...],
                     block: tuple[str, ...]) -> _Local | None:
        """Split a formula into dependence-free conjuncts and non-empty
        positive dependence atoms, over rows of ``vars`` whose last
        len(block) columns are the existentials being chosen, in order.
        Compile them into a row adder (see _add_row) and list for each
        variable of block the atoms that fix it: those whose value term is
        the variable and whose determinant has no variable of block from
        it on. None if some conjunct is neither (a negated atom, or an atom
        under | or a quantifier)."""
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
                return None
        fixers: list[list[int]] = [[] for _ in block]
        for a, g in enumerate(atoms):
            dep = g.terms[-1]
            if isinstance(dep, Var) and dep.name in block:
                j = block.index(dep.name)
                later = set(block[j:])
                if not any(term_vars(t) & later for t in g.terms[:-1]):
                    fixers[j].append(a)
        scope = self._scope(vars)
        keys = [_compile_terms(g.terms[:-1], scope, self.syms) for g in atoms]
        values = [_compile_term(g.terms[-1], scope, self.syms) for g in atoms]
        row_oks = [_compile_fo(g, vars, self.syms, self.budget, "row evaluation")
                   for g in free]
        return self._add_row(list(zip(keys, values)), row_oks), keys, fixers

    def _add_row(self, atoms: list[tuple[Callable, Callable]],
                 row_oks: list[Callable]) -> Callable:
        """A closure checking a new row (a tuple or list of values) against
        one determinant->value table per atom, then against the
        dependence-free conjuncts. On success the tables hold the row and
        the entries it added are returned, to be undone on backtracking; on
        failure the tables are left as they were and None is returned."""
        spend = self.spend
        m = len(atoms)

        def add_row(tables: list[dict], env) -> list | None:
            if m:
                spend(m, "dependence atom")
            added: list[tuple[dict, tuple[int, ...]]] = []
            for (key, value), table in zip(atoms, tables):
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
                    return added
            for table, k in added:
                del table[k]
            return None
        return add_row

    # -- team evaluation ------------------------------------------------------

    def _or(self, f: Or, vars: tuple[str, ...]) -> _Node:
        # per side: its row adder and atom count if it is local, else its node
        sides = []
        for g in (f.left, f.right):
            split = self._local_split(g, vars, ())
            if split is None:
                sides.append((self._node(g, vars), None, 0))
            else:
                sides.append((None, split[0], len(split[1])))
        spend = self.spend

        def check(rows):
            row_list = sorted(rows)
            # per side: node, row adder, one table per atom, rows placed
            state = [(node, add_row, [{} for _ in range(m)], [])
                     for node, add_row, m in sides]
            # (side, table entries added) per row placed so far
            placed: list[tuple[int, list]] = []
            i = side = 0  # the next row, and the side to try it on
            while True:
                node, add_row, tables, acc = state[side]
                row = row_list[i]
                spend(1, "disjunction split")
                acc.append(row)
                if add_row is None:
                    # no table entries to undo on this side
                    added = [] if node(frozenset(acc)) else None
                else:
                    added = add_row(tables, row)
                if added is not None:
                    i += 1
                    if i == len(row_list):
                        return True
                    placed.append((side, added))
                    side = 0
                    continue
                acc.pop()
                while side == 1:
                    # neither side takes row i: move the last placed row on
                    if not placed:
                        return False
                    side, added = placed.pop()
                    for table, key in added:
                        del table[key]
                    state[side][3].pop()
                    i -= 1
                side += 1
        return check

    def _forall(self, f: Forall, vars: tuple[str, ...]) -> _Node:
        spend, values = self.spend, self.syms.values
        if f.var in vars:
            i = vars.index(f.var)
            body = self._node(f.body, vars)

            def check(rows):
                n = values[0]
                spend(len(rows) * n, "universal extension")
                return body(frozenset(r[:i] + (a,) + r[i + 1:]
                                      for r in rows for a in range(n)))
        else:
            body = self._node(f.body, vars + (f.var,))

            def check(rows):
                n = values[0]
                spend(len(rows) * n, "universal extension")
                return body(frozenset(r + (a,) for r in rows for a in range(n)))
        return check

    def _exists(self, f: Exists, vars: tuple[str, ...]) -> _Node:
        # maximal run of existentials over fresh distinct variables is
        # extended jointly (each row independently picks a value tuple)
        block: list[str] = []
        body: Formula = f
        while (isinstance(body, Exists) and body.var not in vars
               and body.var not in block):
            block.append(body.var)
            body = body.body
        values = self.syms.values
        if block:
            new_vars = vars + tuple(block)
            split = self._local_split(body, new_vars, tuple(block))
            if split is not None:
                return self._extend_locally(*split, len(vars))
            k = len(block)

            def extensions(row_list, n):
                choices = list(itertools.product(range(n), repeat=k))
                return [[r + t for t in choices] for r in row_list]
        else:
            # rebinding an existing variable: overwrite its column
            body, new_vars = f.body, vars
            i = vars.index(f.var)

            def extensions(row_list, n):
                return [[r[:i] + (a,) + r[i + 1:] for a in range(n)]
                        for r in row_list]
        body_ok = self._node(body, new_vars)
        spend = self.spend

        def check(rows):
            exts = extensions(sorted(rows), values[0])
            # rows that a rebinding maps to the same values repeat in acc;
            # the frozenset of acc merges them. One iterator per row of acc
            # and one for the row being chosen.
            acc: list[tuple[int, ...]] = []
            its = [iter(exts[0])]
            while its:
                row = next(its[-1], None)
                if row is None:
                    its.pop()
                    if acc:
                        acc.pop()
                    continue
                spend(1, "existential extension")
                acc.append(row)
                if not body_ok(frozenset(acc)):
                    acc.pop()
                elif len(acc) == len(exts):
                    return True
                else:
                    its.append(iter(exts[len(acc)]))
            return False
        return check

    def _extend_locally(self, add_row: Callable, keys: list[Callable],
                        fixers: list[list[int]], nbase: int) -> _Node:
        """Choose values for the last len(fixers) columns, row after row,
        depth-first in lexicographic order. A column that an atom's table
        already fixes for the row's earlier columns takes only that value
        (any other would fail the atom), and none if two atoms disagree."""
        k = len(fixers)
        # per block column: (atom index, determinant key) of its fixers
        fixing = [[(a, keys[a]) for a in fix] for fix in fixers]
        pad = (0,) * k
        spend, values_ = self.spend, self.syms.values

        def check(rows):
            row_list = sorted(rows)
            n = values_[0]
            # one determinant->value table per atom, for the rows chosen so far
            tables: list[dict] = [{} for _ in keys]

            def values(env: list[int], j: int):
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

            # table entries added by each row chosen so far; one frame per
            # block column of the row being chosen and of each row before it
            undo: list[list] = []
            env = [*row_list[0], *pad]
            frames = [(env, 0, values(env, 0))]
            while frames:
                env, j, it = frames[-1]
                v = next(it, None)
                if v is None:
                    frames.pop()
                    if j == 0 and undo:
                        # the previous row goes on to its next value tuple
                        for table, key in undo.pop():
                            del table[key]
                    continue
                env[nbase + j] = v
                if j + 1 < k:
                    frames.append((env, j + 1, values(env, j + 1)))
                    continue
                spend(1, "existential extension")
                added = add_row(tables, env)
                if added is not None:
                    if len(undo) + 1 == len(row_list):
                        return True
                    undo.append(added)
                    env = [*row_list[len(undo)], *pad]
                    frames.append((env, 0, values(env, 0)))
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
