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
existential overwrites its column. Results are memoized per subformula and
team.

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
conjuncts alone. The search prunes exactly where the whole-team check would,
in the same order, so verdicts are unchanged; partial teams on this path are
not memoized. Any other formula (a negated atom, an atom under a
disjunction or a quantifier) evaluates the whole partial team through the
memo, and any existential rebinding a variable takes that path too.
"""

from __future__ import annotations

import itertools

from .budget import Budget
from .errors import EvalError, ShapeError
from .eso_eval import _fo_eval
from .structures import Structure, Team, eval_term
from .syntax import (
    And, DepAtom, Exists, Forall, Formula, Or, Term, check_symbols,
    contains_dep_atom, free_vars, iter_subformulas,
)

__all__ = ["satisfies", "sentence_truth"]

# a positive dependence atom as its determinant terms and its value term
_Atom = tuple[tuple[Term, ...], Term]


class _TeamEvaluator:
    def __init__(self, struct: Structure, root: Formula, budget: Budget | None):
        self.struct = struct
        self.n = struct.size
        self.budget = budget
        self.root = root  # keeps subformula ids stable
        self.dep_free: dict[int, bool] = {}
        for sub in iter_subformulas(root):
            self.dep_free[id(sub)] = not contains_dep_atom(sub)
        self.memo: dict[tuple, bool] = {}
        # id of an existential body or a disjunct -> _local_split of it
        self.local: dict[int, tuple[list[Formula], list[_Atom]] | None] = {}

    def _spend(self, amount: int, context: str) -> None:
        if self.budget is not None:
            self.budget.spend(amount, context)

    # -- team evaluation ----------------------------------------------------

    def eval(self, f: Formula, vars: tuple[str, ...],
             rows: frozenset[tuple[int, ...]]) -> bool:
        if not rows:
            return True
        key = (id(f), vars, rows)
        hit = self.memo.get(key)
        if hit is None:
            hit = self._eval(f, vars, rows)
            self.memo[key] = hit
        return hit

    def _eval(self, f: Formula, vars: tuple[str, ...],
              rows: frozenset[tuple[int, ...]]) -> bool:
        if self.dep_free[id(f)]:
            return all(_fo_eval(self.struct, f, dict(zip(vars, row)), None,
                                self.budget, "row evaluation") for row in rows)
        if isinstance(f, DepAtom):
            return self._eval_dep(f, vars, rows)
        if isinstance(f, And):
            return self.eval(f.left, vars, rows) and self.eval(f.right, vars, rows)
        if isinstance(f, Or):
            return self._eval_or(f, vars, rows)
        if isinstance(f, Exists):
            return self._eval_exists(f, vars, rows)
        if isinstance(f, Forall):
            return self._eval_forall(f, vars, rows)
        raise EvalError(f"cannot evaluate {f!r}")

    def _eval_dep(self, f: DepAtom, vars: tuple[str, ...],
                  rows: frozenset[tuple[int, ...]]) -> bool:
        if f.negated:
            return False  # only the empty team satisfies a negated dependence atom
        if not f.terms:
            return True
        self._spend(len(rows), "dependence atom")
        determined: dict[tuple[int, ...], int] = {}
        for row in rows:
            env = dict(zip(vars, row))
            key = tuple(eval_term(self.struct, env, t) for t in f.terms[:-1])
            val = eval_term(self.struct, env, f.terms[-1])
            old = determined.setdefault(key, val)
            if old != val:
                return False
        return True

    def _eval_or(self, f: Or, vars: tuple[str, ...],
                 rows: frozenset[tuple[int, ...]]) -> bool:
        row_list = sorted(rows)
        # per side: disjunct, its _local_split, one table per atom, rows placed
        sides = []
        for g in (f.left, f.right):
            split = self._local_split(g)
            tables = None if split is None else [{} for _ in split[1]]
            sides.append((g, split, tables, []))

        def dfs(i: int) -> bool:
            if i == len(row_list):
                return True
            row = row_list[i]
            for g, split, tables, acc in sides:
                self._spend(1, "disjunction split")
                acc.append(row)
                if split is None:
                    # no table entries to undo on this side
                    added = [] if self.eval(g, vars, frozenset(acc)) else None
                else:
                    added = self._add_row(*split, tables, dict(zip(vars, row)))
                if added is not None:
                    if dfs(i + 1):
                        return True
                    for table, key in added:
                        del table[key]
                acc.pop()
            return False

        return dfs(0)

    def _eval_forall(self, f: Forall, vars: tuple[str, ...],
                     rows: frozenset[tuple[int, ...]]) -> bool:
        self._spend(len(rows) * self.n, "universal extension")
        if f.var in vars:
            i = vars.index(f.var)
            new_rows = frozenset(r[:i] + (a,) + r[i + 1:]
                                 for r in rows for a in range(self.n))
            return self.eval(f.body, vars, new_rows)
        new_rows = frozenset(r + (a,) for r in rows for a in range(self.n))
        return self.eval(f.body, vars + (f.var,), new_rows)

    def _local_split(self, body: Formula
                     ) -> tuple[list[Formula], list[_Atom]] | None:
        """Split a formula into dependence-free conjuncts and non-empty
        positive dependence atoms; None if some conjunct is neither (a
        negated atom, or an atom under | or a quantifier)."""
        key = id(body)
        if key not in self.local:
            free: list[Formula] = []
            atoms: list[_Atom] = []
            todo = [body]
            while todo:
                g = todo.pop()
                if self.dep_free[id(g)]:
                    free.append(g)
                elif isinstance(g, And):
                    todo += (g.right, g.left)
                elif isinstance(g, DepAtom) and not g.negated:
                    if g.terms:
                        atoms.append((g.terms[:-1], g.terms[-1]))
                else:
                    self.local[key] = None
                    break
            else:
                self.local[key] = (free, atoms)
        return self.local[key]

    def _add_row(self, free: list[Formula], atoms: list[_Atom],
                 tables: list[dict[tuple[int, ...], int]],
                 env: dict[str, int]) -> list | None:
        """Check a new row against one determinant->value table per atom,
        then against the dependence-free conjuncts. On success the tables
        hold the row and the entries it added are returned, to be undone on
        backtracking; on failure the tables are left as they were."""
        self._spend(len(atoms), "dependence atom")
        added: list[tuple[dict, tuple[int, ...]]] = []
        for (det, dep), table in zip(atoms, tables):
            key = tuple([eval_term(self.struct, env, s) for s in det])
            val = eval_term(self.struct, env, dep)
            old = table.get(key)
            if old is None:
                table[key] = val
                added.append((table, key))
            elif old != val:
                break
        else:
            if all(_fo_eval(self.struct, g, env, None, self.budget,
                            "row evaluation") for g in free):
                return added
        for table, key in added:
            del table[key]
        return None

    def _extend_locally(self, free: list[Formula], atoms: list[_Atom],
                        vars: tuple[str, ...], row_list: list[tuple[int, ...]],
                        choices: list[tuple[int, ...]]) -> bool:
        # one determinant->value table per atom, for the rows chosen so far
        tables: list[dict[tuple[int, ...], int]] = [{} for _ in atoms]

        def dfs(i: int) -> bool:
            if i == len(row_list):
                return True
            for t in choices:
                self._spend(1, "existential extension")
                added = self._add_row(free, atoms, tables,
                                      dict(zip(vars, row_list[i] + t)))
                if added is not None:
                    if dfs(i + 1):
                        return True
                    for table, key in added:
                        del table[key]
            return False

        return dfs(0)

    def _eval_exists(self, f: Exists, vars: tuple[str, ...],
                     rows: frozenset[tuple[int, ...]]) -> bool:
        # maximal run of existentials over fresh distinct variables is
        # extended jointly (each row independently picks a value tuple)
        block: list[str] = []
        body: Formula = f
        while (isinstance(body, Exists) and body.var not in vars
               and body.var not in block):
            block.append(body.var)
            body = body.body
        row_list = sorted(rows)
        if block:
            new_vars = vars + tuple(block)
            choices = list(itertools.product(range(self.n), repeat=len(block)))
            split = self._local_split(body)
            if split is not None:
                return self._extend_locally(*split, new_vars, row_list, choices)
            extensions = [[r + t for t in choices] for r in row_list]
        else:
            # rebinding an existing variable: overwrite its column
            body, new_vars = f.body, vars
            i = vars.index(f.var)
            extensions = [[r[:i] + (a,) + r[i + 1:] for a in range(self.n)]
                          for r in row_list]
        # rows that a rebinding maps to the same values repeat in acc; the
        # frozenset of acc merges them
        acc: list[tuple[int, ...]] = []

        def dfs(j: int) -> bool:
            if j == len(extensions):
                return True
            for row in extensions[j]:
                self._spend(1, "existential extension")
                acc.append(row)
                if self.eval(body, new_vars, frozenset(acc)) and dfs(j + 1):
                    return True
                acc.pop()
            return False

        return dfs(0)


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
    ev = _TeamEvaluator(struct, formula, budget)
    return ev.eval(formula, team.vars, team.rows)


def sentence_truth(struct: Structure, formula: Formula,
                   budget: Budget | None = None) -> bool:
    """Truth of a sentence: satisfaction by the team of the empty assignment."""
    loose = free_vars(formula)
    if loose:
        raise EvalError(f"not a sentence: free variables {sorted(loose)}")
    return satisfies(struct, Team.initial(), formula, budget)
