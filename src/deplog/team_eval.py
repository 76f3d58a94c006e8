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
team. This search and the split search below keep their state on an explicit
stack, one entry per row, so a long team needs no deep Python recursion.

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
whole-team check would, in the same order, so verdicts are unchanged; partial
teams on this path are not memoized. Any other formula (a negated atom, an
atom under a disjunction or a quantifier) evaluates the whole partial team
through the memo, and any existential rebinding a variable takes that path
too.
"""

from __future__ import annotations

import itertools

from .budget import Budget
from .errors import EvalError, ShapeError
from .eso_eval import _fo_eval
from .structures import Structure, Team, eval_term
from .syntax import (
    And, DepAtom, Exists, Forall, Formula, Or, Term, Var, check_symbols,
    contains_dep_atom, free_vars, iter_subformulas, term_vars,
)

__all__ = ["satisfies", "sentence_truth"]

# a positive dependence atom as its determinant terms and its value term
_Atom = tuple[tuple[Term, ...], Term]
# a _local_split: dependence-free conjuncts, atoms, and per existential of
# the block the indices of the atoms that fix it
_Local = tuple[list[Formula], list[_Atom], list[list[int]]]


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
        # (id, block) of an existential body or a disjunct -> _local_split
        self.local: dict[tuple[int, tuple[str, ...]], _Local | None] = {}

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
        # per side: disjunct, its conjuncts and atoms if it is local (else
        # None), one table per atom, rows placed
        sides = []
        for g in (f.left, f.right):
            split = self._local_split(g, ())
            tables = None if split is None else [{} for _ in split[1]]
            sides.append((g, split and split[:2], tables, []))
        # (side, table entries added) per row placed so far
        placed: list[tuple[int, list]] = []
        i = side = 0  # the next row, and the side to try it on
        while True:
            g, split, tables, acc = sides[side]
            row = row_list[i]
            self._spend(1, "disjunction split")
            acc.append(row)
            if split is None:
                # no table entries to undo on this side
                added = [] if self.eval(g, vars, frozenset(acc)) else None
            else:
                added = self._add_row(*split, tables, dict(zip(vars, row)))
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
                sides[side][3].pop()
                i -= 1
            side += 1

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

    def _local_split(self, body: Formula, block: tuple[str, ...]
                     ) -> _Local | None:
        """Split a formula into dependence-free conjuncts and non-empty
        positive dependence atoms, and list for each variable of block (the
        existentials chosen, in order, after the team's columns) the atoms
        that fix it: those whose value term is the variable and whose
        determinant has no variable of block from it on. None if some
        conjunct is neither (a negated atom, or an atom under | or a
        quantifier)."""
        key = (id(body), block)
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
                fixers: list[list[int]] = [[] for _ in block]
                for a, (det, dep) in enumerate(atoms):
                    if isinstance(dep, Var) and dep.name in block:
                        j = block.index(dep.name)
                        later = set(block[j:])
                        if not any(term_vars(t) & later for t in det):
                            fixers[j].append(a)
                self.local[key] = (free, atoms, fixers)
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
                        fixers: list[list[int]], vars: tuple[str, ...],
                        row_list: list[tuple[int, ...]]) -> bool:
        """Choose values for the last len(fixers) columns of vars, row after
        row, depth-first in lexicographic order. A column that an atom's
        table already fixes for the row's earlier columns takes only that
        value (any other would fail the atom), and none if two atoms
        disagree."""
        struct, n, k = self.struct, self.n, len(fixers)
        base, block = vars[:-k], vars[-k:]
        # one determinant->value table per atom, for the rows chosen so far
        tables: list[dict[tuple[int, ...], int]] = [{} for _ in atoms]

        def values(env: dict[str, int], j: int):
            forced = None
            for a in fixers[j]:
                table = tables[a]
                if not table:
                    continue
                v = table.get(tuple([eval_term(struct, env, s)
                                     for s in atoms[a][0]]))
                if v is None or v == forced:
                    continue
                if forced is not None:
                    return iter(())  # two atoms disagree
                forced = v
            return iter(range(n) if forced is None else (forced,))

        # table entries added by each row chosen so far; one frame per block
        # column of the row being chosen and of each row before it
        undo: list[list] = []
        env = dict(zip(base, row_list[0]))
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
            env[block[j]] = v
            if j + 1 < k:
                frames.append((env, j + 1, values(env, j + 1)))
                continue
            self._spend(1, "existential extension")
            added = self._add_row(free, atoms, tables, env)
            if added is not None:
                if len(undo) + 1 == len(row_list):
                    return True
                undo.append(added)
                env = dict(zip(base, row_list[len(undo)]))
                frames.append((env, 0, values(env, 0)))
        return False

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
            split = self._local_split(body, tuple(block))
            if split is not None:
                return self._extend_locally(*split, new_vars, row_list)
            choices = list(itertools.product(range(self.n), repeat=len(block)))
            extensions = [[r + t for t in choices] for r in row_list]
        else:
            # rebinding an existing variable: overwrite its column
            body, new_vars = f.body, vars
            i = vars.index(f.var)
            extensions = [[r[:i] + (a,) + r[i + 1:] for a in range(self.n)]
                          for r in row_list]
        # rows that a rebinding maps to the same values repeat in acc; the
        # frozenset of acc merges them. One iterator per row of acc and one
        # for the row being chosen.
        acc: list[tuple[int, ...]] = []
        its = [iter(extensions[0])]
        while its:
            row = next(its[-1], None)
            if row is None:
                its.pop()
                if acc:
                    acc.pop()
                continue
            self._spend(1, "existential extension")
            acc.append(row)
            if not self.eval(body, new_vars, frozenset(acc)):
                acc.pop()
            elif len(acc) == len(extensions):
                return True
            else:
                its.append(iter(extensions[len(acc)]))
        return False


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
