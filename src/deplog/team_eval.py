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
of fo_eval. Any other formula is decided by one depth-first search that
pushes each row of the team down the formula: a universal extends the row
by every domain value, a conjunction sends it to every conjunct, and the
two choice points send it on one way of several: a disjunction to one
side, a run of existentials extended by one value tuple. A check takes the
row or refuses it, and a refusal undoes the latest choice it depends on
that has an option left (below). The team a subformula gets is the rows
that reach it. Every formula here is downward closed (a team that
satisfies it passes that to all its subteams), so choosing one side or
one value tuple per row, with equal rows free to choose apart, decides as
the team definitions do (J. Väänänen, Dependence Logic, 2007; P.
Galliani, APAL 163(1), 2012), and a partial choice that a check refuses
cannot grow into a satisfying one.

A check covers a conjunction's dependence-free conjuncts and positive
dependence atoms, and looks at the new row alone: dependence-free formulas
are flat (a team satisfies one iff each row does), and a dependence atom
is a condition on pairs of rows (a team satisfies it iff no two rows agree
on the determinant and differ on the value), so the row is checked against
one determinant->value table per atom. The entries a check adds go on one
trail, and undoing a choice pops them back to where the choice found
them. A negated dependence atom is a check that refuses every row; =() is
dropped. An existential's options force values: an atom =(t̄,y) of its
body whose t̄ uses only columns before y's fixes y once the row's value of
t̄ is in its table, so y is tried with that value only (any other fails
the atom), and with none when two such atoms disagree. On the translation
of even_R over its 18 structures of size <= 2 this cuts the value tuples
tried from 818,210 to 59,781.

The search works through rows depth-first on an explicit stack and queues
the choice points they reach. It takes a choice only when no other work is
left, the most recent first: a row's own choices are made before the next
row's, and a universal's extensions are never redone on backtracking. The
queue is a persistent linked list, so a choice taken saves the queue, the
trail length and its remaining options in constant time. Rows are handled
in sorted order, sides left before right and value tuples in
lexicographic order. The rows a check holds depend only on the choices
made at the choice points above it, so a refusal goes back to the latest
choice taken at one of those and drops the choices taken since, which
lie beside its path (conflict-directed backjumping: P. Prosser,
Computational Intelligence 9(3), 1993). A choice point that runs out of
options goes back the same way, by the choice points that all its
options' failures depended on. Going back to the latest choice instead
would retry every split of a conjunct beside a refused existential,
2^k tries for k rows. A split into two disjoint subteams (a two-colouring
of the rows) exists whenever any covering pair of subteams does, so a
false team is refuted without trying all 2^m colourings: phi1 = =(x,y) |
=(u,v) on all 81 rows over a domain of 3 takes 444 placements. No part of
the search recurses in Python, so a long team needs no deep recursion.

All of this is planned in one loop, once per formula and root variables
(_TeamPlan), so a deep formula needs no deep recursion either. Each
quantifier appends a column of its own to the rows that reach it (a
rebinding one too: its variable then names the newer column), so every
subformula's columns are fixed at compile time. The plan holds one node
per subformula: the row predicates and atom terms of each check (Python
functions of a row, which fo_eval writes) and the options of each choice
point. Deciding a team in another structure then rebinds the structure's
symbols and walks no syntax.
_plan is the one entry that builds a plan: it first checks the formula's
symbols against the signature and its free variables against the root
variables. A plan takes its budget when it runs, not when it is built,
and its compiled code spends through the symbol table's meter, which
each run rebinds, so one plan serves any number of calls, each charging its own
budget.
satisfies and sentence_truth take their plan from a small cache (at most
4, by formula identity, team variables and signature contents; an
entry is taken out for the run, so no plan is shared mid-run) and build
it only on a miss; equiv_check builds one per sentence and call and runs
it on every structure.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .budget import Budget, _budget_or, default_check_budget
from .errors import ShapeError
from .fo_eval import _PlanCache, _Symbols, _compile_fo, _compile_terms, _scope
from .structures import Structure, Team
from .syntax import (
    And, DepAtom, Exists, Forall, Formula, Or, Signature, Var, check_symbols,
    free_vars, iter_subformulas, term_vars,
)

__all__ = ["satisfies", "sentence_truth"]

_Row = tuple[int, ...]
# a compiled subformula, (kind, step, mask): a check's step takes or refuses
# a row, a conjunction's is its conjuncts' nodes, a universal's (a list) is
# its body's node, and a choice's is (options, bit, mask), options yielding a
# row's options in order, each a (node, row); mask has the bit of each
# choice point on the way from the root to the node, a choice's own too
_Node = tuple[int, object, int]
_CHECK, _AND, _ALL, _CHOICE = range(4)
# the rows of the team of the empty assignment, which decides a sentence
_ROOT: frozenset[_Row] = frozenset({()})


def _never(row: _Row) -> bool:
    return False


def _mark_dep_free(root: Formula) -> dict[int, bool]:
    """Whether root and each subformula is dependence-free, by id; the
    subformulas are visited children first, on an explicit stack."""
    flags: dict[int, bool] = {}
    for f in reversed(list(iter_subformulas(root))):
        if isinstance(f, DepAtom):
            free = False
        elif isinstance(f, (And, Or)):
            free = flags[id(f.left)] and flags[id(f.right)]
        elif isinstance(f, (Exists, Forall)):
            free = flags[id(f.body)]
        else:
            free = True
        flags[id(f)] = free
    return flags


class _TeamPlan:
    """A formula compiled once for teams over the given variables; calling
    the plan with a structure, a budget and a team's rows decides
    satisfaction, spending from that budget."""

    def __init__(self, root: Formula, vars: tuple[str, ...]):
        self.syms = _Symbols()
        # the table entries the checks added, in order: (table, key)
        self.trail: list[tuple[dict, tuple]] = []
        self.dep_free = _mark_dep_free(root)
        self.choices = 0  # choice points compiled so far
        self.root = self._compile(root, vars)

    def __call__(self, struct: Structure, budget: Budget | None = None,
                 rows: frozenset[_Row] = _ROOT) -> bool:
        budget = _budget_or(budget, default_check_budget)
        n = struct.size
        for r in rows:
            for v in r:
                if not 0 <= v < n:
                    raise ShapeError(f"team row {list(r)!r} outside domain of size {n}")
        if not rows:
            return True
        self.syms.bind(struct, budget)
        trail = self.trail
        if trail:  # what the last call left in the tables
            for table, k in trail:
                del table[k]
            trail.clear()
        kind, step, _ = self.root
        if kind == _CHECK:
            return all(map(step, rows))
        return self._search(rows)

    def _search(self, rows: frozenset[_Row]) -> bool:
        """Push the rows down the root node, making its choices."""
        trail, spend, n = self.trail, self.syms.meter[0], self.syms.values[0]
        work = [(self.root, row) for row in sorted(rows)]
        queue = None  # choice points not yet taken: (step, row, rest)
        # per choice taken: (queue, len(trail), options left, its bit, the
        # choice points that it and its failed options depend on)
        frames = []
        while True:
            while work:
                (kind, step, mask), row = work.pop()
                if kind == _CHECK:
                    if not step(row):
                        break
                elif kind == _AND:
                    work += [(node, row) for node in step]
                elif kind == _ALL:
                    spend(n, "universal extension")
                    work += [(step, row + (a,)) for a in range(n)]
                else:
                    queue = step, row, queue
            else:
                if queue is None:
                    return True
                (options, bit, mask), row, queue = queue
                options = options(row)
                item = next(options, None)
                if item is not None:
                    frames.append((queue, len(trail), options, bit, mask))
                    work.append(item)
                    continue
            # a check refused a row, or a choice had no option, and mask
            # names the choice points the failure depends on: go back to
            # the latest choice taken at one of them, dropping the choices
            # taken since (they lie beside the failure's path), and take
            # its next option; a choice with none left fails in turn, by
            # all that its options' failures depended on
            while frames:
                queue, mark, options, bit, seen = frames[-1]
                if bit & mask:
                    while len(trail) > mark:
                        table, k = trail.pop()
                        del table[k]
                    item = next(options, None)
                    mask |= seen
                    if item is not None:
                        if mask != seen:
                            frames[-1] = queue, mark, options, bit, mask
                        break
                frames.pop()
            else:
                return False
            work = [item]

    # -- compilation ----------------------------------------------------------
    # The search pops its work from a stack, so a node lists its successors
    # in order and they reach their choice points in reverse: the latest
    # queued, and so the first taken, is the first successor's.

    def _compile(self, f: Formula, vars: tuple[str, ...]) -> _Node:
        """f's node, built in one loop, depth first and left to right: a
        stack entry is a subformula, its columns, the mask of the choice
        points above it and the list and index its node goes to."""
        root: list = [None]
        todo = [(f, vars, 0, root, 0)]
        while todo:
            f, vars, above, place, i = todo.pop()
            if self.dep_free[id(f)]:
                ok = _compile_fo(f, vars, self.syms, "row evaluation")
                place[i] = _CHECK, ok, above
            elif isinstance(f, Forall):
                place[i] = node = [_ALL, None, above]
                todo.append((f.body, vars + (f.var,), above, node, 1))
            elif not isinstance(f, (Or, Exists)):
                place[i] = self._conjunction(f, vars, above, place, i, todo)[0]
            else:
                bit = 1 << self.choices
                self.choices += 1
                above |= bit
                options = (self._or if isinstance(f, Or) else self._exists)(
                    f, vars, above, todo)
                place[i] = _CHOICE, (options, bit, above), above
        return root[0]

    def _conjunction(self, f: Formula, vars: tuple[str, ...], above: int,
                     place: list, i: int, todo: list
                     ) -> tuple[_Node, list[tuple[DepAtom, Callable, dict]]]:
        """f's conjuncts as one node, one check for the dependence-free ones
        and the positive atoms and the others pushed (a lone one to fill
        place[i]); also each such atom, its compiled determinant and table."""
        free: list[Formula] = []
        atoms: list[DepAtom] = []
        others: list[Formula] = []
        stack = [f]
        while stack:
            g = stack.pop()
            if self.dep_free[id(g)]:
                free.append(g)
            elif isinstance(g, And):
                stack += (g.right, g.left)
            elif isinstance(g, DepAtom):
                if g.negated:
                    # only the empty team satisfies a negated atom, and so
                    # a conjunction with one
                    return (_CHECK, _never, above), []
                if g.terms:
                    atoms.append(g)
            else:
                others.append(g)
        tests = [(_compile_terms(g.terms[:-1], vars, self.syms),
                  _compile_terms(g.terms[-1:], vars, self.syms, True), {})
                 for g in atoms]
        row_oks = [_compile_fo(g, vars, self.syms, "row evaluation")
                   for g in free]
        nodes: list = [None] * len(others)
        if tests or row_oks or not others:
            # last, so that it runs before the other conjuncts
            nodes.append((_CHECK, self._check(tests, row_oks), above))
        if len(nodes) > 1:
            place, i = nodes, 0
        todo += reversed([(g, vars, above, place, i + j)
                          for j, g in enumerate(others)])
        node = nodes[0] if len(nodes) == 1 else (_AND, nodes, above)
        return node, [(g, key, table)
                      for g, (key, _, table) in zip(atoms, tests)]

    def _check(self, tests: list[tuple[Callable, Callable, dict]],
               row_oks: list[Callable]) -> Callable[[_Row], bool]:
        """Take a row if it agrees with every atom's table (adding the
        entries it is the first to fill) and satisfies every row
        predicate."""
        if not tests:
            if len(row_oks) == 1:
                return row_oks[0]
            return lambda row: all(ok(row) for ok in row_oks)
        meter, push, m = self.syms.meter, self.trail.append, len(tests)

        def check(row: _Row) -> bool:
            meter[0](m, "dependence atom")
            for key, value, table in tests:
                k = key(row)
                v = value(row)
                old = table.get(k)
                if old is None:
                    table[k] = v
                    push((table, k))
                elif old != v:
                    return False
            for ok in row_oks:
                if not ok(row):
                    return False
            return True
        return check

    def _or(self, f: Or, vars: tuple[str, ...], above: int, todo: list
            ) -> Callable[[_Row], Iterator[tuple[_Node, _Row]]]:
        sides: list = [None, None]  # their nodes, filled once made
        todo += (f.right, vars, above, sides, 1), (f.left, vars, above, sides, 0)
        meter = self.syms.meter

        def options(row: _Row) -> Iterator[tuple[_Node, _Row]]:
            meter[0](1, "disjunction split")
            yield sides[0], row
            meter[0](1, "disjunction split")
            yield sides[1], row
        return options

    def _exists(self, f: Exists, vars: tuple[str, ...], above: int,
                todo: list) -> Callable[[_Row], Iterator[tuple[_Node, _Row]]]:
        # a maximal run of existentials is chosen jointly, one column each
        block: list[str] = []
        body: Formula = f
        while isinstance(body, Exists):
            block.append(body.var)
            body = body.body
        new_vars = vars + tuple(block)
        base = len(vars)
        slot: list = [None]  # the body's node, filled once it is made
        slot[0], atoms = self._conjunction(body, new_vars, above, slot, 0, todo)
        # per column of block: the tables and determinants of the atoms
        # whose value term is its variable and whose determinant reads only
        # earlier columns
        scope = _scope(new_vars)
        fixing: list[list[tuple[dict, Callable]]] = [[] for _ in block]
        for g, key, table in atoms:
            dep = g.terms[-1]
            if isinstance(dep, Var) and scope[dep.name] >= base:
                col = scope[dep.name]
                if all(scope[v] < col for t in g.terms[:-1]
                       for v in term_vars(t)):
                    fixing[col - base].append((table, key))
        meter, values = self.syms.meter, self.syms.values

        def choices(env: _Row, fix: list[tuple[dict, Callable]]
                    ) -> Iterator[int]:
            # the values worth trying in env's next column, which fix fixes
            forced = None
            for table, key in fix:
                if not table:
                    continue
                v = table.get(key(env))
                if v is None or v == forced:
                    continue
                if forced is not None:
                    return iter(())  # two atoms disagree
                forced = v
            return iter(range(values[0]) if forced is None else (forced,))

        last = len(block) - 1

        def options(row: _Row) -> Iterator[tuple[_Node, _Row]]:
            # one (prefix, column, values left) per column being tried
            spend, node = meter[0], slot[0]
            todo = [(row, 0, choices(row, fixing[0]))]
            while todo:
                env, j, it = todo.pop()
                if j == last:
                    for v in it:
                        spend(1, "existential extension")
                        yield node, env + (v,)
                    continue
                v = next(it, None)
                if v is not None:
                    todo.append((env, j, it))
                    env += (v,)
                    todo.append((env, j + 1, choices(env, fixing[j + 1])))
        return options


def _plan(formula: Formula, vars: tuple[str, ...], sig: Signature
          ) -> _TeamPlan:
    """The formula checked against the signature and the team variables
    (a sentence has none) and compiled once; the plan decides teams over
    those variables, the team of the empty assignment by default, in any
    structure of the signature, spending from the budget each run is
    given (the default check budget when None)."""
    check_symbols(formula, sig)
    loose = free_vars(formula) - set(vars)
    if loose:
        raise ShapeError(f"team does not bind free variables {sorted(loose)}"
                         if vars else
                         f"not a sentence: free variables {sorted(loose)}")
    return _TeamPlan(formula, vars)


# the plans of the one-shot entries below, reused from call to call
_PLANS = _PlanCache(_plan)


def satisfies(struct: Structure, team: Team, formula: Formula,
              budget: Budget | None = None) -> bool:
    """Does the team satisfy the formula in the structure (team semantics)?
    Spends from ``budget``, the default check budget when None."""
    return _PLANS.run(formula, team.vars, struct.sig, struct, budget, team.rows)


def sentence_truth(struct: Structure, formula: Formula,
                   budget: Budget | None = None) -> bool:
    """Truth of a sentence, satisfaction by the team of the empty assignment;
    spends from ``budget``, the default check budget when None."""
    return _PLANS.run(formula, (), struct.sig, struct, budget)
