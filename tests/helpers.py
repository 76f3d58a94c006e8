"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the semantic definitions,
with different data layouts and search orders than the package code:

* oracle_satisfies searches disjunctions over ALL covering pairs
  (left/right/both per row, 3^|team| covers) and existentials over all
  value-choice functions, with no shortcuts. Its one economy is a memo
  that lives for one top-level call: a subformula (by identity) on the
  same variables and rows is decided once, however many covers or
  choice functions reach it.
* oracle_fo / oracle_eso evaluate function sentences with dict-based
  tables keyed by argument tuple, enumerated per sorted argument order.
  Every term, in every oracle, is evaluated by _oracle_term.
* count_structures, enumerate_teams and restrict are the tests' own
  reference counts and team builders.
* is_class_leader permutes a structure's domain every possible way and
  keeps the smallest code, by dict-keyed tables.

Expected values in the test files marked as frozen were computed with
these oracles and then written down as literals; the tests assert both
the frozen value and live oracle agreement.
"""
from __future__ import annotations

import itertools

from deplog.structures import Structure, Team
from deplog.syntax import (
    And, App, Bool, Const, DepAtom, Equal, EsoSentence, Exists, Forall,
    Formula, Or, RelAtom, Var,
)


# ---------------------------------------------------------------------------
# Team-semantics oracle (full-cover disjunction, full function search)
# ---------------------------------------------------------------------------

def _row_env(vars: tuple[str, ...], row: tuple[int, ...]) -> dict[str, int]:
    return dict(zip(vars, row))


def oracle_satisfies(struct: Structure, vars, rows, f: Formula) -> bool:
    """Team satisfaction straight from the definition, no shortcuts."""
    # made per call, so every subformula whose id is a key outlives it
    memo: dict[tuple, bool] = {}

    def sat(vars, rows, g: Formula) -> bool:
        key = id(g), vars, rows
        if key not in memo:
            memo[key] = _oracle_team(struct, vars, rows, g, sat)
        return memo[key]
    return sat(tuple(vars), frozenset(tuple(r) for r in rows), f)


def _oracle_team(struct: Structure, vars: tuple[str, ...],
                 rows: frozenset, f: Formula, sat) -> bool:
    """One step of the definition; sat decides the subformulas."""
    if not rows:
        return True
    if isinstance(f, (RelAtom, Equal, Bool)):
        return all(oracle_fo(struct, _row_env(vars, r), f) for r in rows)
    if isinstance(f, DepAtom):
        if f.negated:
            return False
        if not f.terms:
            return True
        seen: dict[tuple[int, ...], int] = {}
        for r in rows:
            env = _row_env(vars, r)
            key = tuple(_oracle_term(struct, env, t, {}) for t in f.terms[:-1])
            val = _oracle_term(struct, env, f.terms[-1], {})
            if seen.setdefault(key, val) != val:
                return False
        return True
    if isinstance(f, And):
        return sat(vars, rows, f.left) and sat(vars, rows, f.right)
    if isinstance(f, Or):
        row_list = sorted(rows)
        # every cover: each row goes left, right, or both
        for sides in itertools.product((0, 1, 2), repeat=len(row_list)):
            left = frozenset(r for r, s in zip(row_list, sides) if s != 1)
            right = frozenset(r for r, s in zip(row_list, sides) if s != 0)
            if sat(vars, left, f.left) and sat(vars, right, f.right):
                return True
        return False
    if isinstance(f, Exists):
        n = struct.size
        row_list = sorted(rows)
        if f.var in vars:
            i = vars.index(f.var)
            for choice in itertools.product(range(n), repeat=len(row_list)):
                new_rows = frozenset(r[:i] + (a,) + r[i + 1:]
                                     for r, a in zip(row_list, choice))
                if sat(vars, new_rows, f.body):
                    return True
            return False
        for choice in itertools.product(range(n), repeat=len(row_list)):
            new_rows = frozenset(r + (a,) for r, a in zip(row_list, choice))
            if sat(vars + (f.var,), new_rows, f.body):
                return True
        return False
    if isinstance(f, Forall):
        n = struct.size
        if f.var in vars:
            i = vars.index(f.var)
            new_rows = frozenset(r[:i] + (a,) + r[i + 1:]
                                 for r in rows for a in range(n))
            return sat(vars, new_rows, f.body)
        new_rows = frozenset(r + (a,) for r in rows for a in range(n))
        return sat(vars + (f.var,), new_rows, f.body)
    raise AssertionError(f"cannot evaluate {f!r}")


def oracle_sentence_truth(struct: Structure, f: Formula) -> bool:
    return oracle_satisfies(struct, (), frozenset({()}), f)


# ---------------------------------------------------------------------------
# Classical / function-sentence oracle (dict tables)
# ---------------------------------------------------------------------------

def _oracle_term(struct: Structure, env, t, tables) -> int:
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return struct.constants[t.name]
    if isinstance(t, App):
        args = tuple(_oracle_term(struct, env, a, tables) for a in t.args)
        if t.fn in tables:
            return tables[t.fn][args]
        idx = 0  # flat tables list argument tuples first-argument-major
        for a in args:
            idx = idx * struct.size + a
        return struct.functions[t.fn][idx]
    raise AssertionError(f"not a term: {t!r}")


def oracle_fo(struct: Structure, env: dict[str, int], f: Formula,
              tables: dict[str, dict[tuple[int, ...], int]] | None = None) -> bool:
    tables = tables or {}
    if isinstance(f, RelAtom):
        args = tuple(_oracle_term(struct, env, a, tables) for a in f.args)
        return (args in struct.relations[f.rel]) != f.negated
    if isinstance(f, Equal):
        same = (_oracle_term(struct, env, f.left, tables)
                == _oracle_term(struct, env, f.right, tables))
        return same != f.negated
    if isinstance(f, Bool):
        return f.value
    if isinstance(f, And):
        return (oracle_fo(struct, env, f.left, tables)
                and oracle_fo(struct, env, f.right, tables))
    if isinstance(f, Or):
        return (oracle_fo(struct, env, f.left, tables)
                or oracle_fo(struct, env, f.right, tables))
    if isinstance(f, Exists):
        return any(oracle_fo(struct, {**env, f.var: a}, f.body, tables)
                   for a in range(struct.size))
    if isinstance(f, Forall):
        return all(oracle_fo(struct, {**env, f.var: a}, f.body, tables)
                   for a in range(struct.size))
    raise AssertionError(f"cannot evaluate {f!r}")


def _all_tables(n: int, arity: int):
    points = list(itertools.product(range(n), repeat=arity))
    for values in itertools.product(range(n), repeat=len(points)):
        yield dict(zip(points, values))


def oracle_eso(struct: Structure, s: EsoSentence) -> bool:
    """Truth of a function sentence by brute force over dict tables."""
    n = struct.size

    def body(env, i):
        if i == len(s.prefix):
            return oracle_fo(struct, env, s.matrix, tables)
        kind, var = s.prefix[i]
        vals = range(n)
        if kind == "forall":
            return all(body({**env, var: a}, i + 1) for a in vals)
        return any(body({**env, var: a}, i + 1) for a in vals)

    tables: dict[str, dict[tuple[int, ...], int]] = {}

    def search(j):
        if j == len(s.functions):
            return body({}, 0)
        name, ar = s.functions[j]
        for tab in _all_tables(n, ar):
            tables[name] = tab
            if search(j + 1):
                return True
        tables.pop(name, None)
        return False

    return search(0)


def oracle_value(struct: Structure, sentence) -> bool:
    """Sentence truth by the matching oracle."""
    if isinstance(sentence, EsoSentence):
        return oracle_eso(struct, sentence)
    return oracle_sentence_truth(struct, sentence)


# ---------------------------------------------------------------------------
# Reference counts and team builders
# ---------------------------------------------------------------------------

def count_structures(sig, size: int) -> int:
    """Number of structures of the signature with the given domain size."""
    total = 1
    for ar in sig.relations.values():
        total *= 2 ** (size ** ar)
    for ar in sig.functions.values():
        total *= size ** (size ** ar)
    return total * size ** len(sig.constants)


def _canonical_code(struct: Structure, perm) -> tuple:
    """The code of the structure with its domain renamed by ``perm``:
    relation membership flags and function values per argument tuple in
    lexicographic order, then constant values, each symbol kind in
    sorted-name order.  Enumeration visits codes in increasing order."""
    sig, n = struct.sig, struct.size
    code = []
    for name in sorted(sig.relations):
        renamed = {tuple(perm[x] for x in t) for t in struct.relations[name]}
        code.append(tuple(args in renamed for args in
                          itertools.product(range(n), repeat=sig.relations[name])))
    for name in sorted(sig.functions):
        ar = sig.functions[name]
        table = dict(zip(itertools.product(range(n), repeat=ar),
                         struct.functions[name]))
        renamed = {tuple(perm[x] for x in args): perm[v] for args, v in table.items()}
        code.append(tuple(renamed[args] for args in
                          itertools.product(range(n), repeat=ar)))
    for name in sorted(sig.constants):
        code.append(perm[struct.constants[name]])
    return tuple(code)


def is_class_leader(struct: Structure) -> bool:
    """Whether the structure has the smallest code in its isomorphism class,
    i.e. comes first of the class in enumeration order."""
    own = _canonical_code(struct, range(struct.size))
    return own == min(_canonical_code(struct, p)
                      for p in itertools.permutations(range(struct.size)))


def enumerate_teams(var_names, size: int, max_rows: int | None = None):
    """All teams over the given variables, smallest first (empty team included)."""
    var_names = tuple(var_names)
    all_rows = list(itertools.product(range(size), repeat=len(var_names)))
    top = len(all_rows) if max_rows is None else min(max_rows, len(all_rows))
    for k in range(top + 1):
        for chosen in itertools.combinations(all_rows, k):
            yield Team(var_names, frozenset(chosen))


def restrict(team: Team, keep) -> Team:
    """Project a team onto some of its variables, in the order given; an
    unknown variable is a ValueError."""
    keep = tuple(keep)
    cols = [team.vars.index(v) for v in keep]
    return Team(keep, frozenset(tuple(r[c] for c in cols) for r in team.rows))
