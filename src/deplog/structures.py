"""Finite structures, teams of assignments, and their enumeration.

Domains are always {0, ..., n-1} with n >= 1. Function interpretations are
flat lookup tables in lexicographic argument order (first argument most
significant), so an a-ary function over domain size n is a tuple of n**a
values. Relations are frozensets of argument tuples.

``Structure(...)`` and ``structure_from_json_dict`` validate what they are
given; enumeration builds its structures without those checks, since it
only makes well-formed ones.  Enumeration visits structures in increasing
order of their code, one flat tuple: every relation's flag per argument
tuple, then every function's table, then every constant's value.  The
equivalence checker walks the same enumeration but builds only the first
structure of each isomorphism class: the one whose code no permutation of
the domain makes smaller (the lex-leader test of Crawford, Ginsberg, Luks
and Roy, KR 1996).  It takes that test only at a size where it pays: the
number of classes, counted by Burnside's lemma, times size! comparisons
must be small beside the evaluations it saves, and the size! images must
fit in the structure budget (size! is multiplied out only that far);
elsewhere every structure is built.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter, mul
from typing import Iterator

from .budget import Budget, _budget_or, default_structure_budget
from .errors import BudgetExceededError, ShapeError
from .syntax import Signature, _as_tuple, _check_count, _is_int, _json_object

__all__ = [
    "Structure", "Team", "enumerate_structures",
    "structure_to_json_dict", "structure_from_json_dict",
    "team_from_json_dict",
]


def _check_domain(size) -> None:
    if not _is_int(size) or size < 1:
        raise ShapeError(f"domain size must be a positive integer, got {size!r}")


@dataclass
class Structure:
    """A finite structure interpreting every symbol of its signature."""

    sig: Signature
    size: int
    relations: dict[str, frozenset[tuple[int, ...]]]
    functions: dict[str, tuple[int, ...]]
    constants: dict[str, int]

    def __post_init__(self):
        if not isinstance(self.sig, Signature):
            raise ShapeError(f"sig must be a Signature, got {self.sig!r}")
        _check_domain(self.size)
        n = self.size
        for kind, given, declared in (
                ("relation", self.relations, self.sig.relations),
                ("function", self.functions, self.sig.functions),
                ("constant", self.constants, self.sig.constants)):
            if not isinstance(given, dict):
                raise ShapeError(f"{kind} interpretations must be a dict, got {given!r}")
            if set(given) != set(declared):
                raise ShapeError(f"{kind} interpretations do not match the signature")
        normalized_rels = {}
        for name, tuples in self.relations.items():
            ar = self.sig.relations[name]
            ts = [_as_tuple(t, f"relation {name} tuple")
                  for t in _as_tuple(tuples, f"relation {name}")]
            for t in ts:  # before hashing, which a list value would fail
                if len(t) != ar or not all(_is_int(v) and 0 <= v < n for v in t):
                    raise ShapeError(f"bad tuple {t!r} for relation {name}/{ar}")
            normalized_rels[name] = frozenset(ts)
        self.relations = normalized_rels
        normalized_fns = {}
        for name, table in self.functions.items():
            ar = self.sig.functions[name]
            tb = _as_tuple(table, f"function {name} table")
            if len(tb) != n ** ar:
                raise ShapeError(
                    f"function {name}/{ar} needs a table of length {n ** ar}, got {len(tb)}")
            if not all(_is_int(v) and 0 <= v < n for v in tb):
                raise ShapeError(f"function {name} table has values outside the domain")
            normalized_fns[name] = tb
        self.functions = normalized_fns
        for name, val in self.constants.items():
            if not _is_int(val) or not 0 <= val < n:
                raise ShapeError(f"constant {name} value {val!r} outside the domain")


# ---------------------------------------------------------------------------
# Teams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Team:
    """A set of assignments over a common tuple of variables.

    Rows are value tuples aligned with ``vars``. The empty team (no rows)
    and the team of the empty assignment (no vars, one empty row) are both
    valid and distinct.
    """

    vars: tuple[str, ...]
    rows: frozenset[tuple[int, ...]]

    def __post_init__(self):
        object.__setattr__(self, "vars", _as_tuple(self.vars, "team variables"))
        for v in self.vars:  # before hashing, which a list would fail
            if not isinstance(v, str):
                raise ShapeError(f"team variable {v!r} is not a name")
        rows = [_as_tuple(r, "team row") for r in _as_tuple(self.rows, "team rows")]
        for r in rows:  # before hashing, which a list value would fail
            if not all(map(_is_int, r)):
                raise ShapeError(f"row {r!r} holds a value that is not an integer")
        object.__setattr__(self, "rows", frozenset(rows))
        if len(set(self.vars)) != len(self.vars):
            raise ShapeError("team variables must be distinct")
        width = len(self.vars)
        for r in self.rows:
            if len(r) != width:
                raise ShapeError(f"row {r!r} does not match team variables {self.vars!r}")


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

# An image comparison in the leader test costs about a twentieth of
# evaluating the cheapest pair of sentences (``c = c`` against itself) on
# a structure; the test is taken only where it spends at most this many
# per structure it skips.
_COMPARISONS_PER_SKIP = 8


def _structure(sig: Signature, size: int, relations: dict, functions: dict,
               constants: dict) -> Structure:
    """A Structure built without ``__post_init__``'s checks, for the
    interpretations enumeration makes itself (always well formed)."""
    struct = object.__new__(Structure)
    struct.sig, struct.size = sig, size
    struct.relations, struct.functions, struct.constants = relations, functions, constants
    return struct


def _getter(pos: list[int]):
    """The entries of a sequence at ``pos`` as a tuple (``itemgetter``
    returns one entry bare): leader-test images, compiled variable tuples."""
    if len(pos) > 1:
        return itemgetter(*pos)
    return (lambda v, j=pos[0]: (v[j],)) if pos else (lambda v: ())


def _leader_test(syms: list, size: int, tuples: dict):
    """A test of a structure's code (see ``_walk``; ``syms`` is the
    (kind, name, arity) list in enumeration order and ``tuples`` lists the
    argument tuples of each arity) that is true when no permutation of the
    domain maps the structure to a smaller code, i.e. to one enumerated
    earlier.  The image of a code under a permutation p takes each
    relation's flag at tuple t from the original's at p^-1(t), and each
    value (a function's at t, a constant's) from the original's at p^-1(t)
    renamed by p.  Flags come before values in the code, so an image is
    one getter for the flags and, where there are values, one for the
    values, which it renames by p."""
    index = {ar: {t: i for i, t in enumerate(ts)} for ar, ts in tuples.items()}
    images = []
    for p in itertools.islice(itertools.permutations(range(size)), 1, None):
        q = [0] * size
        for x, y in enumerate(p):
            q[y] = x
        flags, values, at = [], [], 0
        for kind, _, ar in syms:
            (flags if kind == "rel" else values).extend(
                at + index[ar][tuple(q[x] for x in t)] for t in tuples[ar])
            at += len(tuples[ar])
        moved = _getter(flags)
        images.append(moved if not values else
                      lambda c, f=moved, v=_getter(values), r=p.__getitem__:
                      f(c) + tuple(map(r, v(c))))

    def is_leader(code: tuple) -> bool:
        for image in images:
            if image(code) < code:
                return False
        return True

    return is_leader


def _class_count(syms: list, size: int) -> int:
    """The number of isomorphism classes of structures of ``syms`` at this
    size, by Burnside's lemma: the mean, over the permutations of the
    domain, of the structures each one fixes, summed once per cycle type.
    A permutation with m_d cycles of length d fixes a relation constant on
    each cycle of argument tuples, and a function (a constant is a nullary
    one) that maps each cycle of length l onto a domain cycle whose length
    divides l."""
    total = 0
    for lengths in _partitions(size, size):
        cycles = Counter(lengths)
        fixed = 1
        for kind, _, ar in syms:
            tuple_cycles = Counter({1: 1})
            for _ in range(ar):
                longer = Counter()
                for ln, c in tuple_cycles.items():
                    for d, m in cycles.items():
                        g = math.gcd(ln, d)
                        longer[ln * d // g] += c * m * g
                tuple_cycles = longer
            if kind == "rel":
                fixed *= 2 ** sum(tuple_cycles.values())
            else:
                fixed *= math.prod(
                    sum(d * m for d, m in cycles.items() if ln % d == 0) ** c
                    for ln, c in tuple_cycles.items())
        total += fixed * math.factorial(size) // math.prod(
            d ** m * math.factorial(m) for d, m in cycles.items())
    return total // math.factorial(size)


def _partitions(n: int, top: int) -> Iterator[list[int]]:
    """The partitions of n into parts of at most ``top``, largest first."""
    if n == 0:
        yield []
    for k in range(min(n, top), 0, -1):
        for rest in _partitions(n - k, k):
            yield [k, *rest]


def _leader_test_pays(syms: list, size: int, budget: Budget) -> bool:
    """Whether the leader test is worth building at this size.  It builds
    the size! - 1 permutation images up front, which must fit in what the
    structure budget has left, and compares each leader with all of them:
    it is taken only where those comparisons, about classes x size!, come
    to at most ``_COMPARISONS_PER_SKIP`` per structure it saves evaluating.
    Small signatures at large sizes, whose structures have many
    automorphisms and so fall into many small classes, fail this, and
    every structure is evaluated."""
    # size! only until it passes the room, which also bounds the count's size
    if size == 1 or any(map(budget.would_exceed,
                            itertools.accumulate(range(2, size + 1), mul))):
        return False
    perms = math.factorial(size)
    count = math.prod((2 if kind == "rel" else size) ** size ** ar
                      for kind, _, ar in syms)
    # a class at least, so at least size! comparisons
    if perms > _COMPARISONS_PER_SKIP * (count - 1):
        return False
    classes = _class_count(syms, size)
    return classes * perms <= _COMPARISONS_PER_SKIP * (count - classes)


def _symbols(sig: Signature) -> list[tuple[str, str, int]]:
    """The signature's symbols as (kind, name, arity) in enumeration order:
    relations, then functions, then constants, each by name."""
    return ([("rel", name, sig.relations[name]) for name in sorted(sig.relations)]
            + [("fn", name, sig.functions[name]) for name in sorted(sig.functions)]
            + [("const", name, 0) for name in sorted(sig.constants)])


def _walk(sig: Signature, size: int, budget: Budget,
          leaders_only: bool) -> Iterator[Structure | None]:
    """Every structure of the signature with domain {0..size-1}, in
    enumeration order, spending one budget unit each.  A structure's code
    is one flat tuple: each relation's flag per argument tuple, then each
    function's table, then each constant's value (a constant is a nullary
    table), symbols in ``_symbols`` order and argument tuples
    lexicographically.  The codes come from one product over per-position
    pools, the last position varying fastest, so they increase.  With
    ``leaders_only``, where the leader test pays (``_leader_test_pays``),
    a structure that is not the first of its isomorphism class comes out
    as None instead, and is never built.  A symbol with more argument
    tuples than the limit is refused before the first structure: its code
    alone is longer than the budget, and there are at least 2^tuples
    structures (``size ** ar`` is built with the exponent cut at the
    limit's bit length).  So is a size past the limit for a function or
    constant, whose values alone give at least ``size`` structures."""
    syms = _symbols(sig)
    bits = budget.limit.bit_length()
    if any(size ** min(ar, bits) > budget.limit for _, _, ar in syms):
        raise BudgetExceededError("structure enumeration",
                                  budget.spent + 2 ** bits, budget.limit)
    if size > budget.limit and any(kind != "rel" for kind, _, _ in syms):
        raise BudgetExceededError("structure enumeration",
                                  budget.spent + size, budget.limit)
    tuples = {ar: list(itertools.product(range(size), repeat=ar)) for _, _, ar in syms}
    is_leader = (_leader_test(syms, size, tuples)
                 if leaders_only and _leader_test_pays(syms, size, budget) else None)
    values = tuple(range(size))  # product copies a range per position, not a tuple
    pools, cuts = [], []
    for kind, name, ar in syms:
        width = len(tuples[ar])
        cuts.append((kind, name, tuples[ar], slice(len(pools), len(pools) + width)))
        pools += [(0, 1) if kind == "rel" else values] * width
    for code in itertools.product(*pools):
        budget.spend(1, "structure enumeration")
        if is_leader is not None and not is_leader(code):
            yield None
            continue
        rels, fns, consts = {}, {}, {}
        for kind, name, ts, cut in cuts:
            if kind == "rel":
                rels[name] = frozenset(itertools.compress(ts, code[cut]))
            elif kind == "fn":
                fns[name] = code[cut]
            else:
                consts[name] = code[cut.start]
        yield _structure(sig, size, rels, fns, consts)


def enumerate_structures(sig: Signature, size: int,
                         budget: Budget | None = None) -> Iterator[Structure]:
    """All structures with domain {0..size-1}, in a fixed deterministic order.

    Symbols are filled in sorted-name order (relations, then functions, then
    constants), the later symbols varying fastest; a relation runs through
    its flag per argument tuple and a function through its table, each
    lexicographically.  Spends one unit per structure from ``budget``, the
    default structure budget when None.
    """
    _check_count(size, "domain size")
    return _walk(sig, size, _budget_or(budget, default_structure_budget),
                 leaders_only=False)


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------

def structure_to_json_dict(struct: Structure) -> dict:
    return {
        "domain": struct.size,
        "relations": {name: sorted(list(t) for t in struct.relations[name])
                      for name in sorted(struct.relations)},
        "functions": {name: list(struct.functions[name])
                      for name in sorted(struct.functions)},
        "constants": {name: struct.constants[name]
                      for name in sorted(struct.constants)},
    }


def _int_rows(rows) -> bool:
    """Whether ``rows`` (a relation's tuples, a team's rows) is a list of
    lists of integers."""
    return isinstance(rows, list) and all(
        isinstance(r, list) and all(map(_is_int, r)) for r in rows)


def _json_structure(data) -> tuple[int, dict, dict, dict]:
    """A structure JSON object, shape-checked, as the arguments of
    ``Structure`` after its signature: the domain size and the relation,
    function and constant tables (absent means empty)."""
    _json_object(data, "structure", ("domain", "relations", "functions", "constants"))
    if "domain" not in data:
        raise ShapeError("structure JSON needs a 'domain' size")
    _check_domain(data["domain"])
    rels, fns, consts = (data.get(k, {}) for k in ("relations", "functions", "constants"))
    if not all(isinstance(t, dict) for t in (rels, fns, consts)):
        raise ShapeError("'relations', 'functions' and 'constants' must be objects")
    for name, tuples in rels.items():
        if not _int_rows(tuples):
            raise ShapeError(f"relation {name} must be a list of integer tuples")
    for name, table in fns.items():
        if not isinstance(table, list):
            raise ShapeError(f"function {name} must be a flat value table")
    return data["domain"], rels, fns, dict(consts)


def _table_signature(tables: tuple[int, dict, dict, dict], used: Signature) -> Signature:
    """Symbol roles from the ``_json_structure`` tables; arities from the
    tables where they fix them, else from ``used``, a formula's usage.  An
    empty relation, a table of a one-element domain or a table of no power
    of the size fixes none; a bad table then fails with its expected length
    when the Structure is built, as a used symbol the tables omit does."""
    size, rels_in, fns_in, consts = tables
    rels = {name: len(tuples[0]) if tuples else used.relations.get(name, 1)
            for name, tuples in rels_in.items()}
    fns = {}
    for name, table in fns_in.items():
        exact = [a for a in range(len(table).bit_length())
                 if size > 1 and size ** a == len(table)]
        fns[name] = exact[0] if exact else used.functions.get(name, 1)
    for mine, theirs in ((rels, used.relations), (fns, used.functions)):
        for name, ar in theirs.items():
            mine.setdefault(name, ar)
    return Signature(rels, fns, consts)


def structure_from_json_dict(data, sig: Signature) -> Structure:
    return Structure(sig, *_json_structure(data))


def team_from_json_dict(data) -> Team:
    _json_object(data, "team", ("vars", "rows"))
    vars_in = data.get("vars")
    rows_in = data.get("rows")
    if not isinstance(vars_in, list) or not all(isinstance(v, str) for v in vars_in):
        raise ShapeError("'vars' must be a list of variable names")
    if not _int_rows(rows_in):
        raise ShapeError("'rows' must be a list of integer rows")
    return Team(vars_in, rows_in)
