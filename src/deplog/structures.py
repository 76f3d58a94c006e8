"""Finite structures, teams of assignments, and their enumeration.

Domains are always {0, ..., n-1} with n >= 1. Function interpretations are
flat lookup tables in lexicographic argument order (first argument most
significant), so an a-ary function over domain size n is a tuple of n**a
values. Relations are frozensets of argument tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .budget import Budget
from .errors import ShapeError
from .syntax import Signature

__all__ = [
    "Structure", "Team", "enumerate_structures",
    "structure_to_json_dict", "structure_from_json_dict",
    "team_to_json_dict", "team_from_json_dict",
]


def _is_int(v) -> bool:
    """An int that is not a bool (JSON true and false load as bools, which
    Python counts as ints)."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass
class Structure:
    """A finite structure interpreting every symbol of its signature."""

    sig: Signature
    size: int
    relations: dict[str, frozenset[tuple[int, ...]]]
    functions: dict[str, tuple[int, ...]]
    constants: dict[str, int]

    def __post_init__(self):
        if not _is_int(self.size) or self.size < 1:
            raise ShapeError(f"domain size must be a positive integer, got {self.size!r}")
        n = self.size
        if set(self.relations) != set(self.sig.relations):
            raise ShapeError("relation interpretations do not match the signature")
        if set(self.functions) != set(self.sig.functions):
            raise ShapeError("function interpretations do not match the signature")
        if set(self.constants) != set(self.sig.constants):
            raise ShapeError("constant interpretations do not match the signature")
        normalized_rels = {}
        for name, tuples in self.relations.items():
            ar = self.sig.relations[name]
            fs = frozenset(tuple(t) for t in tuples)
            for t in fs:
                if len(t) != ar or not all(_is_int(v) and 0 <= v < n for v in t):
                    raise ShapeError(f"bad tuple {t!r} for relation {name}/{ar}")
            normalized_rels[name] = fs
        self.relations = normalized_rels
        normalized_fns = {}
        for name, table in self.functions.items():
            ar = self.sig.functions[name]
            tb = tuple(table)
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
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "rows", frozenset(tuple(r) for r in self.rows))
        if len(set(self.vars)) != len(self.vars):
            raise ShapeError("team variables must be distinct")
        width = len(self.vars)
        for r in self.rows:
            if len(r) != width:
                raise ShapeError(f"row {r!r} does not match team variables {self.vars!r}")

    def __len__(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _rel_options(size: int, arity: int) -> Iterator[frozenset[tuple[int, ...]]]:
    tuples = list(itertools.product(range(size), repeat=arity))
    for flags in itertools.product((0, 1), repeat=len(tuples)):
        yield frozenset(t for t, f in zip(tuples, flags) if f)


def enumerate_structures(sig: Signature, size: int,
                         budget: Budget | None = None) -> Iterator[Structure]:
    """All structures with domain {0..size-1}, in a fixed deterministic order.

    Symbols are filled in sorted-name order (relations, then functions, then
    constants), the later symbols varying fastest. Spends one budget unit
    per structure.
    """
    if size < 1:
        raise ShapeError("domain size must be at least 1")
    syms = ([("rel", name) for name in sorted(sig.relations)]
            + [("fn", name) for name in sorted(sig.functions)]
            + [("const", name) for name in sorted(sig.constants)])

    def rec(i: int, rels: dict, fns: dict, consts: dict) -> Iterator[Structure]:
        if i == len(syms):
            if budget is not None:
                budget.spend(1, "structure enumeration")
            yield Structure(sig, size, dict(rels), dict(fns), dict(consts))
            return
        kind, name = syms[i]
        if kind == "rel":
            for rv in _rel_options(size, sig.relations[name]):
                rels[name] = rv
                yield from rec(i + 1, rels, fns, consts)
            del rels[name]
        elif kind == "fn":
            for table in itertools.product(range(size), repeat=size ** sig.functions[name]):
                fns[name] = table
                yield from rec(i + 1, rels, fns, consts)
            del fns[name]
        else:
            for val in range(size):
                consts[name] = val
                yield from rec(i + 1, rels, fns, consts)
            del consts[name]

    return rec(0, {}, {}, {})


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


def _json_tables(data: dict) -> list[dict]:
    """The relation, function and constant tables of a structure JSON
    object, each an object (absent means empty)."""
    tables = [data.get(k) or {} for k in ("relations", "functions", "constants")]
    if not all(isinstance(t, dict) for t in tables):
        raise ShapeError("'relations', 'functions' and 'constants' must be objects")
    return tables


def structure_from_json_dict(data, sig: Signature) -> Structure:
    if not isinstance(data, dict):
        raise ShapeError("structure JSON must be an object")
    unknown = set(data) - {"domain", "relations", "functions", "constants"}
    if unknown:
        raise ShapeError(f"unknown structure keys: {sorted(unknown)}")
    if "domain" not in data:
        raise ShapeError("structure JSON needs a 'domain' size")
    size = data["domain"]
    rels_in, fns_in, consts_in = _json_tables(data)
    rels = {}
    for name, tuples in rels_in.items():
        if not isinstance(tuples, list) or not all(
                isinstance(t, list) and all(map(_is_int, t)) for t in tuples):
            raise ShapeError(f"relation {name} must be a list of integer tuples")
        rels[name] = frozenset(tuple(t) for t in tuples)
    fns = {}
    for name, table in fns_in.items():
        if not isinstance(table, list):
            raise ShapeError(f"function {name} must be a flat value table")
        fns[name] = tuple(table)
    return Structure(sig, size, rels, fns, dict(consts_in))


def team_to_json_dict(team: Team) -> dict:
    return {"vars": list(team.vars), "rows": sorted(list(r) for r in team.rows)}


def team_from_json_dict(data) -> Team:
    if not isinstance(data, dict):
        raise ShapeError("team JSON must be an object")
    unknown = set(data) - {"vars", "rows"}
    if unknown:
        raise ShapeError(f"unknown team keys: {sorted(unknown)}")
    vars_in = data.get("vars")
    rows_in = data.get("rows")
    if not isinstance(vars_in, list) or not all(isinstance(v, str) for v in vars_in):
        raise ShapeError("'vars' must be a list of variable names")
    if not isinstance(rows_in, list) or not all(
            isinstance(r, list) and all(map(_is_int, r)) for r in rows_in):
        raise ShapeError("'rows' must be a list of integer rows")
    return Team(vars_in, rows_in)
