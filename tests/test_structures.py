"""Structures, teams, enumeration, and JSON formats."""
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    _canonical_code, count_structures, enumerate_teams, is_class_leader, restrict,
)
from deplog.budget import Budget
from deplog.errors import BudgetExceededError, ShapeError
from deplog.structures import (
    Structure, Team, _class_count, _symbols, enumerate_structures,
    structure_from_json_dict, structure_to_json_dict, team_from_json_dict,
)
from deplog.syntax import Signature

SIG_P = Signature({"P": 1}, {}, frozenset())
SIG_R = Signature({"R": 2}, {}, frozenset())
SIG_F = Signature({}, {"f": 1}, frozenset())


# ---------------------------------------------------------------------------
# Structure validation
# ---------------------------------------------------------------------------

def test_structure_validates_against_signature():
    with pytest.raises(ShapeError):
        Structure(SIG_P, 2, {}, {}, {})  # P missing
    with pytest.raises(ShapeError):
        Structure(SIG_P, 2, {"P": frozenset({(2,)})}, {}, {})  # out of domain
    with pytest.raises(ShapeError):
        Structure(SIG_F, 2, {}, {"f": (0,)}, {})  # table too short
    with pytest.raises(ShapeError):
        Structure(SIG_P, 0, {"P": frozenset()}, {}, {})  # empty domain
    with pytest.raises(ShapeError, match=r"bad tuple \(\[0\],\) for relation P/1"):
        Structure(SIG_P, 2, {"P": [[[0]]]}, {}, {})  # a list, which cannot be hashed


@pytest.mark.parametrize("functions,constants", [
    ({"f": (0, 1)}, {}),   # a function the signature lacks
    ({}, {"c": 0}),        # a constant the signature lacks
])
def test_structure_rejects_symbols_outside_the_signature(functions, constants):
    with pytest.raises(ShapeError):
        Structure(SIG_P, 2, {"P": frozenset()}, functions, constants)


def test_structure_rejects_bool_elements():
    # JSON true/false load as bools, which Python counts as the ints 1 and 0
    sig = Signature({"R": 2}, {"f": 1}, frozenset({"c"}))
    ok = {"domain": 2, "relations": {"R": [[0, 1]]}, "functions": {"f": [1, 0]},
          "constants": {"c": 1}}
    structure_from_json_dict(ok, sig)
    for key, bad in [("relations", {"R": [[0, True]]}),
                     ("functions", {"f": [1, False]}),
                     ("constants", {"c": True}),
                     ("domain", True)]:
        with pytest.raises(ShapeError):
            structure_from_json_dict({**ok, key: bad}, sig)
    with pytest.raises(ShapeError):
        team_from_json_dict({"vars": ["x"], "rows": [[True]]})


# ---------------------------------------------------------------------------
# Teams
# ---------------------------------------------------------------------------

def test_team_restrict():
    t = Team(("x", "y"), [(0, 0), (0, 1)])
    assert restrict(t, ("x",)) == Team(("x",), [(0,)])
    assert restrict(t, ("x", "y")) == t
    # restriction to no variables keeps one empty row
    assert restrict(t, ()) == Team((), [()])
    with pytest.raises(ValueError):
        restrict(t, ("z",))


def test_team_shape_errors():
    with pytest.raises(ShapeError):
        Team(("x", "x"), [(0, 0)])
    with pytest.raises(ShapeError):
        Team(("x",), [(0, 1)])
    # a value that is not an integer, refused before the rows are hashed
    for rows in ({("a",)}, {(True,)}, [[[0]]], [[0], [None]]):
        with pytest.raises(ShapeError, match="holds a value that is not an integer"):
            Team(("x",), rows)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_structure_counts():
    assert count_structures(SIG_P, 2) == 4
    assert count_structures(SIG_R, 1) == 2
    assert count_structures(SIG_F, 2) == 4
    assert len(list(enumerate_structures(SIG_P, 2))) == 4
    assert len(list(enumerate_structures(SIG_R, 1))) == 2
    assert len(list(enumerate_structures(SIG_F, 2))) == 4


@given(st.sampled_from([
    Signature({}, {}, frozenset()),
    SIG_P, SIG_R, SIG_F,
    Signature({"P": 1}, {"f": 1}, frozenset({"c"})),
    Signature({"P": 1, "E": 2}, {}, frozenset()),
]), st.integers(1, 2))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_enumeration_count_and_distinctness(sig, n):
    structs = list(enumerate_structures(sig, n))
    assert len(structs) == count_structures(sig, n)
    seen = {(tuple(sorted((k, tuple(sorted(v))) for k, v in s.relations.items())),
             tuple(sorted(s.functions.items())),
             tuple(sorted(s.constants.items()))) for s in structs}
    assert len(seen) == len(structs)


def test_enumerated_structures_equal_validated_ones():
    # enumeration builds its structures without Structure's checks; each
    # must equal the structure the JSON boundary validates from it
    sig = Signature({"P": 1, "E": 2, "Z": 0}, {"f": 1, "k": 0},
                    frozenset({"c"}))
    for n in (1, 2):
        for m in enumerate_structures(sig, n):
            back = structure_from_json_dict(structure_to_json_dict(m), sig)
            assert (m.sig, m.size, m.relations, m.functions, m.constants) == (
                back.sig, back.size, back.relations, back.functions, back.constants)
            for rel in m.relations.values():
                assert type(rel) is frozenset
                assert all(type(t) is tuple and all(type(v) is int for v in t)
                           for t in rel)
            for table in m.functions.values():
                assert type(table) is tuple
                assert all(type(v) is int for v in table)
            assert all(type(v) is int for v in m.constants.values())


# signatures mixing every symbol kind and arity 0, at sizes up to 4
CLASS_CASES = [
    (Signature({"P": 1, "E": 2}, {"g": 1}, frozenset({"c"})), 2),
    (SIG_R, 3),
    (Signature({"P": 1, "Q": 1}), 4),
    (Signature({"Z": 0}, {"k": 0, "g": 1}, frozenset({"c", "d"})), 3),
    (Signature({}, {"f": 1, "g": 1}, frozenset({"c"})), 3),
    (Signature({}, {"F": 2}), 2),
    (Signature({}, {"F": 3}), 2),
    (Signature({}, {}, frozenset("cdef")), 4),
    (Signature({}, {}, frozenset()), 3),
]


@pytest.mark.parametrize("sig,n", CLASS_CASES)
def test_class_count_matches_brute_force(sig, n):
    # the count that decides where equiv_check takes the leader test
    # (Burnside's lemma) against the leaders found by trying every renaming
    assert _class_count(_symbols(sig), n) == sum(
        map(is_class_leader, enumerate_structures(sig, n)))


@pytest.mark.parametrize("sig,n", CLASS_CASES)
def test_enumeration_visits_codes_in_increasing_order(sig, n):
    # the order the leader test relies on: a structure is the first of its
    # class exactly when no renaming of its domain gives a smaller code
    codes = [_canonical_code(m, range(n)) for m in enumerate_structures(sig, n)]
    assert len(codes) == count_structures(sig, n)
    assert all(a < b for a, b in zip(codes, codes[1:]))


def test_enumeration_deterministic():
    a = [structure_to_json_dict(s) for s in enumerate_structures(SIG_R, 2)]
    b = [structure_to_json_dict(s) for s in enumerate_structures(SIG_R, 2)]
    assert a == b


def test_enumeration_budget():
    budget = Budget(3)
    gen = enumerate_structures(SIG_P, 2, budget)
    with pytest.raises(BudgetExceededError):
        list(gen)


def test_enumeration_refuses_a_code_longer_than_the_budget():
    # {R/3} at size 2 has 8 argument tuples, each a flag of the code, so
    # 2^8 structures: a budget of 7 refuses the walk before the first
    gen = enumerate_structures(Signature({"R": 3}, {}, frozenset()), 2, Budget(7))
    with pytest.raises(BudgetExceededError):
        next(gen)
    # {R/2}'s 4 tuples fit a budget of 4, which stops the walk at the fifth
    gen = enumerate_structures(SIG_R, 2, Budget(4))
    assert len([next(gen) for _ in range(4)]) == 4
    with pytest.raises(BudgetExceededError):
        next(gen)
    # {c} has one value position, so size 5 gives 5 structures, which fit
    # a budget of 5; at size 6 the values alone pass it, and the walk is
    # refused before the first, with at least 6 structures named
    sig_c = Signature({}, {}, frozenset({"c"}))
    assert len(list(enumerate_structures(sig_c, 5, Budget(5)))) == 5
    with pytest.raises(BudgetExceededError) as exc:
        next(enumerate_structures(sig_c, 6, Budget(5)))
    assert exc.value.spent == 6


def test_enumerate_teams():
    teams = list(enumerate_teams(("x",), 2))
    assert len(teams) == 4  # subsets of two rows
    assert teams[0] == Team(("x",), ())
    capped = list(enumerate_teams(("x", "y"), 2, max_rows=1))
    assert len(capped) == 1 + 4


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_structure_json_round_trip():
    sig = Signature({"R": 2}, {"f": 1}, frozenset({"c"}))
    m = Structure(sig, 3, {"R": frozenset({(0, 1), (1, 2)})},
                  {"f": (1, 2, 0)}, {"c": 0})
    data = structure_to_json_dict(m)
    assert data == {"domain": 3, "relations": {"R": [[0, 1], [1, 2]]},
                    "functions": {"f": [1, 2, 0]}, "constants": {"c": 0}}
    back = structure_from_json_dict(data, sig)
    assert back == m


def test_structure_json_errors():
    with pytest.raises(ShapeError):
        structure_from_json_dict({"domain": 2, "bogus": 1}, SIG_P)
    with pytest.raises(ShapeError):
        structure_from_json_dict({"relations": {"P": []}}, SIG_P)
    with pytest.raises(ShapeError):
        structure_from_json_dict(
            {"domain": 2, "relations": {"P": [[0]], "X": []}}, SIG_P)


def test_team_json_round_trip():
    t = Team(("x", "y"), [(0, 1), (1, 1)])
    assert team_from_json_dict({"vars": ["x", "y"], "rows": [[0, 1], [1, 1]]}) == t
    with pytest.raises(ShapeError):
        team_from_json_dict({"variables": ["x"], "rows": []})
