"""Regenerate data/phi2_teams.json, the fixed verdict list for the uniform
and crowded phi2 teams of the split_teams workload.

    PYTHONPATH=src python3 bench/make_phi2_pool.py

Uniform teams are drawn uniformly (fixed generator seed) from the 81 rows
over domain 3; nearly all are true.  Crowded teams are drawn from the rows
with u = 0 and x in {0, 1} until enough false ones are found, so that the
exhaustive search on phi2 is timed too.  Each verdict comes from
oracles.phi2_by_choice.  Before writing, that function and
oracles.phi1_two_sat are cross-checked against the full-cover oracle of
tests/helpers.py on random small teams and on FALSE_PHI2 false ones (the
oracle's 3^rows cover search cannot reach the listed row counts itself).
"""
from __future__ import annotations

import json
import os
import random
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "tests")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from helpers import oracle_satisfies  # noqa: E402
from deplog.structures import Structure  # noqa: E402
from deplog.syntax import Signature, parse_formula  # noqa: E402

POOL_SEED = 20261018
# (kind, rows, count): the teams SPLIT_ROUND draws from
POOL = (("uniform", 10, 40), ("uniform", 11, 40),
        ("crowded", 9, 20), ("crowded", 10, 20))
SMALL_TEAMS = 300
FALSE_PHI2 = 20


def cross_check() -> None:
    rng = random.Random(POOL_SEED)
    struct = Structure(Signature(), workloads.SPLIT_SIZE, {}, {}, {})
    phi = {name: parse_formula(text, Signature())
           for name, text in workloads.SPLIT_FORMULAS.items()}
    # rows crowded onto few x and u values, so that false teams are common
    crowded = [[(x, y, 0, v) for x in range(xs) for y in range(3)
                for v in range(3)] for xs in (1, 2)]
    falses = {"phi1": 0, "phi2": 0}
    for _ in range(SMALL_TEAMS):
        k = rng.randint(1, 6)
        pick = rng.random()
        if pick < 0.3:
            rows = workloads.uniform_rows(rng, k)
        elif pick < 0.5:
            rows = workloads.planted_rows(rng, workloads.PLANTED_PARTS["phi2"], k)
        else:
            # at least four rows: smaller crowded teams are nearly all true
            rows = sorted(rng.sample(rng.choice(crowded), max(k, 4)))
        for name, mine in (("phi1", oracles.phi1_two_sat(rows)),
                           ("phi2", oracles.phi2_by_choice(rows, workloads.SPLIT_SIZE))):
            want = oracle_satisfies(struct, workloads.SPLIT_VARS, rows, phi[name])
            if mine != want:
                raise SystemExit(f"{name} check disagrees with the oracle on {rows}")
            falses[name] += not want
    # Random small teams are rarely false for phi2; six rows on one x value
    # often are, and the oracle still checks one in about a second.
    checked = 0
    while falses["phi2"] < FALSE_PHI2:
        rows = sorted(rng.sample(crowded[0], 6))
        mine = oracles.phi2_by_choice(rows, workloads.SPLIT_SIZE)
        if mine != oracle_satisfies(struct, workloads.SPLIT_VARS, rows, phi["phi2"]):
            raise SystemExit(f"phi2 check disagrees with the oracle on {rows}")
        falses["phi2"] += not mine
        checked += 1
    print(f"cross-checked {SMALL_TEAMS + checked} small teams against the "
          f"full-cover oracle; false verdicts: {falses}")


def main() -> None:
    cross_check()
    rng = random.Random(POOL_SEED + 1)
    teams = []
    for kind, k, count in POOL:
        found = 0
        while found < count:
            if kind == "uniform":
                rows = workloads.uniform_rows(rng, k)
            else:
                rows = workloads.crowded_rows(rng, k)
            verdict = oracles.phi2_by_choice(rows, workloads.SPLIT_SIZE)
            if kind == "crowded" and verdict:
                continue
            teams.append({"kind": kind, "rows": [list(r) for r in rows],
                          "satisfies": verdict})
            found += 1
    data = {"formula": workloads.SPLIT_FORMULAS["phi2"],
            "vars": list(workloads.SPLIT_VARS), "domain": workloads.SPLIT_SIZE,
            "teams": teams}
    with open(workloads.PHI2_DATA, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(teams)} teams, "
          f"{sum(t['satisfies'] for t in teams)} satisfying")


if __name__ == "__main__":
    main()
