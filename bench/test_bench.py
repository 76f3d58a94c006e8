"""Tests of the benchmark itself: its answers, its meter and its output.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from helpers import oracle_satisfies  # noqa: E402
from deplog.harness import sentence_value  # noqa: E402
from deplog.structures import Structure  # noqa: E402
from deplog.syntax import Signature, parse_eso, parse_formula  # noqa: E402


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_split_checks_agree_with_full_cover_oracle():
    rng = random.Random(5)
    struct = Structure(Signature(), workloads.SPLIT_SIZE, {}, {}, {})
    phi = {name: parse_formula(text, Signature())
           for name, text in workloads.SPLIT_FORMULAS.items()}
    crowded = [(x, y, 0, v) for x in range(2) for y in range(3) for v in range(3)]
    for _ in range(60):
        rows = sorted(rng.sample(crowded, rng.randint(1, 5)))
        assert oracles.phi1_two_sat(rows) == oracle_satisfies(
            struct, workloads.SPLIT_VARS, rows, phi["phi1"])
        assert oracles.phi2_by_choice(rows, workloads.SPLIT_SIZE) == \
            oracle_satisfies(struct, workloads.SPLIT_VARS, rows, phi["phi2"])


def test_phi2_verdict_list_matches_choice_check():
    pool = workloads.load_phi2_pool()
    verdicts = set()
    for (_, k), entries in pool.items():
        for rows, verdict in entries:
            assert len(rows) == k
            assert oracles.phi2_by_choice(rows, workloads.SPLIT_SIZE) == verdict
            verdicts.add(verdict)
    assert verdicts == {False, True}
    for name, kind, k, _ in workloads.SPLIT_ROUND:
        if name == "phi2" and kind != "planted":
            assert pool[kind, k], (kind, k)


def test_planted_teams_satisfy_by_construction():
    rng = random.Random(9)
    for name, parts in workloads.PLANTED_PARTS.items():
        for k in (4, 8, 12):
            rows = workloads.planted_rows(rng, parts, k)
            assert len(set(rows)) == k
            if name == "phi1":
                assert oracles.phi1_two_sat(rows)
            else:
                assert oracles.phi2_by_choice(rows, workloads.SPLIT_SIZE)


def test_size1_truth_agrees_with_evaluators():
    rng = random.Random(3)
    sig = Signature(workloads.REL_ARITY, workloads.FN_ARITY)
    cases = [("D", fl) for fl in ("mixed", "terms", "existential", "width1")]
    cases += [("ESO", fl) for fl in ("mixed", "universal")]
    for kind, flavour in cases * 3:
        gen = workloads.gen_d if kind == "D" else workloads.gen_e
        text, _ = gen(rng, flavour, 4, 8)
        s = parse_formula(text, sig) if kind == "D" else parse_eso(text, sig)
        for mask in range(8):
            rels = {r: frozenset([(0,) * ar]) if mask >> i & 1 else frozenset()
                    for i, (r, ar) in enumerate(sorted(workloads.REL_ARITY.items()))}
            m = Structure(sig, 1, rels, {"g": (0,)}, {})
            nonempty = frozenset(r for r, ts in rels.items() if ts)
            assert oracles.size1_truth(s, nonempty) == sentence_value(m, s)


def test_traced_runs_repeat_work_counts_exactly():
    names = [e["name"] for e in _spec()["per_layer"]]
    counts = []
    for _ in range(2):
        proc = _run("--workload", "equiv_sweep", "--seed", "3",
                    "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(names)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] in ("count", "ratio")})
    assert counts[0] == counts[1]
    for metric in spans.TALLY_METRICS.values():
        assert counts[0][metric] > 0, metric


def test_untraced_output_contract():
    proc = _run("--workload", "equiv_sweep", "--seed", "1", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    spec = _spec()
    assert sorted(result["metrics"]) == sorted(e["name"] for e in spec["end_to_end"])
    for entry in spec["end_to_end"]:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"] and metric["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "split_teams", "--seed", "1", "--seconds", "1",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
