"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the root).

A smoke pass over the smallest item of each workload checks the metric
names and units against BENCHMARK.json; a deliberately wrong expected
value must make the run incorrect; outside a checkout the benchmark must
fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_checkout()

import workloads  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_pass_reports_every_metric(workload, trace):
    result, lines = run.measure(workload, seed=3, seconds=0, trace=trace, smoke=True)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] > 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.overhead_s"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_expected_value_fails_the_run(monkeypatch):
    monkeypatch.setitem(workloads.PINNED, "octic g=1", workloads.PINNED["octic g=1"] + 1)
    result, lines = run.measure("count-nodal", seed=0, seconds=0, trace=False, smoke=True)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert any("octic g=1" in line for line in lines)


@pytest.mark.parametrize("workload", ["realize", "tropicalize"])
def test_wrong_expectation_fails_the_pass(workload):
    corpus = workloads.build(workload, 0, smoke=True)
    if workload == "realize":
        corpus.cases[0].expected += 1  # multiplicity sum no longer I^alpha N
    else:
        label, d, coarse, fine, seed = corpus.pairs[0]
        corpus.pairs[0] = (label, d + 1, coarse, fine, seed)  # Bezout expects (d+1)^2
    checks = workloads.Checks()
    workloads.run_pass(corpus, checks)
    assert checks.failures and len(checks.failures) / checks.attempted > 0


def test_unimodular_moves_keep_the_count():
    case = next(c for c in workloads.build("count-nodal", 0).cases if c.label == "octic g=1")
    for seed in range(6):
        moved = workloads.moved(case.spec, workloads.unimodular(seed))
        assert workloads.diagram.count(moved) == case.expected


def test_outside_a_checkout_exits_nonzero_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "realize", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
