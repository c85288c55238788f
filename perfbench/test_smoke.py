"""Smoke test of the benchmark at tiny sizes.

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the exact counts of the traced run repeat between two traced runs, and
that the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, root: Path = HERE.parent):
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=root)


def result(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


def units(out: dict) -> dict:
    return {name: m["unit"] for name, m in out["metrics"].items()}


def test_workloads_match_spec():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_printed_with_units(workload):
    out = result(workload, 0)
    assert units(out) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_per_layer_metrics_printed_and_counts_repeat(workload):
    first, second = result(workload, 1), result(workload, 1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    def counts(out):
        return {k: m["value"] for k, m in out["metrics"].items() if m["unit"] == "count"}

    assert counts(first) == counts(second)
    assert any(counts(first).values())


def test_seed_picks_the_coefficient_sample():
    first, again, second = (workloads.coeff_sample(s, *workloads.COEFF) for s in (1, 1, 2))
    assert first == again != second and len(first) == workloads.COEFF[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run(NAMES[0], 0, tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
