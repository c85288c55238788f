"""Smoke tests of tools/ladder.py at tiny sizes: a bfhcl ladder with one checkout on both
sides, and the cap-step mode on resolutions."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ladder_writes_the_bench_schema(tmp_path):
    out = tmp_path / "ladder.json"
    argv = [sys.executable, str(ROOT / "tools" / "ladder.py"), "--parent", str(ROOT), "--parent-note", "a",
            "--change", str(ROOT), "--change-note", "b", "--suite", "bfhcl", "--sizes", "2", "3",
            "--rounds", "2", "--out", str(out)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert set(report) == {"benchmark", "command", "method", "python", "host", "parent", "change", "ladder"}
    assert (report["parent"], report["change"]) == ("a", "b")
    assert set(report["ladder"]) == {"parent", "change"}
    for side in report["ladder"].values():
        assert set(side) == {"2", "3"}
        for entry in side.values():
            assert set(entry) == {"cases", "passed", "seconds", "cpu_s", "peak_rss_mb",
                                  "median_s", "median_cpu_s", "median_peak_rss_mb"}
            assert entry["passed"] is True and entry["cases"] > 0
            assert len(entry["seconds"]) == len(entry["cpu_s"]) == len(entry["peak_rss_mb"]) == 2
            assert entry["median_peak_rss_mb"] > 0
    # both sides ran the same code, so they checked the same cases
    assert report["ladder"]["parent"]["3"]["cases"] == report["ladder"]["change"]["3"]["cases"]


def _ladder_module():
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cap_steps_write_every_run(tmp_path):
    # resolutions does the same work from 6 up, so stepping from 5 stops at 6
    out = tmp_path / "cap.json"
    argv = [sys.executable, str(ROOT / "tools" / "ladder.py"), "--change", str(ROOT), "--change-note", "b",
            "--suite", "resolutions", "--cap-from", "5", "--out", str(out)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert set(report) == {"benchmark", "command", "method", "python", "host", "change", "cap_steps"}
    steps = report["cap_steps"]
    assert (steps["suite"], steps["rule"], steps["start"], steps["rounds"]) == (
        "resolutions", "every run under 30 s and 100 MB", 5, 3)
    assert steps["cap"] == 6 and steps["decision"].startswith("cap 6: 7 checks the same 302 cases as 6")
    assert steps["cases"] == {"5": 224, "6": 302, "7": 302}
    # two steps of three rounds, each round running n and n + 1, the first size alternating
    order = [(run["step"], run["round"], run["size"]) for run in steps["runs"]]
    assert order == [(n, r, size) for n in (5, 6) for r in (1, 2, 3)
                     for size in ((n, n + 1) if r % 2 else (n + 1, n))]
    for run in steps["runs"]:
        assert set(run) == {"cases", "passed", "seconds", "cpu_s", "peak_rss_mb", "size", "step", "round"}
        assert run["passed"] is True and run["cases"] == steps["cases"][str(run["size"])]


def test_cap_steps_stop_at_the_first_size_that_breaks_the_rule(monkeypatch):
    ladder = _ladder_module()
    calls = []

    def fake_run(checkout, suite, size):
        calls.append(size)
        return {"cases": size, "passed": True, "seconds": 31.0 if size == 4 else 1.0, "cpu_s": 1.0,
                "peak_rss_mb": 120.0 if size >= 6 else 20.0}

    monkeypatch.setattr(ladder, "run_once", fake_run)
    steps = ladder.cap_steps(ROOT, "clifford", 1, 4)
    assert steps["rule"] == "every run under 30 s and 100 MB"
    assert steps["cap"] == 3 and steps["decision"].startswith("cap 3: 4 breaks the rule")
    assert calls == [size for n in (1, 2, 3) for size in (n, n + 1, n + 1, n, n, n + 1, n + 1, n)]
    # memory breaks the rule as time does
    assert ladder.cap_steps(ROOT, "clifford", 5, 3)["cap"] == 5
    # a start that breaks the rule gives no cap, after one step
    calls.clear()
    steps = ladder.cap_steps(ROOT, "clifford", 4, 3)
    assert steps["cap"] is None and steps["decision"].startswith("cap None: the start 4 breaks the rule")
    assert calls == [4, 5, 5, 4, 4, 5]
    assert ladder.cap_steps(ROOT, "clifford", 6, 3)["cap"] is None
