"""Smoke test of the ladder driver at tiny bfhcl sizes, one checkout on both sides."""

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
