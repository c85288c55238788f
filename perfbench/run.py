"""Benchmark of the bosonfermion verifier, end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bfhcl_sweep --seed 1 --seconds 20 --trace 0

Load is one closed-loop client: each call starts after the previous one
returns, in one process and one thread.  Every interpreter is fresh, so the
program's caches start cold.  With ``--trace 0`` the run repeats passes of
the workload while the next pass fits in ``--seconds`` and reports medians
over passes.  With ``--trace 1`` it makes one untraced pass and one pass
under the standard profiler and reports the per-module figures; it ignores
``--seconds``.  ``--smoke`` shrinks every workload to a tiny size for the
benchmark's own test.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from child import CACHES, MODULES, PUBLIC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9  # set-up-only interpreters per run, so setup_s is a median
HARD_CAP_S = 170.0  # a run kills any interpreter still running after this

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cases_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    [(f"{m}.{kind}", unit) for m in MODULES
     for kind, unit in (("self_s", "s"), ("calls", "count"), ("fractions_made", "count"))]
    + [("fractions.self_s", "s")]
    + [(f"{m}.{name}{suffix}", unit) for m, names in PUBLIC.items() for name in names
       for suffix, unit in (("_s", "s"), ("_calls", "count"))]
    + [(f"symgroup.{stem}_hit_ratio", "ratio") for stem in CACHES]
    + [("trace_overhead_s", "s")]
)


class SetupFailed(RuntimeError):
    pass


def spawn(args, extra: list[str], deadline: float):
    """Run one child interpreter; return (setup_s, report or None, wall fallback)."""
    argv = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed)] + (["--smoke"] if args.smoke else []) + extra
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        if line != "ready\n":
            raise SetupFailed(f"child set-up failed: {' '.join(argv[1:])}")
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - ready))
        except subprocess.TimeoutExpired:
            print(f"child killed at the {HARD_CAP_S:.0f} s cap", file=sys.stderr)
            return ready - start, None, time.perf_counter() - ready
        fallback = time.perf_counter() - ready
        lines = out.strip().splitlines()
        try:
            report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except ValueError:
            report = None
        return ready - start, report, fallback
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def run_pass(args, trace: bool, deadline: float) -> dict:
    """One pass over the workload's calls, one child per interpreter group."""
    plan = workloads.pass_plan(args.workload, args.seed, args.smoke)
    result = {"setups": [], "wall_s": 0.0, "norm_wall_s": 0.0, "kernel_s": [], "cases": 0,
              "failed": 0, "peak_rss_mb": 0.0, "spans": [], "layers": {}, "caches": {},
              "timed_out": False}
    start = time.perf_counter()
    for group, calls in enumerate(plan):
        extra = ["--group", str(group)] + (["--trace"] if trace else [])
        setup, report, fallback = spawn(args, extra, deadline)
        result["setups"].append(setup)
        cases = sum(c.cases for c in calls)
        result["cases"] += cases
        if report is None:
            result["failed"] += cases
            result["wall_s"] += fallback
            result["norm_wall_s"] += fallback
            result["timed_out"] = time.perf_counter() >= deadline
            if result["timed_out"]:
                break
            continue
        result["failed"] += report["failed"]
        result["wall_s"] += report["wall_s"]
        result["norm_wall_s"] += report["norm_wall_s"]
        result["kernel_s"] += report["kernel_s"]
        result["peak_rss_mb"] = max(result["peak_rss_mb"], report["peak_rss_mb"])
        result["spans"] += report["spans"]
        for key, value in report.get("layers", {}).items():
            result["layers"][key] = result["layers"].get(key, 0) + value
        for stem, (hits, misses) in report.get("caches", {}).items():
            h, m = result["caches"].get(stem, (0, 0))
            result["caches"][stem] = (h + hits, m + misses)
    result["duration"] = time.perf_counter() - start
    return result


def timed_metrics(args, deadline: float):
    """Untraced passes while the next one fits in --seconds; medians over passes.

    ``wall_s`` is normalised to the host's speed (see ``child.py``) from the
    kernel samples taken during each pass; the measured figure is printed
    beside it.  ``setup_s`` is measured: spawning and importing did not
    follow the kernel's drift, and scaling them by it tripled their spread.
    """
    probes = 1 if args.smoke else SETUP_PROBES
    setups = [spawn(args, ["--setup-only"], deadline)[0] for _ in range(probes)]
    passes = []
    start = time.perf_counter()
    while True:
        p = run_pass(args, False, deadline)
        passes.append(p)
        setups += p["setups"]
        if p["timed_out"] or time.perf_counter() - start + p["duration"] > args.seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["norm_wall_s"] for p in passes),
        "cases_per_s": statistics.median(p["cases"] / p["norm_wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    measured = {
        "measured_wall_s": statistics.median(p["wall_s"] for p in passes),
        "kernel_ms": 1000 * statistics.median(k for p in passes for k in p["kernel_s"]),
    }
    return metrics, dict(END_TO_END), passes, measured


def traced_metrics(args, deadline: float):
    """One untraced and one traced pass; per-module figures from the traced one."""
    untraced = run_pass(args, False, deadline)
    traced = run_pass(args, True, deadline)
    metrics = {name: traced["layers"].get(name, 0) for name, _ in PER_LAYER}
    for stem in CACHES:
        hits, misses = traced["caches"].get(stem, (0, 0))
        metrics[f"symgroup.{stem}_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["trace_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return metrics, dict(PER_LAYER), [untraced, traced], {}


def exact_counts_digest(metrics: dict) -> str:
    """Digest of the counts that must repeat exactly between traced runs."""
    counts = {k: v for k, v in metrics.items() if k.endswith(("calls", "fractions_made"))}
    return hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args()

    if not (ROOT / "src" / "bosonfermion" / "cli.py").is_file():
        print(f"error: no bosonfermion sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + HARD_CAP_S
    try:
        if args.trace:
            metrics, units, passes, measured = traced_metrics(args, deadline)
        else:
            metrics, units, passes, measured = timed_metrics(args, deadline)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["cases"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  smoke {int(args.smoke)}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    for name, value in measured.items():
        print(f"  {name:<34} {value:>14.6g} {'ms' if name == 'kernel_ms' else 's'}")
    print(f"  {'cases':<34} {attempted:>14} count")
    print(f"  {'cases_failed':<34} {failed:>14} count")
    if args.trace:
        spans: dict[str, float] = {}
        for name, start, end in passes[1]["spans"]:
            spans[name] = spans.get(name, 0.0) + end - start
        for name, total in spans.items():
            print(f"  span {name:<29} {total:>14.6g} s")
        print(f"  exact_counts_sha256 {exact_counts_digest(metrics)}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
