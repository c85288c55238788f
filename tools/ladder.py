"""Size ladder of one verify suite on two checkouts: wall time, CPU time and peak RSS per size.

Each (side, size) runs ``run_suite(suite, size)`` in a fresh interpreter
started from the root of that checkout with ``PYTHONPATH=src``.  Every round
runs every size on both sides, and the side that goes first alternates from
round to round.  Wall seconds (``time.perf_counter``) and CPU seconds
(``time.process_time``) cover ``run_suite`` only; peak RSS is ``ru_maxrss``
of the whole interpreter.  The JSON written has the schema of the committed
``BENCH_*.json`` ladders:

    python tools/ladder.py --parent <checkout> --parent-note <text> \\
        --change <checkout> --change-note <text> \\
        --suite bfhcl --sizes 10 11 12 --rounds 5 --out BENCH_name.json

A ``git archive`` of the parent commit, unpacked into its own directory, is
the usual parent checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = (
    "import json, resource, sys, time; from bosonfermion.suites import run_suite; "
    "t, c = time.perf_counter(), time.process_time(); r = run_suite(sys.argv[1], int(sys.argv[2])); "
    "s, c = time.perf_counter() - t, time.process_time() - c; "
    "print(json.dumps({'cases': r.cases, 'passed': r.passed, 'seconds': round(s, 3), 'cpu_s': round(c, 3), "
    "'peak_rss_mb': round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}))"
)


def run_once(checkout: Path, suite: str, size: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, suite, str(size)],
        capture_output=True, text=True, cwd=checkout, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{suite} {size} in {checkout} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def ladder(checkouts: dict[str, Path], suite: str, sizes: list[int], rounds: int) -> dict:
    out = {side: {str(size): {"cases": None, "passed": True, "seconds": [], "cpu_s": [], "peak_rss_mb": []}
                  for size in sizes}
           for side in checkouts}
    sides = list(checkouts)
    for r in range(rounds):
        for size in sizes:
            for side in sides if r % 2 == 0 else sides[::-1]:
                result = run_once(checkouts[side], suite, size)
                entry = out[side][str(size)]
                if entry["cases"] not in (None, result["cases"]):
                    raise RuntimeError(f"{side} {suite} {size}: {result['cases']} cases, earlier {entry['cases']}")
                entry["cases"] = result["cases"]
                entry["passed"] = entry["passed"] and result["passed"]
                entry["seconds"].append(result["seconds"])
                entry["cpu_s"].append(result["cpu_s"])
                entry["peak_rss_mb"].append(result["peak_rss_mb"])
                print(f"round {r + 1} {side:<6} {size:>3}: {result}", file=sys.stderr)
    for entry in (entry for side in out.values() for entry in side.values()):
        entry["median_s"] = round(statistics.median(entry["seconds"]), 3)
        entry["median_cpu_s"] = round(statistics.median(entry["cpu_s"]), 3)
        entry["median_peak_rss_mb"] = round(statistics.median(entry["peak_rss_mb"]), 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--parent-note", required=True, help="what the parent commit is, for the report")
    parser.add_argument("--change-note", required=True, help="what the change is, for the report")
    parser.add_argument("--suite", default="bfhcl")
    parser.add_argument("--sizes", type=int, nargs="+", required=True)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", type=Path, help="JSON file to write (default: standard output)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sizes = ", ".join(map(str, args.sizes))
    report = {
        "benchmark": f"{args.suite} size ladder: wall time, CPU time and peak RSS of "
        f"run_suite({args.suite!r}, n) for n = {sizes} on both sides",
        "command": f"PYTHONPATH=src {Path(sys.executable).name} -c {CHILD!r} {args.suite} <size>",
        "method": "one fresh interpreter per size and run, started from the root of each checkout; "
        f"{args.rounds} rounds, each round runs every size on both sides, alternating which side runs "
        "first from round to round; wall seconds (perf_counter) and cpu_s (process_time) cover run_suite "
        "only, peak RSS is ru_maxrss of the whole interpreter; written by tools/ladder.py",
        "python": platform.python_version(),
        "host": f"{platform.system()} {platform.release()} {platform.machine()}, {os.cpu_count()} CPUs",
        "parent": args.parent_note,
        "change": args.change_note,
        "ladder": ladder(checkouts, args.suite, args.sizes, args.rounds),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
