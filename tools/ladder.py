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

With ``--cap-from`` it instead re-decides the ``verify`` cap of one
suite on the ``--change`` checkout alone, by the rule in the comment above
``suites.SUITES``: the cap is the largest size whose runs all took under
``LIMIT_S`` and ``LIMIT_MB``.  Starting at the given size n, each step runs sizes n and
n + 1 in the same rounds (at least 3), the size that goes first alternating
from round to round, and steps up while both sizes keep to the rule.  It
stops at the first size whose runs break the rule, or when n + 1 checks no
more cases than n (the suite does the same work from n up).  Every run is
written under ``cap_steps`` with its case count:

    python tools/ladder.py --change . --change-note <text> \\
        --suite clifford --cap-from 25 --rounds 3 --out BENCH_name.json
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


# The rule above ``suites.SUITES``: a verify cap is a size whose runs all keep under both.
LIMIT_S, LIMIT_MB = 30, 100


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


def cap_steps(checkout: Path, suite: str, start: int, rounds: int) -> dict:
    """Step the ``verify`` cap of ``suite`` up from ``start``; see the module docstring."""
    runs, cases = [], {}

    def keeps_to_rule(size):
        return all(run["seconds"] < LIMIT_S and run["peak_rss_mb"] < LIMIT_MB
                   for run in runs if run["size"] == size)

    n = start
    while True:
        for r in range(rounds):
            for size in (n, n + 1) if r % 2 == 0 else (n + 1, n):
                result = run_once(checkout, suite, size)
                if cases.setdefault(size, result["cases"]) != result["cases"]:
                    raise RuntimeError(f"{suite} {size}: {result['cases']} cases, earlier {cases[size]}")
                runs.append({**result, "size": size, "step": n, "round": r + 1})
                print(f"step {n} round {r + 1} {size:>3}: {result}", file=sys.stderr)
        if not keeps_to_rule(n):
            cap, why = (n - 1, f"{n} breaks the rule") if n > start else (None, f"the start {n} breaks the rule")
            break
        if not keeps_to_rule(n + 1):
            cap, why = n, f"{n + 1} breaks the rule"
            break
        if cases[n + 1] == cases[n]:
            cap, why = n, f"{n + 1} checks the same {cases[n]} cases as {n}"
            break
        n += 1
    seen = []
    for size in sorted(cases):
        mine = [run for run in runs if run["size"] == size]
        seen.append(f"{size}: {len(mine)} runs, {min(run['seconds'] for run in mine)} to "
                    f"{max(run['seconds'] for run in mine)} s, up to {max(run['peak_rss_mb'] for run in mine)} MB")
    return {
        "suite": suite,
        "rule": f"every run under {LIMIT_S} s and {LIMIT_MB} MB",
        "start": start,
        "rounds": rounds,
        "runs": runs,
        "cases": {str(size): count for size, count in sorted(cases.items())},
        "cap": cap,
        "decision": f"cap {cap}: {why}; " + "; ".join(seen),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit (ladder only)")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--parent-note", help="what the parent commit is, for the report (ladder only)")
    parser.add_argument("--change-note", required=True, help="what the change is, for the report")
    parser.add_argument("--suite", default="bfhcl")
    parser.add_argument("--sizes", type=int, nargs="+", help="the sizes of the ladder")
    parser.add_argument("--cap-from", type=int, metavar="SIZE",
                        help="step the suite's verify cap up from SIZE on the --change checkout alone")
    parser.add_argument("--rounds", type=int, help="rounds per size (default 5; 3 with --cap-from)")
    parser.add_argument("--out", type=Path, help="JSON file to write (default: standard output)")
    args = parser.parse_args(argv)
    host = {
        "python": platform.python_version(),
        "host": f"{platform.system()} {platform.release()} {platform.machine()}, {os.cpu_count()} CPUs",
    }
    command = f"PYTHONPATH=src {Path(sys.executable).name} -c {CHILD!r} {args.suite} <size>"
    if args.cap_from is not None:
        rounds = 3 if args.rounds is None else args.rounds
        if rounds < 3:
            parser.error("--cap-from needs at least 3 rounds")
        report = {
            "benchmark": f"{args.suite} verify cap: wall time, CPU time and peak RSS of "
            f"run_suite({args.suite!r}, n) stepping n up from {args.cap_from}",
            "command": command,
            "method": "one fresh interpreter per size and run, started from the root of the checkout; "
            f"each step runs sizes n and n + 1 in the same {rounds} rounds, alternating which size runs "
            "first from round to round, and steps n up while every run of both sizes keeps to the rule; "
            "wall seconds (perf_counter) and cpu_s (process_time) cover run_suite only, peak RSS is "
            "ru_maxrss of the whole interpreter; written by tools/ladder.py --cap-from",
            **host,
            "change": args.change_note,
            "cap_steps": cap_steps(args.change.resolve(), args.suite, args.cap_from, rounds),
        }
    else:
        rounds = 5 if args.rounds is None else args.rounds
        if args.parent is None or args.parent_note is None or not args.sizes:
            parser.error("a ladder needs --parent, --parent-note and --sizes")
        if rounds < 1:
            parser.error("--rounds must be at least 1")
        checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
        sizes = ", ".join(map(str, args.sizes))
        report = {
            "benchmark": f"{args.suite} size ladder: wall time, CPU time and peak RSS of "
            f"run_suite({args.suite!r}, n) for n = {sizes} on both sides",
            "command": command,
            "method": "one fresh interpreter per size and run, started from the root of each checkout; "
            f"{rounds} rounds, each round runs every size on both sides, alternating which side runs "
            "first from round to round; wall seconds (perf_counter) and cpu_s (process_time) cover run_suite "
            "only, peak RSS is ru_maxrss of the whole interpreter; written by tools/ladder.py",
            **host,
            "parent": args.parent_note,
            "change": args.change_note,
            "ladder": ladder(checkouts, args.suite, args.sizes, rounds),
        }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
