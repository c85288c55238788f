"""One fresh interpreter of the benchmark: set up, signal, run calls, report.

Started by ``run.py``.  It imports the program and generates its inputs,
prints ``ready`` (``run.py`` times set-up up to that line), then runs its
group of calls through ``bosonfermion.cli.main`` one after another, checks
each output, and prints one JSON line with the timings and, when traced,
the per-module profile figures.

Untraced, it also measures the host's speed while the calls run: a fixed
pure-Python kernel is timed before the first call, every
``SAMPLE_PERIOD_S`` of wall time from a ``SIGALRM`` handler, and after the
last call.  The program's time between two samples, scaled by
``REFERENCE_KERNEL_S`` over the two samples' mean kernel time, is that time
as a host running the kernel in ``REFERENCE_KERNEL_S`` would take it.  A
shared host that slows every process by the same factor for a while then
leaves the normalised time unchanged, while a slower program still shows in
full, since the kernel calls nothing of the program.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import fractions
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

import workloads

MODULES = (
    "partitions",
    "formal",
    "ratmat",
    "symgroup",
    "fock",
    "schur",
    "quiver",
    "correspondence",
    "suites",
    "cli",
)
# Public functions whose inclusive time and call count are reported.
PUBLIC = {
    "symgroup": ("a_oracle", "a_coeff"),
    "correspondence": ("tilde_a",),
    "fock": ("apply_word",),
    "quiver": ("rank_exactness",),
}
# lru_caches whose hit ratio is reported, by metric stem and function name.
CACHES = {"tableaux": "tableaux", "rep_rows": "_rep_rows"}

# Kernel time that defines a normalised second: about the kernel's time on
# the 2-vCPU host of the baseline, so normalised and measured seconds are close.
REFERENCE_KERNEL_S = 0.025
SAMPLE_PERIOD_S = 0.4

FRACTIONS_FILE = os.path.abspath(fractions.__file__)
FRACTION_NEW = fractions.Fraction.__new__.__code__


def module_of(filename: str) -> str | None:
    """Layer name of a profiled code object's file, or None."""
    path = os.path.abspath(filename)
    if path == FRACTIONS_FILE:
        return "fractions"
    head, base = os.path.split(path)
    stem = base[:-3] if base.endswith(".py") else None
    if os.path.basename(head) == "bosonfermion" and stem in MODULES:
        return stem
    return None


def layer_figures(profiler: cProfile.Profile) -> dict[str, float]:
    """Self time, calls and Fraction constructions per module, plus public functions.

    Reads the raw profiler entries, one per code object: ``pstats`` keys by
    (file, line, name) and so merges, in an order that varies from run to
    run, two generator expressions that start on the same line.
    """
    out: dict[str, float] = {}
    for m in MODULES:
        out[f"{m}.self_s"] = 0.0
        out[f"{m}.calls"] = 0
        out[f"{m}.fractions_made"] = 0
    out["fractions.self_s"] = 0.0
    for m, names in PUBLIC.items():
        for name in names:
            out[f"{m}.{name}_s"] = 0.0
            out[f"{m}.{name}_calls"] = 0
    for entry in profiler.getstats():
        if isinstance(entry.code, str):  # a C function
            continue
        layer = module_of(entry.code.co_filename)
        if layer == "fractions":
            out["fractions.self_s"] += entry.inlinetime
        elif layer is not None:
            out[f"{layer}.self_s"] += entry.inlinetime
            out[f"{layer}.calls"] += entry.callcount
            if entry.code.co_name in PUBLIC.get(layer, ()):
                out[f"{layer}.{entry.code.co_name}_s"] += entry.totaltime
                out[f"{layer}.{entry.code.co_name}_calls"] += entry.callcount
            for callee in entry.calls or ():
                if callee.code is FRACTION_NEW:
                    out[f"{layer}.fractions_made"] += callee.callcount
    return out


def cache_counts(symgroup) -> dict[str, list[int]]:
    """[hits, misses] of each reported cache; zeros if the cache is gone."""
    out = {}
    for stem, attr in CACHES.items():
        info = getattr(getattr(symgroup, attr, None), "cache_info", None)
        out[stem] = list(info()[:2]) if info else [0, 0]
    return out


def kernel() -> int:
    """Fixed work in the program's idiom: partitions, tuple keys, Fraction sums."""
    table: dict[tuple, fractions.Fraction] = {}
    for n in range(1, 21):
        for p in workloads.partitions_of(n):
            key = p[:2]
            term = fractions.Fraction(len(p), n + p[0])
            table[key] = table.get(key, fractions.Fraction(0)) + term
    return len(table)


class HostSpeed:
    """Kernel timings taken before, during (on ``SIGALRM``) and after a block."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)

    def sample(self, *_):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        kernel()  # warm-up, untimed
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def program_time(self, start: float, end: float) -> tuple[float, float]:
        """(measured, normalised) seconds in [start, end] outside the kernel."""
        measured = normalised = 0.0
        for (s0, k0), (s1, k1) in zip(self.samples, self.samples[1:]):
            gap = max(0.0, min(s1, end) - max(s0 + k0, start))
            measured += gap
            normalised += gap * REFERENCE_KERNEL_S / ((k0 + k1) / 2)
        return measured, normalised


def check(call: workloads.Call, rc: int, stdout: str) -> int:
    """Number of the call's cases that failed, judged from its CLI output."""
    try:
        payload = json.loads(stdout)
        if call.path is None:
            if payload["suite"] != call.name or payload["cases"] != call.cases:
                return call.cases
            if rc == 0 and payload["passed"] is True:
                return 0
            return len(payload["failures"]) or call.cases
        lam1, lam, mu = call.path
        rows = payload["branches"]
        ok = (
            rc == 0
            and [payload["lam1"], payload["lam"], payload["mu"]]
            == [list(lam1), list(lam), list(mu)]
            and len(rows) == (2 if workloads.two_dim(call.path) else 1)
            and all(row["a"] == row["a_oracle"] == row["a_tilde"] for row in rows)
        )
        return 0 if ok else call.cases
    except (ValueError, KeyError, TypeError):
        return call.cases


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--group", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from bosonfermion import cli, symgroup

    calls = workloads.pass_plan(args.workload, args.seed, args.smoke)[args.group]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    profiler = cProfile.Profile(builtins=False) if args.trace else None
    speed = HostSpeed()
    spans: list = []
    with contextlib.nullcontext() if args.trace else speed:
        failed = run_calls(cli, calls, profiler, spans)
    first, last = spans[0][1], spans[-1][2]
    if args.trace:
        wall_s = norm_wall_s = last - first
    else:
        wall_s, norm_wall_s = speed.program_time(first, last)

    report = {
        "wall_s": wall_s,
        "norm_wall_s": norm_wall_s,
        "kernel_s": [k for _, k in speed.samples],
        "cases": sum(c.cases for c in calls),
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": spans,
    }
    if profiler:
        report["layers"] = layer_figures(profiler)
        report["caches"] = cache_counts(symgroup)
    print(json.dumps(report), flush=True)
    return 0


def run_calls(cli, calls, profiler, spans: list) -> int:
    """Run and check each call in turn, appending its span; return cases failed."""
    failed = 0
    for call in calls:
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if profiler:
                    profiler.enable()
                try:
                    rc = cli.main(list(call.argv))
                finally:
                    if profiler:
                        profiler.disable()
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = None
        end = time.perf_counter()
        spans.append([call.name, start, end])
        failed += call.cases if rc is None else check(call, rc, out.getvalue())
    return failed


if __name__ == "__main__":
    sys.exit(main())
