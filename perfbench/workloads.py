"""Workload definitions shared by run.py and its child processes.

Standard library only: the inputs are generated here, never by the program
under test, so a change to the program cannot change what it is asked.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("bfhcl_sweep", "relations", "coeff_point")

# Suite calls per workload as (suite, --max-size, pinned case count).  The
# sizes are written out, not left to the suite defaults, so that a change of
# default cannot change the work silently; the pinned counts are the seed
# commit's and any other count is a failed call.
SUITE_CALLS = {
    "bfhcl_sweep": (("bfhcl", 9, 717),),
    "relations": (
        ("clifford", 8, 30485),
        ("heisenberg", 10, 2539),
        ("serre", 10, 6033),
        ("resolutions", 6, 302),
        ("identities", 12, 661),
    ),
}
SMOKE_SUITE_CALLS = {
    "bfhcl_sweep": (("bfhcl", 4, 47),),
    "relations": (
        ("clifford", 2, 1820),
        ("heisenberg", 3, 567),
        ("serre", 3, 250),
        ("resolutions", 2, 71),
        ("identities", 2, 411),
    ),
}

# coeff_point: (|mu|, one-shot queries per pass).
COEFF = (10, 10)
SMOKE_COEFF = (5, 4)


@dataclass(frozen=True)
class Call:
    """One verification call: the CLI arguments and the cases it must check."""

    name: str
    argv: tuple[str, ...]
    cases: int
    path: tuple | None = None  # (lam1, lam, mu) for a coeff query


def partitions_of(n: int, largest: int | None = None):
    """Partitions of n with parts at most ``largest``, in decreasing order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def removals(p: tuple) -> list[tuple]:
    """Partitions obtained from p by removing one corner box."""
    out = []
    for i, row in enumerate(p):
        if i + 1 == len(p) or p[i + 1] < row:
            out.append(tuple(x for x in p[:i] + (row - 1,) + p[i + 1:] if x))
    return out


def added_box(small: tuple, big: tuple) -> tuple[int, int]:
    """(row, col) of the single box of ``big`` that ``small`` lacks."""
    for i, row in enumerate(big):
        if i >= len(small) or small[i] < row:
            return i + 1, row
    raise ValueError(f"{big} does not cover {small}")


def two_dim(path: tuple) -> bool:
    """True when the two added boxes share neither row nor column."""
    lam1, lam, mu = path
    b1, b2 = added_box(lam1, lam), added_box(lam, mu)
    return b1[0] != b2[0] and b1[1] != b2[1]


def dimension(p: tuple) -> int:
    """Number of standard tableaux of shape p, by the hook length formula."""
    cols = [sum(1 for row in p if row > j) for j in range(p[0])] if p else []
    hooks = 1
    for i, row in enumerate(p):
        for j in range(row):
            hooks *= (row - j - 1) + (cols[j] - i - 1) + 1
    return math.factorial(sum(p)) // hooks


def removal_paths(size: int) -> list[tuple]:
    """Every two-step removal path (lam1, lam, mu) with |mu| = size."""
    return [
        (lam1, lam, mu)
        for mu in partitions_of(size)
        for lam in sorted(removals(mu))
        for lam1 in sorted(removals(lam))
    ]


def cost_rank(path: tuple) -> int:
    """A-priori cost of a coefficient query, for stratifying the sample.

    The oracle multiplies an f^lam1 x f^mu composite by the f^mu x f^mu swap
    matrix once per branch, and that product dominates the measured cost.
    """
    lam1, _, mu = path
    return (2 if two_dim(path) else 1) * dimension(lam1) * dimension(mu) ** 2


def coeff_sample(seed: int, size: int, queries: int) -> list[tuple]:
    """The seed's sample: one path from each of ``queries`` cost strata.

    Paths are ranked by ``cost_rank`` and cut into strata of equal summed
    cost, so the few expensive paths that dominate a pass's time fall in
    strata of their own and every seed's sample costs about the same.
    """
    ranked = sorted(removal_paths(size), key=lambda p: (cost_rank(p), p))
    costs = [cost_rank(p) for p in ranked]
    total, acc, start, strata = sum(costs), 0, 0, []
    for i, cost in enumerate(costs):
        acc += cost
        if acc * queries >= total * (len(strata) + 1):
            strata.append(ranked[start:i + 1])
            start = i + 1
    rng = random.Random(seed)
    return [stratum[rng.randrange(len(stratum))] for stratum in strata]


def text(p: tuple) -> str:
    return "(" + ",".join(str(x) for x in p) + ")"


def suite_calls(workload: str, smoke: bool) -> list[Call]:
    table = SMOKE_SUITE_CALLS if smoke else SUITE_CALLS
    return [
        Call(suite, ("verify", "--suite", suite, "--max-size", str(size), "--json"), cases)
        for suite, size, cases in table[workload]
    ]


def coeff_call(path: tuple) -> Call:
    lam1, lam, mu = path
    argv = ("coeff", "--lam1", text(lam1), "--lam", text(lam), "--mu", text(mu), "--json")
    return Call("coeff", argv, 1, path)


def pass_plan(workload: str, seed: int, smoke: bool) -> list[list[Call]]:
    """The calls of one pass, grouped by the fresh interpreter that runs them.

    Suites of a workload share one interpreter; every coefficient query gets
    its own, as a one-shot command line user's does, so no cache outlives it.
    """
    if workload in SUITE_CALLS:
        return [suite_calls(workload, smoke)]
    if workload == "coeff_point":
        size, queries = SMOKE_COEFF if smoke else COEFF
        return [[coeff_call(path)] for path in coeff_sample(seed, size, queries)]
    raise KeyError(workload)
