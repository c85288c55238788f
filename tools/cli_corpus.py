"""Digest of the command line's output on a fixed corpus of calls.

Runs every call through ``bosonfermion.cli.main`` in this one interpreter and
prints, per group and in total, a sha256 of each call's (argv, exit code,
stdout, stderr).  Two checkouts whose digests agree print the same bytes and
exit codes on the whole corpus:

    PYTHONPATH=<checkout>/src python tools/cli_corpus.py [group ...]

Groups, each call in text and with --json (``verify`` with --json only):
``act`` (every operator over small indices and inputs, plus bad operators,
indices and charges), ``coeff`` (every removal path with |mu| <= 8, plus
invalid paths), ``complex`` (|lam| <= 8), ``det`` (|lam| <= 6 at the default
k and two larger k, plus a negative and an over-cap k), ``resolve`` (the
three kinds for |lam| <= 6 and n <= 4) and ``verify`` (every suite at its
default size and bfhcl at 9-11).  Together they run all six subcommands.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

from bosonfermion import cli
from bosonfermion.partitions import partitions_up_to, res_set
from bosonfermion.quiver import label_text as text
from bosonfermion.suites import SUITES


def act_calls():
    schur_inputs = ("()", "(1)", "(2,1)", "(3,1,1)")
    fock_inputs = ("vac:0", "vac:-1", "seq:0:0,2", "seq:1:0,4")
    calls = [(op, on) for op in ("q", "p") for on in schur_inputs]
    calls += [
        (f"{op}{m}", on)
        for op in ("p_row", "p_col", "q_row", "q_col")
        for m in range(4)
        for on in schur_inputs
    ]
    calls += [
        (f"{op}{i}", on)
        for op in ("t", "psi", "psi*", "sbar", "sn", "gq", "gp", "tau")
        for i in range(-2, 4)
        for on in fock_inputs
    ]
    calls += [
        ("t1001", "vac:0"),  # index over the cap
        ("q_row1001", "(1)"),  # strip length over the cap
        ("t1", "vac:1001"),  # charge over the cap
        ("x1", "vac:0"),  # unknown operator
        ("t1", "seq:0:a"),  # parse error
        ("q", "vac:0"),  # sequence given to a Schur operator
    ]
    for op, on in calls:
        argv = ["act", "--op", op, "--on", on]
        yield argv
        yield argv + ["--json"]


def coeff_calls():
    paths = [
        (text(lam1), text(lam), text(mu))
        for mu in partitions_up_to(8)
        for lam in sorted(res_set(mu))
        for lam1 in sorted(res_set(lam))
    ]
    paths += [
        ("(2)", "(1)", "(2,1)"),  # lam1 above lam
        ("(1)", "(1)", "(2)"),  # no box added to lam1
        ("()", "(2)", "(2,1)"),  # two boxes added to lam1
        ("(1)", "(2)", "(3,1)"),  # two boxes added to lam
        ("(1,0)", "(2,0)", "(2,1,0)"),  # trailing zeros
        ("(13)", "(14)", "(15)"),  # over the size cap
        ("(1)", "(2)", "(a)"),  # parse error
    ]
    for lam1, lam, mu in paths:
        argv = ["coeff", "--lam1", lam1, "--lam", lam, "--mu", mu]
        yield argv
        yield argv + ["--json"]


def verify_calls():
    for suite in sorted(SUITES):
        yield ["verify", "--suite", suite, "--json"]
    for size in (9, 10, 11):
        yield ["verify", "--suite", "bfhcl", "--max-size", str(size), "--json"]


def det_calls():
    calls = []
    for lam in partitions_up_to(6):
        k = lam[0] if lam else 1
        calls += [[text(lam)], [text(lam), "--k", str(k + 1)], [text(lam), "--k", str(k + 3)]]
    calls += [["(2,1)", "--k", "-1"], ["(2,1)", "--k", "61"]]  # negative and over the cap
    for lam, *k in calls:
        argv = ["det", "--lam", lam, *k]
        yield argv
        yield argv + ["--json"]


def resolve_calls():
    for lam in partitions_up_to(6):
        for n in range(5):
            for kind in ("q", "dfp", "simple"):
                argv = ["resolve", "--kind", kind, "--lam", text(lam), "--n", str(n)]
                yield argv
                yield argv + ["--json"]


def complex_calls():
    for lam in partitions_up_to(8):
        yield ["complex", "--lam", text(lam)]
        yield ["complex", "--lam", text(lam), "--json"]


GROUPS = {
    "coeff": coeff_calls,
    "verify": verify_calls,
    "resolve": resolve_calls,
    "complex": complex_calls,
    "act": act_calls,
    "det": det_calls,
}


def run(argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode()


def main(names) -> int:
    unknown = [name for name in names if name not in GROUPS]
    if unknown:
        print(f"unknown group(s) {', '.join(unknown)}; choose from {', '.join(GROUPS)}", file=sys.stderr)
        return 2
    total = hashlib.sha256()
    for name in names or GROUPS:
        digest, calls = hashlib.sha256(), 0
        for argv in GROUPS[name]():
            digest.update(hashlib.sha256(run(argv)).digest())
            calls += 1
        total.update(digest.digest())
        print(f"{name:<8} {calls:>5} calls  {digest.hexdigest()}")
    print(f"{'total':<8} {'':>5}        {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
