"""Command line front end: operator actions, coefficients, complexes, sweeps.

``SUBCOMMANDS`` is the one place a subcommand is declared: its help line, its
handler and its options.  A call builds the parser of its own subcommand only.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import correspondence as co
from . import fock, quiver, schur, symgroup
from .fock import FockVector
from .partitions import ChargedSequence, as_partition, content
from .quiver import label_text
from .ratmat import format_fraction
from .schur import SchurVector, schur_basis
from .suites import SUITES, run_suite

USAGE_ERROR = 2
# Largest |index| accepted by every indexed operator of ``act``: their work
# and memory grow with the index (an image's masks reach the value about
# 2 * index, the truncated sums apply one word per index up to it, and a strip
# of length m adds or removes m boxes, building m rows of the dual shape).
MAX_FOCK_INDEX = 1000
# Largest |charge| and |entry| of an ``act --on`` sequence, checked before its
# masks, of |charge| and |entry| / 2 bits, are built.  At both caps the worst
# input found, sn1000 on seq:1000:-2000,-1998,...,2000 (2001 images of 2001
# entries) took 1.3 to 1.7 s and 211 MB, printing 24 MB with --json (2-vCPU x86).
MAX_FOCK_CHARGE = 1000
MAX_FOCK_ENTRY = 2000
# Largest partition a strip operator of ``act`` reads or builds: |lam| for
# q_row and q_col, |lam| + m for p_row and p_col.  The strip enumerator walks
# the rows without recursing, so a long row or column is cheap (q_col1 on
# (2000) takes 0.14 s with this cap lifted); the cap bounds the images it lists
# and prints: q_row10 on the 40-row staircase has 8.5e8.  At the cap the worst
# input a search over shapes found took 0.85 to 0.93 s and 66 MB (p_col16 on
# the dual of (26,19,15,10,7,4,2,1): 37798 images, --json, 2-vCPU x86 host).
MAX_STRIP_SIZE = 100
# Largest k of ``det`` and largest first row of ``complex``: C is k x k, its
# determinant takes about k^3 / 3 integer operations on entries that grow to
# k x k minors of the row-scaled C (``det --lam "(60,30,10)" --k 60 --json``
# takes 0.26 to 0.35 s and 19 MB, import included, on a 2-vCPU x86 host), and
# ``complex`` builds and prints C with k = lam_1 (lam_1 = 400 printed 20 MB).
MAX_DET_K = 60
# Largest row count of ``det`` and ``complex``: C's entries 1/(i + lam'_j - j)!
# grow with the rows.  The worst input at the cap, 40 rows of 60 with k = 60,
# has a 3955-digit determinant (at 44 rows it passes Python's 4300-digit limit
# on printing an int); ``det --json`` took 0.46 to 0.65 s and 20 MB on it, and
# ``complex --json`` 0.10 to 0.11 s and 19 MB (2-vCPU x86 host).
MAX_DET_ROWS = 40
# Largest |mu| of ``coeff``.  The oracle acts on one content vector of lam1,
# so no route grows with the number of tableaux: the path (5,4,2,1) ->
# (5,4,3,1) -> (5,4,3,2), |mu| = 14, takes 0.14 to 0.16 s and 17 MB, import
# included (2-vCPU x86 host).  The cap stays at 14, the size the
# ``coeff`` group of ``tools/cli_corpus.py`` pins with its over-cap call
# (13) -> (14) -> (15).
MAX_COEFF_SIZE = 14
# Largest n of ``resolve``: the q resolution has n + 1 labels of n rows each,
# so its time, memory and output grow at least quadratically in n.  At 500
# every kind took at most 0.35 s and 31 MB, with or without --json; q took
# 1.6 s and 44 MB at 1000, and 10.8 s and 117 MB at 2000 (2-vCPU x86 host).
MAX_RESOLVE_N = 500
# Largest label count of ``resolve --kind simple``, the product of (m + 1) over
# the distinct parts of --lam of multiplicity m: a staircase of k rows has 2^k,
# and staircases of 14, 15 and 16 rows took 0.4, 0.7 and 1.2 s (--n 500, --json).
# The worst input at the cap has long labels, since --n <= 500 and not this cap
# bounds a label's length: 127 rows of 2 over 127 rows of 1 (16384 labels of
# 254 rows, --n 500, --json) took 0.97 to 1.03 s and 87 MB and printed 9.4 MB
# (2-vCPU x86 host).
MAX_SIMPLE_LABELS = 16384
# Largest first row of ``resolve --kind simple``: its vertical strips are
# enumerated on the dual of --lam, which has lam_1 rows, and every label is
# transposed across them, so at a fixed label count the time grows with lam_1.
# 127 rows of L over 127 rows of 1 (16384 labels, --n 500, --json) took 0.97 to
# 1.03 s at L = 2, 1.19 to 1.37 s and 92 MB at the cap L = 20, and with the
# cap lifted 1.6 to 1.7, 2.6 and 3.6 to 4.0 s at L = 40, 100 and 200 (2-vCPU
# x86 host).
MAX_SIMPLE_FIRST_ROW = 20


class CliError(ValueError):
    pass


def parse_partition(text: str):
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise CliError(f"cannot parse partition {text!r}; expected e.g. \"(2,1)\" or \"()\"")
    inner = body[1:-1].strip().rstrip(",")
    if not inner:
        return ()
    try:
        return as_partition(int(x) for x in inner.split(","))
    except ValueError as exc:
        raise CliError(f"bad partition {text!r}: {exc}") from exc


def parse_sequence(text: str) -> ChargedSequence:
    body = text.strip()
    if body.startswith("vac:"):
        try:
            charge, entries = int(body[4:]), []
        except ValueError as exc:
            raise CliError(f"bad vacuum charge in {text!r}") from exc
    elif body.startswith("seq:"):
        parts = body.split(":")
        if len(parts) != 3:
            raise CliError(f"expected seq:<charge>:<entries> in {text!r}")
        try:
            charge = int(parts[1])
            entries = [int(x) for x in parts[2].split(",")] if parts[2] else []
        except ValueError as exc:
            raise CliError(f"bad sequence {text!r}: {exc}") from exc
    else:
        raise CliError(f"cannot parse sequence {text!r}; expected vac:<k> or seq:<k>:<entries>")
    if abs(charge) > MAX_FOCK_CHARGE:
        raise CliError(f"charge {charge} in {text!r} exceeds the cap |charge| <= {MAX_FOCK_CHARGE}")
    for x in entries:
        if abs(x) > MAX_FOCK_ENTRY:
            raise CliError(f"entry {x} in {text!r} exceeds the cap |entry| <= {MAX_FOCK_ENTRY}")
    try:
        return ChargedSequence.of(charge, entries)
    except ValueError as exc:
        raise CliError(f"bad sequence {text!r}: {exc}") from exc


def schur_text(v: SchurVector) -> str:
    return v.to_text(label_text, reverse=True)


def fock_text(v: FockVector) -> str:
    return v.to_text(fock.sequence_text)


_FOCK_OP = re.compile(r"^(t|psi\*|psi|sbar|sn|gq|gp|tau)(-?\d+)$")
_SCHUR_OP = re.compile(r"^(p_row|p_col|q_row|q_col)(\d+)$")


# Operator name -> (space it acts on, call on (index, vector)).  Each call
# looks its function up in ``schur`` or ``fock`` when it runs, so a patched
# operator is the one ``act`` applies.
_ACT = {
    "q": ("schur", lambda _, v: schur.apply_q(v)),
    "p": ("schur", lambda _, v: schur.apply_p(v)),
    "p_row": ("schur", lambda m, v: schur.apply_p_row(m, v)),
    "p_col": ("schur", lambda m, v: schur.apply_p_col(m, v)),
    "q_row": ("schur", lambda n, v: schur.apply_q_row(n, v)),
    "q_col": ("schur", lambda n, v: schur.apply_q_col(n, v)),
    "t": ("fock", lambda i, v: fock.apply_t(i, v)),
    "psi": ("fock", lambda j, v: fock.apply_psi(j, v)),
    "psi*": ("fock", lambda j, v: fock.apply_psi_star(j, v)),
    "sbar": ("fock", lambda n, v: fock.s_bar_n(n, v)),
    "sn": ("fock", lambda n, v: fock.s_n_op(n, v)),
    "gq": ("fock", lambda n, v: fock.g_q_trunc(n, v)),
    "gp": ("fock", lambda n, v: fock.g_p_trunc(n, v)),
    "tau": ("fock", lambda s, v: fock.tau(v, s)),
}


def run_act(args) -> int:
    op = args.op.strip()
    m = _SCHUR_OP.match(op) or _FOCK_OP.match(op)
    if op in ("q", "p"):
        name, idx = op, None
    elif m:
        name, idx = m.group(1), int(m.group(2))
    else:
        raise CliError(f"unknown operator {args.op!r}")
    if idx is not None and abs(idx) > MAX_FOCK_INDEX:
        raise CliError(f"index {idx} of {name!r} exceeds the cap |index| <= {MAX_FOCK_INDEX}")
    space, act = _ACT[name]
    if space == "schur":
        lam = parse_partition(args.on)
        reach = sum(lam) + (idx if name.startswith("p_") else 0)
        if idx is not None and reach > MAX_STRIP_SIZE:
            raise CliError(f"{op} works on a partition of size {reach}, above the cap {MAX_STRIP_SIZE}")
        v, text = schur_basis(lam), schur_text
    else:
        v, text = FockVector.basis(parse_sequence(args.on)), fock_text
    out = act(idx, v)
    print(json.dumps({"op": op, "vector": out.to_json()}) if args.json else text(out))
    return 0


def run_coeff(args) -> int:
    lam1 = parse_partition(args.lam1)
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    if sum(mu) > MAX_COEFF_SIZE:
        raise CliError(f"|mu| = {sum(mu)} exceeds the cap |mu| <= {MAX_COEFF_SIZE}")
    try:
        path = symgroup.removal_path(lam1, lam, mu)
    except ValueError:
        raise CliError(f"{lam1} -> {lam} -> {mu} is not a removal path") from None
    d = content(path.b2) - content(path.b1)
    rows = co.check_path(path, co.corner_solutions(path.lam))
    # the rows hold Fractions; coeff prints each as "p" or "p/q"
    routes = ("a", "a_oracle", "a_tilde")
    branches = [{"branch": row["branch"], **{r: format_fraction(row[r]) for r in routes}} for row in rows]
    payload = {
        "lam1": list(lam1),
        "lam": list(lam),
        "mu": list(mu),
        "d": d,
        "h_lam_mu": format_fraction(symgroup.h_coeff(lam, mu)),
        "h_lam1_lam": format_fraction(symgroup.h_coeff(lam1, lam)),
        "branches": branches,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"path {label_text(lam1)} -> {label_text(lam)} -> {label_text(mu)}")
        print(f"d = {d}   h[lam->mu] = {payload['h_lam_mu']}   h[lam1->lam] = {payload['h_lam1_lam']}")
        for row in branches:
            print(
                f"branch {row['branch']:>3}:  a = {row['a']:>8}  oracle = {row['a_oracle']:>8}"
                f"  solved = {row['a_tilde']:>8}"
            )
    return 0 if all(row["pass"] for row in rows) else 1


def run_complex(args) -> int:
    lam = parse_partition(args.lam)
    if lam and lam[0] > MAX_DET_K:
        raise CliError(f"lam_1 = {lam[0]} exceeds the cap lam_1 <= {MAX_DET_K}")
    if len(lam) > MAX_DET_ROWS:
        raise CliError(f"len(lam) = {len(lam)} exceeds the cap len(lam) <= {MAX_DET_ROWS}")
    w = co.wtq_tensor(lam)
    if args.json:
        print(json.dumps(w.to_json()))
        return 0
    base = fock_text(FockVector.basis(co.to_sequence(lam)))
    print(f"removal complex against P({base}):")
    if w.k == 0:
        print("  zero complex")
        return 0
    for component in w.components:
        i, kind, label, _ = component
        seq = fock_text(FockVector.basis(co.to_sequence(label)))
        coeffs = w.arrows_for(component)
        arrows = " + ".join(
            f"{format_fraction(c)}*R({row})" for row, c in enumerate(coeffs, start=1) if c
        )
        print(f"  [i={i}] {kind:<6} P({seq})  ->  {arrows if arrows else '0'}")
    print(f"  degree 1: R(1..{w.k}), each a copy of P({base})")
    quotients = ", ".join(label_text(q) for q in w.quotient_labels())
    print(f"  quotient labels: {quotients if quotients else 'none'}")
    return 0


def run_resolve(args) -> int:
    n = args.n
    if n < 0:
        raise CliError(f"--n must be non-negative, got {n}")
    lam = parse_partition(args.lam)
    if n > MAX_RESOLVE_N:
        raise CliError(f"--n {n} exceeds the cap --n <= {MAX_RESOLVE_N}")
    if args.kind == "simple":
        if lam and lam[0] > MAX_SIMPLE_FIRST_ROW:
            raise CliError(f"lam_1 = {lam[0]} exceeds the cap lam_1 <= {MAX_SIMPLE_FIRST_ROW}")
        labels = math.prod(lam.count(x) + 1 for x in set(lam))
        if labels > MAX_SIMPLE_LABELS:
            raise CliError(f"the simple resolution has {labels} labels, above the cap {MAX_SIMPLE_LABELS}")
    if args.kind == "q":
        res = quiver.resolution_q(lam, n)
        suffix = f" -> Q{label_text(lam)}"
    elif args.kind == "dfp":
        res = quiver.resolution_df_p(lam, n)
        suffix = ""
    else:
        res = quiver.resolution_simple(lam, n)
        suffix = f" -> L{label_text(lam)}"
    if args.json:
        print(json.dumps({"kind": args.kind, "lam": list(lam), "n": n, "terms": res.to_json()}))
    else:
        print(res.arrow_text() + suffix)
    return 0


def run_det(args) -> int:
    lam = parse_partition(args.lam)
    if len(lam) > MAX_DET_ROWS:
        raise CliError(f"len(lam) = {len(lam)} exceeds the cap len(lam) <= {MAX_DET_ROWS}")
    k = args.k if args.k is not None else (lam[0] if lam else 1)
    if k < 0:
        raise CliError(f"k must be non-negative, got {k}")
    if k > MAX_DET_K:
        raise CliError(f"k={k} exceeds the cap k <= {MAX_DET_K}")
    c = co.matrix_c(lam, k)
    direct = c.det()
    closed = co.det_a_closed(lam, k)
    payload = {
        "lam": list(lam),
        "k": k,
        "c_matrix": c.to_strings(),
        "det_direct": format_fraction(direct),
        "det_closed": format_fraction(closed),
        "equal": direct == closed,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"C for lam={label_text(lam)}, k={k}:")
        for row in c.to_strings():
            print("  [" + ", ".join(row) + "]")
        print(f"det (direct) = {payload['det_direct']}")
        print(f"det (closed) = {payload['det_closed']}")
        print("equal" if payload["equal"] else "MISMATCH")
    return 0 if payload["equal"] else 1


def run_verify(args) -> int:
    if args.max_size is not None and args.max_size < 0:
        raise CliError(f"--max-size must be non-negative, got {args.max_size}")
    cap = SUITES[args.suite][2]
    if args.max_size is not None and args.max_size > cap:
        raise CliError(f"--max-size {args.max_size} exceeds the cap --max-size <= {cap} of suite {args.suite}")
    try:
        result = run_suite(args.suite, args.max_size)
    except Exception as exc:
        # the arguments were checked above, so this is a broken invariant, not bad input
        print(f"error: suite {args.suite} aborted: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.to_json()))
    else:
        print(f"suite {result.name}: {result.cases} cases")
        for key in sorted(result.failures):
            print(f"  FAIL {key}")
        print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


# Subcommand name -> (help line, handler, option specs).  Each spec is the
# option string and the keyword arguments of ``add_argument``; every
# subcommand also takes ``--json``, added last.
SUBCOMMANDS = {
    "act": ("apply an operator to a basis vector", run_act, (
        ("--op", {
            "required": True,
            "help": "t<i>, psi<j>, psi*<j>, q, p, p_row<m>, p_col<m>, q_row<m>, q_col<m>, "
                    "sbar<n>, sn<n>, gq<N>, gp<N>, tau<s>",
        }),
        ("--on", {"required": True, "help": '"(2,1)" or vac:<k> or seq:<k>:<entries>'}),
    )),
    "coeff": ("coefficients along a two-step removal path", run_coeff, (
        ("--lam1", {"required": True}),
        ("--lam", {"required": True}),
        ("--mu", {"required": True}),
    )),
    "complex": ("the collapsed removal complex against one projective", run_complex, (
        ("--lam", {"required": True}),
    )),
    "resolve": ("projective resolutions in the truncated algebras", run_resolve, (
        ("--kind", {"required": True, "choices": ["q", "dfp", "simple"]}),
        ("--lam", {"required": True}),
        ("--n", {"required": True, "type": int}),
    )),
    "det": ("factorial matrix and its determinant, both routes", run_det, (
        ("--lam", {"required": True}),
        ("--k", {"type": int, "default": None}),
    )),
    "verify": ("run a named verification sweep", run_verify, (
        ("--suite", {"required": True, "choices": sorted(SUITES)}),
        ("--max-size", {"type": int, "default": None}),
    )),
}


def build_parser(names=SUBCOMMANDS) -> argparse.ArgumentParser:
    """The top-level parser with the subcommands in ``names``, in declaration order."""
    parser = argparse.ArgumentParser(
        prog="bosonfermion",
        description="Exact Fock space operators and coefficient verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, fn, options) in SUBCOMMANDS.items():
        if name not in names:
            continue
        command = sub.add_parser(name, help=help_line)
        for flag, spec in options:
            command.add_argument(flag, **spec)
        command.add_argument("--json", action="store_true")
        command.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Build only the subcommand the call names.  Help, usage and every error
    # the top level reports (no or an unknown command, leftover arguments)
    # come from the full parser, so they read as before.
    args, extra = None, None
    if argv and argv[0] in SUBCOMMANDS:
        args, extra = build_parser(argv[:1]).parse_known_args(argv)
    if args is None or extra:
        args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
