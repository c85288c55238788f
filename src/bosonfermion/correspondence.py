"""Coefficient verification for the box-removal complex.

Tensoring the removal complex against the projective labelled by a partition
collapses, for each column index of the partition, to copies of the same
projective in two neighbouring degrees plus one extra projective for every
removable corner.  The differential between the repeated copies is the
factorial matrix C below; it is nonsingular, with determinant given by a
Cauchy-type closed form, and inverting it against the corner column yields
the coefficients named a-tilde here.  C is written once, as rows scaled to
integers (``_c_rows``), and eliminated on them.  C depends on the partition
alone, so one elimination serves all of its corners; the ``bfhcl`` sweep
makes it once per partition lam, checks the resulting coefficients on every
removal path through lam against the representation-theoretic values from
:mod:`bosonfermion.symgroup`, and drops it when lam is done.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import ratmat, symgroup
from .fock import FockVector, s_n_op
from .partitions import (
    Partition,
    added_box,
    as_partition,
    content,
    dual,
    lambda_t,
    part,
    partitions_of,
    removable_corners,
    remove_box,
    res_set,
    to_sequence,
)
from .ratmat import RationalMatrix, format_fraction


def inv_factorial(s: int) -> Fraction:
    """1/s!, with the convention that the reciprocal of a negative factorial is zero."""
    return Fraction(0) if s < 0 else Fraction(1, factorial(s))


def f_sum(s: int, t: int) -> Fraction:
    """Alternating factorial sum, by its defining expression."""
    if t < 1:
        raise ValueError("t must be at least 1")
    total = Fraction(0)
    for j in range(t):
        e = s + t - 1 - j
        term = inv_factorial(e) * inv_factorial(j)
        total += -term if e % 2 else term
    return total


def f_closed(s: int, t: int) -> Fraction:
    """Closed form of :func:`f_sum`."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if s <= 0:
        return Fraction(1) if t + s == 1 else Fraction(0)
    sign = -1 if s % 2 else 1
    return Fraction(sign, factorial(s - 1) * factorial(t - 1) * (s + t - 1))


def cauchy_det(a, b) -> Fraction:
    """Closed-form determinant of the matrix with entries 1/(a_i + b_j)."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    if len(a) != len(b):
        raise ValueError("index lists must have equal length")
    denom = Fraction(1)
    for x in a:
        for y in b:
            s = x + y
            if s == 0:
                raise ValueError(f"singular denominator: {x} + {y} = 0")
            denom *= s
    numer = Fraction(1)
    k = len(a)
    for i in range(k):
        for j in range(i + 1, k):
            numer *= (a[i] - a[j]) * (b[i] - b[j])
    return numer / denom


def _padded_dual(lam: Partition, k: int) -> list[int]:
    cols = dual(lam)
    if k < len(cols):
        raise ValueError(f"k={k} is smaller than the {len(cols)} columns of {lam}")
    return [part(cols, j) for j in range(1, k + 1)]


def _c_rows(lam: Partition, k: int, anchors=()) -> list[tuple[int, list[int]]]:
    """Row i of C, followed by 1/(i - a)! for each anchor a, on integers: (scale, entries) per row.

    Entry (i, j) of C is 1/e!, e = i + cols_j - j with the columns of lam
    padded by zeros, and zero for e < 0.  Each row is scaled by the largest
    factorial its entries divide, top = m! with m the largest e, so 1/e!
    becomes ``top // e!``.  This is the one definition of C.
    """
    cols = _padded_dual(lam, k)
    rows = []
    for i in range(1, k + 1):
        exponents = [i + c - j for j, c in enumerate(cols, start=1)] + [i - a for a in anchors]
        top = factorial(max(exponents))
        rows.append((top, [top // factorial(e) if e >= 0 else 0 for e in exponents]))
    return rows


def matrix_c(lam, k: int) -> RationalMatrix:
    """The k x k factorial matrix of the collapsed differential: the rows of ``_c_rows`` over their scales."""
    lam = as_partition(lam)
    return RationalMatrix([[Fraction(x, top) for x in row] for top, row in _c_rows(lam, k)])


def matrix_b(k: int) -> RationalMatrix:
    """Unitriangular matrix with alternating inverse factorials below the diagonal."""
    if k < 1:
        raise ValueError("k must be positive")
    data = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, k + 1):
            if i >= j:
                v = inv_factorial(i - j)
                row.append(-v if (i - j) % 2 else v)
            else:
                row.append(Fraction(0))
        data.append(row)
    return RationalMatrix(data)


def matrix_a_closed(lam, k: int) -> RationalMatrix:
    """Closed form of the product of :func:`matrix_b` and :func:`matrix_c`."""
    lam = as_partition(lam)
    cols = _padded_dual(lam, k)
    data = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, k + 1):
            e = cols[j - 1] - j
            if e >= 0:
                sign = 1 if (i + 1) % 2 == 0 else -1
                row.append(Fraction(sign, factorial(e) * factorial(i - 1) * (e + i)))
            else:
                row.append(Fraction(1 if i == j - cols[j - 1] else 0))
        data.append(row)
    return RationalMatrix(data)


def det_a_closed(lam, k: int) -> Fraction:
    """Closed-form determinant of :func:`matrix_a_closed` (equals det of C).

    Unit columns are expanded away; the remaining block is diagonal scalings
    of a Cauchy matrix on the row indices and the shifted column counts, so
    the determinant is a signed ratio of factorials and Vandermonde products.
    """
    lam = as_partition(lam)
    cols = _padded_dual(lam, k)
    p = sum(1 for j in range(1, k + 1) if cols[j - 1] - j >= 0)
    unit_rows = {j - cols[j - 1] for j in range(p + 1, k + 1)}
    idx = [i for i in range(1, k + 1) if i not in unit_rows]
    shifts = [cols[j - 1] - j for j in range(1, p + 1)]
    v = sum(i + 1 for i in idx) + sum(cols[j - 1] for j in range(p + 1, k + 1))
    value = Fraction(-1 if v % 2 else 1)
    for e in shifts:
        value /= factorial(e)
    for i in idx:
        value /= factorial(i - 1)
    for i in idx:
        for e in shifts:
            value /= e + i
    for x in range(len(shifts)):
        for y in range(x + 1, len(shifts)):
            value *= shifts[x] - shifts[y]
    for x in range(len(idx)):
        for y in range(x + 1, len(idx)):
            value *= idx[x] - idx[y]
    return value


# ---------------------------------------------------------------------------
# the collapsed complex

@dataclass
class WtqComplex:
    """Collapsed form of the removal complex tensored against one projective.

    ``components`` lists the degree-zero summands by increasing window index:
    one repeated copy for each column of the partition and one corner copy
    for each removable corner.  Degree one carries ``k`` repeated copies; the
    repeated-to-repeated differential is ``c_matrix`` and each corner copy
    maps in through its ``corner_columns`` vector of inverse factorials.
    """

    lam: Partition
    k: int
    # (window index, "copy"|"corner", label, j for copies / l for corners)
    components: list[tuple[int, str, Partition, int]]
    c_matrix: RationalMatrix
    corner_columns: dict[int, list[Fraction]]  # keyed by corner column index l

    def quotient_labels(self) -> list[Partition]:
        return [label for (_, kind, label, _) in self.components if kind == "corner"]

    def arrows_for(self, component) -> list[Fraction]:
        """Differential coefficients from one degree-0 summand into the k copies."""
        _, kind, _, ref = component
        if kind == "copy":
            return self.c_matrix.column(ref - 1)
        return list(self.corner_columns[ref])

    def to_json(self):
        return {
            "partition": list(self.lam),
            "copies": self.k,
            "degree0": [
                {"window": i, "kind": kind, "label": list(label), "index": ref}
                for (i, kind, label, ref) in self.components
            ],
            "c_matrix": self.c_matrix.to_strings(),
            "corner_columns": {
                str(l): [format_fraction(x) for x in col]
                for l, col in sorted(self.corner_columns.items())
            },
        }


def wtq_tensor(lam) -> WtqComplex:
    """Classify the window indices and assemble the collapsed differential."""
    lam = as_partition(lam)
    cols = dual(lam)
    k = len(cols)
    if k == 0:
        return WtqComplex(lam, 0, [], RationalMatrix([]), {})
    copy_index = {-cols[j - 1] + j: j for j in range(1, k + 1)}
    corner_index = {content(box) + 1: box for box in removable_corners(lam)}
    components = []
    corner_columns = {}
    for i in range(-cols[0] + 1, k + 1):
        if i in copy_index:
            components.append((i, "copy", lam, copy_index[i]))
        elif i in corner_index:
            box = corner_index[i]
            components.append((i, "corner", remove_box(lam, box), box[1]))
            corner_columns[box[1]] = [inv_factorial(row - i) for row in range(1, k + 1)]
    return WtqComplex(lam, k, components, matrix_c(lam, k), corner_columns)


def corner_solutions(lam: Partition) -> dict[int, list[Fraction]]:
    """The chain-map solution of every corner of lam, keyed by its window index, from one elimination.

    Each corner contributes one right-hand side: minus the inverse factorials
    measured from its window index ``content(b1) + 1``, with b1 the corner
    box.  The window has lam_1 + 1 copies, which hold the column j0 of every
    box addable to lam, so one solve serves every mu above lam.  The integer
    rows of ``_c_rows``, right-hand sides included, go to ``ratmat._bareiss``
    as they are, so a ``Fraction`` is made only for each solution component.
    """
    anchors = [content(box) + 1 for box in removable_corners(lam)]
    k = lam[0] + 1
    rank, _, _, pivot, rows = ratmat._bareiss([row for _, row in _c_rows(lam, k, anchors)], k)
    if rank < k:
        raise ratmat.SingularMatrixError(f"C of {lam} at {k} copies is singular")
    # the rows carry +1/(i - a)!, so each component is negated
    return {a: [Fraction(-row[k + c], pivot) for row in rows] for c, a in enumerate(anchors)}


def g_vector(lam, lam1) -> list[Fraction]:
    """Unique solution of the chain-map condition for the corner at lam1, at lam_1 copies.

    The right-hand side carries inverse factorials measured from the corner's
    window index; nonsingularity of C makes the solution unique.  These are
    the first lam_1 components of the corner's solve in ``corner_solutions``,
    at lam_1 + 1 copies: the added column belongs to contractible pairs of the
    untruncated complex and leaves the lower components unchanged.
    """
    lam, lam1 = as_partition(lam), as_partition(lam1)
    if lam1 not in res_set(lam):
        raise ValueError(f"{lam1} is not obtained from {lam} by removing a corner")
    return corner_solutions(lam)[content(added_box(lam1, lam)) + 1][: lam[0]]


def tilde_a(lam1, lam, mu, branch: str) -> Fraction:
    """Coefficient read off from the collapsed complex.

    The second branch is structurally 1; the first is the component, at the
    column of the box added last, of lam's solve (``corner_solutions``) for
    the removed corner.  The path and its boxes come from
    ``symgroup.removal_path``, box geometry only; beyond that only the
    factorial matrix C is used: neither the closed form nor the oracle of
    :mod:`bosonfermion.symgroup`.
    """
    path = symgroup.removal_path(lam1, lam, mu, branch)
    return _tilde_a(path, corner_solutions(path.lam))[path.branches.index(branch)]


def _tilde_a(path: symgroup.RemovalPath, solved: dict[int, list[Fraction]]) -> tuple[Fraction, ...]:
    """One value per branch of the path, read off ``solved = corner_solutions(path.lam)``."""
    value = solved[content(path.b1) + 1][path.b2[1] - 1]
    return (value,) if path.nu is None else (value, Fraction(1))


def check_path(path: symgroup.RemovalPath, solved: dict[int, list[Fraction]]) -> list[dict]:
    """One row per branch of the path: the closed ``a``, the oracle and the solved value.

    Each route's body runs once on the path as given and answers for every
    branch; ``solved`` is ``corner_solutions(path.lam)``.  The values are
    ``Fraction``s, and ``pass`` is their exact equality; whoever prints a
    row formats them.
    """
    routes = symgroup._a_coeff(path), symgroup._a_oracle(path), _tilde_a(path, solved)
    return [
        {
            "branch": branch,
            "a": a,
            "a_oracle": oracle,
            "a_tilde": solved_value,
            "pass": a == oracle == solved_value,
        }
        for branch, a, oracle, solved_value in zip(path.branches, *routes, strict=True)
    ]


def verify_bf_hcl(n: int):
    """Yield ``check_path``'s rows, each with its mu, lam and lam1, for every removal path with |mu| = n.

    One lam of size n - 1 at a time: C is eliminated once for all corners of
    lam, that solve serves every path ``symgroup.paths_through(lam)`` builds
    from lam's corners and addable boxes, and it is dropped when lam is done.
    Each path is built once, with no ``removal_path`` check, and every route
    reads its boxes from the path and nothing of the other routes.
    """
    for lam in partitions_of(n - 1):
        if not lam:
            continue
        solved = corner_solutions(lam)
        for path in symgroup.paths_through(lam):
            for row in check_path(path, solved):
                yield {"mu": path.mu, "lam": lam, "lam1": path.lam1, **row}


def subclaim_identity(mu) -> bool:
    """Factorial identity over the rows and columns of a nonempty partition."""
    mu = as_partition(mu)
    if not mu:
        raise ValueError("the identity needs a nonempty partition")
    t = len(mu)
    s = mu[0]
    cols = dual(mu)
    lhs = 1
    for j in range(1, s + 1):
        lhs *= j + t - cols[j - 1]
    for i in range(1, t + 1):
        lhs *= mu[i - 1] + t + 1 - i
    return lhs == factorial(s + t)


def sn_bridge_holds(lam, n: int) -> bool:
    """Alternating drop-label sum against the shifted even partial sum.

    The signed sum of the charge sequences of the drop labels must equal the
    even-generator partial sum applied to the sequence of lam, exactly.
    """
    lam = as_partition(lam)
    if len(lam) > n:
        raise ValueError(f"{lam} has more than {n} rows")
    lhs = FockVector(
        (to_sequence(lambda_t(lam, n, t)), -1 if (t + n) % 2 else 1) for t in range(n + 1)
    )
    rhs = s_n_op(n, FockVector.basis(to_sequence(lam)))
    return lhs == rhs
