"""Exact-rational linear algebra over ``Fraction``.

Small and dependency free.  ``RationalMatrix.solve``, ``det`` and ``rank``
share one fraction-free elimination, ``_bareiss``: each row is scaled to
integers by the lcm of its denominators and eliminated by Bareiss
Gauss-Jordan on Python ``int``s, every division exact, so a ``Fraction`` is
made only for each result.  Rows of ``int``s go through with a scale of 1, so
a caller that holds a system on integers, as ``correspondence`` does for the
factorial matrix C, hands it over with no ``Fraction`` at all.  ``rank`` lays
sparse vectors out as dense rows over the keys they touch, so an integer
boundary, as ``quiver`` builds, is eliminated on integers too.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class SingularMatrixError(ValueError):
    pass


def format_fraction(x) -> str:
    """An ``int`` or ``Fraction`` as ``"p"`` or ``"p/q"``."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class RationalMatrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_data):
        self.data = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows_data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    def column(self, j: int) -> list[Fraction]:
        return [row[j] for row in self.data]

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.data == other.data

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = [[Fraction(0)] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.data):
            out_i = out[i]
            for k, a in enumerate(row):
                if not a:
                    continue
                other_k = other.data[k]
                for j, b in enumerate(other_k):
                    if b:
                        out_i[j] += a * b
        return RationalMatrix(out)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return RationalMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)]
        )

    def __rmul__(self, scalar) -> "RationalMatrix":
        c = Fraction(scalar)
        return RationalMatrix([[c * x for x in row] for row in self.data])

    def det(self) -> Fraction:
        """Determinant: the signed final pivot of ``_bareiss`` over the product of the row scales."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        rank, sign, scale, pivot, _ = _bareiss(self.data, self.rows)
        return Fraction(sign * pivot, scale) if rank == self.rows else Fraction(0)

    def solve(self, rhs: "RationalMatrix") -> "RationalMatrix":
        """Solve the square system ``self @ x = rhs`` exactly, one column of ``x`` per column of ``rhs``.

        The rows of the matrix augmented by every right-hand side go through
        ``_bareiss`` once, so the matrix is eliminated once however many
        systems share it, and each solution component is its eliminated entry
        over the final pivot.  A singular matrix raises ``SingularMatrixError``.
        """
        if self.rows != self.cols:
            raise ValueError("solve requires a square matrix")
        n = self.rows
        if rhs.rows != n:
            raise ValueError("rhs length mismatch")
        rank, _, _, pivot, rows = _bareiss([row + b_row for row, b_row in zip(self.data, rhs.data)], n)
        if rank < n:
            raise SingularMatrixError("singular system")
        return RationalMatrix([[Fraction(x, pivot) for x in row[n:]] for row in rows])

    def to_strings(self) -> list[list[str]]:
        return [[format_fraction(x) for x in row] for row in self.data]

    def __repr__(self):
        return f"RationalMatrix({self.to_strings()})"


def _bareiss(rows, n: int):
    """Fraction-free Gauss-Jordan elimination of rational rows on ``int``s.

    Each row is multiplied by the lcm of its denominators; ``scale`` is the
    product of these factors.  The first ``n`` columns (the unknowns) are
    eliminated by one-step Bareiss Gauss-Jordan, swapping a row from below
    in when a pivot is zero and skipping a column with no nonzero entry left
    below, and every division is exact because each entry is then a minor of
    the scaled matrix.  Returns ``(rank, sign, scale, pivot, rows)``: the
    number of pivots, ``sign`` of the row swaps, the last pivot (for ``n``
    rows of rank ``n``, the determinant of the scaled, swapped ``n x n``
    block), and the eliminated rows, whose entries after the first ``n`` are
    then ``pivot`` times the solution.  Only the entries that a later step or
    the solution reads are updated; the first ``n`` columns are left stale.
    """
    scale = 1
    m = []
    for row in rows:
        row_scale = lcm(*(x.denominator for x in row))
        scale *= row_scale
        m.append([x.numerator * (row_scale // x.denominator) for x in row])
    rank, sign, prev = 0, 1, 1
    for k in range(n):
        p = next((i for i in range(rank, len(m)) if m[i][k]), None)
        if p is None:
            continue
        if p != rank:
            m[rank], m[p] = m[p], m[rank]
            sign = -sign
        pivot_row = m[rank]
        pivot, tail = pivot_row[k], pivot_row[k + 1:]
        # rows above the pivot are read again only for their right-hand sides
        for row in m if len(pivot_row) > n else m[rank + 1:]:
            if row is not pivot_row:
                f = row[k]
                row[k + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = pivot
        rank += 1
    return rank, sign, scale, prev, m


def rank(vectors) -> int:
    """Rank of sparse vectors, each mapping coordinate keys to values through ``items()``.

    The keys are numbered in the order they are first seen, and the vectors,
    laid out as dense rows over them, go through ``_bareiss``.
    """
    supports = [vector.items() for vector in vectors]
    columns: dict = {}
    for support in supports:
        for key, _ in support:
            columns.setdefault(key, len(columns))
    rows = []
    for support in supports:
        row = [0] * len(columns)
        for key, value in support:
            row[columns[key]] = value
        rows.append(row)
    return _bareiss(rows, len(columns))[0]
