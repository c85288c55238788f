"""Exact-rational linear algebra over ``Fraction``.

Small and dependency free.  ``RationalMatrix.solve`` and ``det`` share one
fraction-free elimination, ``_bareiss``: each row is scaled to integers by the
lcm of its denominators and eliminated by Bareiss Gauss-Jordan on Python
``int``s, every division exact, so a ``Fraction`` is made only for each
result.  Rows of ``int``s go through with a scale of 1, so a caller that
holds a system on integers, as ``correspondence`` does for the factorial
matrix C, hands it over with no ``Fraction`` at all.  ``rank`` runs
Gauss-Jordan over sparse rows, ``_echelon``, whose cost follows the supports
of the rows and not the size of the ambient space.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class SingularMatrixError(ValueError):
    pass


_ONE = Fraction(1)


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
        eliminated = _bareiss(self.data, self.rows)
        if eliminated is None:
            return Fraction(0)
        sign, scale, pivot, _ = eliminated
        return Fraction(sign * pivot, scale)

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
        eliminated = _bareiss([row + b_row for row, b_row in zip(self.data, rhs.data)], n)
        if eliminated is None:
            raise SingularMatrixError("singular system")
        _, _, pivot, rows = eliminated
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
    in when a pivot is zero, and every division is exact because each entry
    is then a minor of the scaled matrix.  Returns ``None`` if those columns
    are singular, else ``(sign, scale, pivot, rows)``: ``sign`` of the row
    swaps, the final pivot (the determinant of the scaled, swapped ``n x n``
    block), and the eliminated rows, whose entries after the first ``n`` are
    ``pivot`` times the solution.  Only the entries that a later step or the
    solution reads are updated; the first ``n`` columns are left stale.
    """
    scale = 1
    m = []
    for row in rows:
        row_scale = lcm(*(x.denominator for x in row))
        scale *= row_scale
        m.append([x.numerator * (row_scale // x.denominator) for x in row])
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return None
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot, tail = pivot_row[k], pivot_row[k + 1:]
        # rows above the pivot are read again only for their right-hand sides
        for row in m if len(pivot_row) > n else m[k + 1:]:
            if row is not pivot_row:
                f = row[k]
                row[k + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = pivot
    return sign, scale, prev, m


def _subtract(row: dict, factor: Fraction, other: dict) -> None:
    """``row -= factor * other`` in place, dropping entries that cancel."""
    for col, value in other.items():
        value = row.get(col, 0) - factor * value
        if value:
            row[col] = value
        else:
            del row[col]


def _echelon(rows, n: int | None = None) -> dict:
    """Gauss-Jordan elimination over sparse rows read one at a time.

    A row maps each column to its value through ``items()``.  Pivots are taken
    among the columns ``0 .. n-1`` (the unknowns) when ``n`` is given, else
    among all.  Returns the pivot rows by pivot column, each with a 1 there
    and no entry in any other pivot column.
    """
    pivots: dict = {}
    for row in rows:
        row = {col: value for col, value in row.items() if value}
        for col in [c for c in row if c in pivots]:
            _subtract(row, row[col], pivots[col])
        col = next((c for c in row if n is None or c < n), None)
        if col is None:
            continue
        inv = _ONE / row[col]
        row = {c: value * inv for c, value in row.items()}
        for pivot_row in pivots.values():
            if col in pivot_row:
                _subtract(pivot_row, pivot_row[col], row)
        pivots[col] = row
    return pivots


def rank(vectors) -> int:
    """Rank of sparse vectors, each mapping coordinate keys to values through ``items()``."""
    return len(_echelon(vectors))
