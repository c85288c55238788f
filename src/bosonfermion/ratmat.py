"""Exact-rational linear algebra over ``Fraction``.

Small and dependency free.  Every exact solve and rank (``RationalMatrix.solve``
and ``rank``) runs through one Gauss-Jordan routine over sparse rows,
``_echelon``, whose cost follows the supports of the rows and not the size of
the ambient space.  ``RationalMatrix.det`` alone keeps its own elimination,
fraction-free (Bareiss), the independent reference for the rank.
"""

from __future__ import annotations

from fractions import Fraction


class SingularMatrixError(ValueError):
    pass


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def format_fraction(x: Fraction) -> str:
    x = _as_fraction(x)
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
        """Determinant by Bareiss fraction-free elimination (divisions exact)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return Fraction(1)
        m = [row[:] for row in self.data]
        sign = 1
        prev = Fraction(1)
        for k in range(n - 1):
            if not m[k][k]:
                for r in range(k + 1, n):
                    if m[r][k]:
                        m[k], m[r] = m[r], m[k]
                        sign = -sign
                        break
                else:
                    return Fraction(0)
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
                m[i][k] = Fraction(0)
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def solve(self, rhs):
        """Solve the square system ``self @ x = rhs`` exactly.

        ``rhs`` is one right-hand side as a sequence, giving the solution as
        a list, or several as the columns of a ``RationalMatrix``, giving the
        matrix of solutions column by column.  Either way the rows of the
        matrix augmented by every right-hand side go through ``_echelon``
        once, so the matrix is eliminated once however many systems share it.
        A singular matrix raises ``SingularMatrixError``.
        """
        if self.rows != self.cols:
            raise ValueError("solve requires a square matrix")
        n = self.rows
        several = isinstance(rhs, RationalMatrix)
        b = rhs.data if several else [[_as_fraction(x)] for x in rhs]
        if len(b) != n:
            raise ValueError("rhs length mismatch")
        pivots = _echelon((dict(enumerate(row + b_row)) for row, b_row in zip(self.data, b)), n)
        if len(pivots) < n:
            raise SingularMatrixError("singular system")
        solutions = [[pivots[i].get(j, _ZERO) for j in range(n, n + len(b[0]))] for i in range(n)]
        return RationalMatrix(solutions) if several else [row[0] for row in solutions]

    def to_strings(self) -> list[list[str]]:
        return [[format_fraction(x) for x in row] for row in self.data]

    def __repr__(self):
        return f"RationalMatrix({self.to_strings()})"


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
