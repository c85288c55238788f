"""Exact-rational linear algebra over ``Fraction``.

Small and dependency free.  ``RationalMatrix`` is dense and serves the small
factorial and boundary matrices of this library (determinants, ranks and
square solves).  ``solve_in_span`` works on sparse vectors instead, given as
dicts from coordinate keys to nonzero values, so its cost follows the
supports of the vectors and not the size of the ambient space.
"""

from __future__ import annotations

from fractions import Fraction


class SingularMatrixError(ValueError):
    pass


_ZERO = Fraction(0)


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

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def at(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def row(self, i: int) -> list[Fraction]:
        return list(self.data[i])

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

    def rank(self) -> int:
        m = [row[:] for row in self.data]
        rank = 0
        for col in range(self.cols):
            pivot = next((r for r in range(rank, self.rows) if m[r][col]), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            inv = 1 / m[rank][col]
            m[rank] = [x * inv for x in m[rank]]
            for r in range(self.rows):
                if r != rank and m[r][col]:
                    factor = m[r][col]
                    m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
            rank += 1
            if rank == self.rows:
                break
        return rank

    def solve(self, rhs):
        """Solve the square system ``self @ x = rhs`` exactly.

        ``rhs`` is one right-hand side as a sequence, giving the solution as
        a list, or several as the columns of a ``RationalMatrix``, giving the
        matrix of solutions column by column.  Either way one Gauss-Jordan
        pass runs over the matrix augmented by every right-hand side, so the
        matrix is eliminated once however many systems share it.
        """
        if self.rows != self.cols:
            raise ValueError("solve requires a square matrix")
        n = self.rows
        several = isinstance(rhs, RationalMatrix)
        b = rhs.data if several else [[_as_fraction(x)] for x in rhs]
        if len(b) != n:
            raise ValueError("rhs length mismatch")
        m = [row + b_row for row, b_row in zip(self.data, b)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col]), None)
            if pivot is None:
                raise SingularMatrixError("singular system")
            m[col], m[pivot] = m[pivot], m[col]
            inv = 1 / m[col][col]
            m[col] = [x * inv for x in m[col]]
            for r in range(n):
                if r != col and m[r][col]:
                    factor = m[r][col]
                    m[r] = [a - factor * c if c else a for a, c in zip(m[r], m[col])]
        solutions = [row[n:] for row in m]
        return RationalMatrix(solutions) if several else [row[0] for row in solutions]

    def to_strings(self) -> list[list[str]]:
        return [[format_fraction(x) for x in row] for row in self.data]

    def __repr__(self):
        return f"RationalMatrix({self.to_strings()})"


def solve_in_span(vectors: list[dict], target: dict) -> list[Fraction] | None:
    """Express ``target`` in the span of independent sparse ``vectors``.

    Each vector maps a coordinate key to its value; a missing key is zero.
    One Gauss-Jordan pass runs over the union of the supports only.  Returns
    the coefficient list, or None if the target is not in the span.  Raises
    ValueError when the given vectors are linearly dependent.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    cols = len(vectors)
    keys = dict.fromkeys(key for v in (*vectors, target) for key in v)
    m = [[_as_fraction(v.get(key, _ZERO)) for v in (*vectors, target)] for key in keys]
    for col in range(cols):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            raise ValueError("vectors are linearly dependent")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(len(m)):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b if b else a for a, b in zip(m[r], m[col])]
    if any(row[cols] for row in m[cols:]):
        return None
    return [m[col][cols] for col in range(cols)]
