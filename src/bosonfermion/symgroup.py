"""Symmetric group irreducibles in the rescaled content eigenbasis.

Basis vectors are indexed by standard tableaux, simultaneous eigenvectors of
the Jucys-Murphy elements.  Each adjacent transposition acts through the
content difference d of the swapped entries: diagonally by 1/d when the swap
is not standard, and otherwise by

    s . v_T  =  (1/d) v_T + ((d-1)/d) v_{T'},      T' = swapped tableau,

after rescaling each basis vector by a constant c_T normalized to 1 on the
row-major filling.  The module also computes the rescaling constant h
attached to each box-adding edge and the structure constants of the
restriction map on projectives, both in closed form and from first
principles (the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .partitions import (
    Partition,
    added_box,
    add_box,
    as_partition,
    content,
    dual,
    ind_set,
    removable_corners,
    remove_box,
    share_row_or_column,
)
from .ratmat import RationalMatrix, solve_in_span

LAM_BRANCH = "lam"
NU_BRANCH = "nu"


@dataclass(frozen=True)
class StandardTableau:
    shape: Partition
    rows: tuple[tuple[int, ...], ...]

    def position(self, value: int) -> tuple[int, int]:
        for r, row in enumerate(self.rows, start=1):
            for c, entry in enumerate(row, start=1):
                if entry == value:
                    return (r, c)
        raise KeyError(value)

    def content_vector(self) -> tuple[int, ...]:
        n = sum(self.shape)
        pos = {}
        for r, row in enumerate(self.rows, start=1):
            for c, entry in enumerate(row, start=1):
                pos[entry] = c - r
        return tuple(pos[v] for v in range(1, n + 1))

    def with_entry(self, box: tuple[int, int], value: int, shape: Partition) -> "StandardTableau":
        """The tableau with ``value`` put in ``box``; ``shape`` is the extended shape.

        Callers extend many tableaux by the same box, so they compute and
        validate the extended shape once and pass it in.
        """
        r = box[0]
        rows = [list(row) for row in self.rows]
        if r - 1 < len(rows):
            rows[r - 1].append(value)
        else:
            rows.append([value])
        return StandardTableau(shape, tuple(tuple(row) for row in rows))

    def swap(self, i: int) -> "StandardTableau":
        rows = tuple(
            tuple(i + 1 if e == i else i if e == i + 1 else e for e in row) for row in self.rows
        )
        return StandardTableau(self.shape, rows)


@lru_cache(maxsize=None)
def tableaux(shape: Partition) -> tuple[StandardTableau, ...]:
    """All standard tableaux of the shape, largest content vector first."""
    shape = as_partition(shape)
    if not shape:
        return (StandardTableau((), ()),)
    n = sum(shape)
    out = []
    for corner in removable_corners(shape):
        for t in tableaux(remove_box(shape, corner)):
            out.append(t.with_entry(corner, n, shape))
    return tuple(sorted(out, key=lambda t: t.content_vector(), reverse=True))


def row_filling(shape: Partition) -> StandardTableau:
    """The tableau filled 1..n left to right along consecutive rows."""
    shape = as_partition(shape)
    rows = []
    next_entry = 1
    for length in shape:
        rows.append(tuple(range(next_entry, next_entry + length)))
        next_entry += length
    return StandardTableau(shape, tuple(rows))


@lru_cache(maxsize=None)
def _index_of(shape: Partition) -> dict[StandardTableau, int]:
    return {t: i for i, t in enumerate(tableaux(shape))}


@lru_cache(maxsize=None)
def _extension(lam: Partition, mu: Partition) -> tuple[int, ...]:
    """For each tableau of lam, the index of its extension among the tableaux of mu."""
    box = added_box(lam, mu)
    n = sum(mu)
    index = _index_of(mu)
    return tuple(index[t.with_entry(box, n, mu)] for t in tableaux(lam))


def _dense(rows, cols: int) -> RationalMatrix:
    """Dense matrix of sparse rows of (column, value) pairs."""
    out = [[Fraction(0)] * cols for _ in rows]
    for out_row, row in zip(out, rows):
        for col, value in row:
            out_row[col] = value
    return RationalMatrix(out)


def _length(t: StandardTableau) -> int:
    # Coxeter length of the permutation carrying the row-major filling to t
    base = row_filling(t.shape)
    boxes = [(r, c) for r, row in enumerate(base.rows, start=1) for c in range(1, len(row) + 1)]
    word = [t.rows[r - 1][c - 1] for (r, c) in boxes]
    return sum(1 for a in range(len(word)) for b in range(a + 1, len(word)) if word[a] > word[b])


@lru_cache(maxsize=None)
def _scale_table(shape: Partition) -> dict[StandardTableau, Fraction]:
    """Rescaling constants, checked for independence of the defining path."""
    all_t = tableaux(shape)
    lengths = {t: _length(t) for t in all_t}
    table: dict[StandardTableau, Fraction] = {row_filling(shape): Fraction(1)}
    n = sum(shape)
    for t in sorted(all_t, key=lambda t: lengths[t]):
        for i in range(1, n):
            r1, c1 = t.position(i)
            r2, c2 = t.position(i + 1)
            if r1 == r2 or c1 == c2:
                continue
            other = t.swap(i)
            if lengths[other] != lengths[t] + 1:
                continue
            d = (c2 - r2) - (c1 - r1)
            value = Fraction(d, d - 1) * table[t]
            if other in table:
                if table[other] != value:
                    raise RuntimeError(f"inconsistent rescaling constants for {other}")
            else:
                table[other] = value
    if len(table) != len(all_t):
        raise RuntimeError(f"rescaling constants reach {len(table)} of {len(all_t)} tableaux")
    return table


def c_scale(t: StandardTableau) -> Fraction:
    return _scale_table(as_partition(t.shape))[t]


@lru_cache(maxsize=None)
def _rep_rows(i: int, shape: Partition) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
    """Sparse rows of the i-th adjacent transposition: (column, value) pairs.

    Each row has the diagonal entry 1/d and, when the swap stays standard,
    the entry (d-1)/d at the swapped tableau, so at most two nonzeros.
    """
    index = _index_of(shape)
    rows = []
    for t_idx, t in enumerate(tableaux(shape)):
        r1, c1 = t.position(i)
        r2, c2 = t.position(i + 1)
        d = (c2 - r2) - (c1 - r1)
        row = [(t_idx, Fraction(1, d))]
        if r1 != r2 and c1 != c2:
            row.append((index[t.swap(i)], Fraction(d - 1, d)))
        rows.append(tuple(row))
    return tuple(rows)


def rep_action(i: int, shape) -> RationalMatrix:
    """Matrix of the i-th adjacent transposition in the rescaled basis.

    Row t holds the expansion of the image of the t-th basis vector, so
    composite actions multiply on the right.
    """
    shape = as_partition(shape)
    n = sum(shape)
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    rows = _rep_rows(i, shape)
    return _dense(rows, len(rows))


def f_map(lam, mu) -> RationalMatrix:
    """Inclusion sending a tableau of lam to its extension by the next entry.

    Rows are indexed by tableaux of lam, columns by tableaux of mu.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    if mu not in ind_set(lam):
        raise ValueError(f"{mu} does not cover {lam}")
    one = Fraction(1)
    return _dense([((col, one),) for col in _extension(lam, mu)], len(tableaux(mu)))


def _path_columns(lam1, lam, mu) -> list[int]:
    """For each tableau of lam1, the column of its image under the composite inclusion."""
    through = _extension(lam, mu)
    return [through[mid] for mid in _extension(lam1, lam)]


def _composite(lam1, lam, mu) -> dict[tuple[int, int], Fraction]:
    """The composite inclusion lam1 -> lam -> mu, keyed by (row, column)."""
    one = Fraction(1)
    return {(row, col): one for row, col in enumerate(_path_columns(lam1, lam, mu))}


def _swapped_composite(lam1, lam, mu) -> dict[tuple[int, int], Fraction]:
    """The composite inclusion followed by s_{n-1} on mu, keyed by (row, column)."""
    s_rows = _rep_rows(sum(mu) - 1, mu)
    return {
        (row, col): value
        for row, image in enumerate(_path_columns(lam1, lam, mu))
        for col, value in s_rows[image]
    }


def _validate_path(lam1, lam, mu):
    lam1, lam, mu = as_partition(lam1), as_partition(lam), as_partition(mu)
    if lam not in ind_set(lam1) or mu not in ind_set(lam):
        raise ValueError(f"{lam1} -> {lam} -> {mu} is not a path of single box additions")
    return lam1, lam, mu


@lru_cache(maxsize=None)
def _square_decomposition(lam1, lam, nu, mu) -> tuple[Fraction, Fraction]:
    # keyed by the normalised square, so both branches share one solve
    coeffs = solve_in_span(
        [_composite(lam1, lam, mu), _composite(lam1, nu, mu)],
        _swapped_composite(lam1, lam, mu),
    )
    if coeffs is None:
        raise RuntimeError("swapped composite is not in the span of the square composites")
    return coeffs[0], coeffs[1]


def square_coeffs(lam1, lam, nu, mu) -> tuple[Fraction, Fraction]:
    """Decompose the swapped composite inclusion over the two sides of a square.

    Returns (alpha, beta) with  s . (f through lam)  =  alpha * (f through lam)
    + beta * (f through nu), solved exactly on the sparse composed maps: one
    equation per nonzero entry, one row of s per tableau of lam1.  The solve
    is cached per normalised square (lam1, lam, nu, mu), so the lam and the
    nu branch of ``a_oracle`` share it; it uses no closed form and nothing
    of the collapsed complex.  A composite outside the span is a broken
    invariant and raises RuntimeError.
    """
    lam1, lam, mu = _validate_path(lam1, lam, mu)
    nu = as_partition(nu)
    if nu == lam or nu not in ind_set(lam1) or mu not in ind_set(nu):
        raise ValueError(f"{lam1} -> {lam},{nu} -> {mu} is not a square")
    return _square_decomposition(lam1, lam, nu, mu)


def h_coeff(lam1, lam) -> Fraction:
    """Rescaling constant of the edge adding one box to lam1.

    With the new box in row t+1 and column s+1, the value is a signed ratio
    of products over the boxes directly above and directly to the left.
    """
    lam1, lam = as_partition(lam1), as_partition(lam)
    if lam not in ind_set(lam1):
        raise ValueError(f"{lam} does not cover {lam1}")
    row, col = added_box(lam1, lam)
    s, t = col - 1, row - 1
    arm = Fraction(1)
    for i in range(1, t + 1):
        arm *= lam[i - 1] - col + t + 1 - i
    leg = Fraction(1)
    cols = dual(lam)
    for j in range(1, s + 1):
        leg *= cols[j - 1] - row + s + 2 - j
    return Fraction(-1 if s % 2 else 1) * arm / leg


def _classify(lam1, lam, mu):
    b1 = added_box(lam1, lam)
    b2 = added_box(lam, mu)
    two_dim = not share_row_or_column(b1, b2)
    return b1, b2, two_dim


def a_coeff(lam1, lam, mu, branch: str) -> Fraction:
    """Structure constant of the restriction map, in closed ratio form.

    In the square case the nu branch is 1 and the lam branch is the h ratio
    divided by the content difference d; in the degenerate (domino) case the
    sign is +1 for a horizontal and -1 for a vertical domino.
    """
    lam1, lam, mu = _validate_path(lam1, lam, mu)
    b1, b2, two_dim = _classify(lam1, lam, mu)
    if branch == NU_BRANCH:
        if not two_dim:
            raise ValueError("no second branch: the added boxes form a domino")
        return Fraction(1)
    if branch != LAM_BRANCH:
        raise ValueError(f"unknown branch {branch!r}")
    ratio = h_coeff(lam, mu) / h_coeff(lam1, lam)
    if two_dim:
        return ratio / (content(b2) - content(b1))
    eps = 1 if b1[0] == b2[0] else -1
    return eps * ratio


def a_closed_expanded(lam1, lam, mu) -> Fraction:
    """Fully expanded product form of the lam branch coefficient.

    Valid only for the configuration with the first added box strictly above
    and strictly to the right of the second one.
    """
    lam1, lam, mu = _validate_path(lam1, lam, mu)
    b1, b2, two_dim = _classify(lam1, lam, mu)
    if not two_dim or not (b1[0] < b2[0] and b1[1] > b2[1]):
        raise ValueError("expanded form requires the first box at the top right of the second")
    s1, t1 = b2[1] - 1, b1[0] - 1
    s2 = b1[1] - b2[1] - 1
    t2 = b2[0] - b1[0] - 1
    cols = dual(mu)
    xs = [mu[i - 1] - (s1 + s2 + 2) for i in range(1, t1 + 1)]
    zs = [mu[t1 + 1 + i - 1] - (s1 + 1) for i in range(1, t2 + 1)]
    zbars = [cols[s1 + 1 + j - 1] - (t1 + 1) for j in range(1, s2 + 1)]
    ybars = [cols[j - 1] - (t1 + t2 + 2) for j in range(1, s1 + 1)]
    value = Fraction(-1 if s2 % 2 else 1) * (s2 + t2 + 2)
    for j, y in enumerate(ybars, start=1):
        value *= Fraction(y + s1 + s2 + t2 - j + 4, y + s1 - j + 2)
    for i, x in enumerate(xs, start=1):
        value *= Fraction(x + s2 + t2 + t1 - i + 3, x + t1 - i + 1)
    for j, z in enumerate(zbars, start=1):
        value *= z + s2 - j + 2
    for i, z in enumerate(zs, start=1):
        value *= z + t2 - i + 1
    return value


def a_oracle(lam1, lam, mu, branch: str) -> Fraction:
    """Structure constant recomputed from first principles.

    Composes the inclusions as index maps, acts by the sparse rows of the
    adjacent swap on the target module, decomposes the result exactly over
    the composites (``square_coeffs`` in the square case, shared by the two
    branches), and rescales by the h ratio.  The closed forms above are
    never consulted.
    """
    lam1, lam, mu = _validate_path(lam1, lam, mu)
    b1, b2, two_dim = _classify(lam1, lam, mu)
    if branch not in (LAM_BRANCH, NU_BRANCH):
        raise ValueError(f"unknown branch {branch!r}")
    if branch == NU_BRANCH and not two_dim:
        raise ValueError("no second branch: the added boxes form a domino")
    h_base = h_coeff(lam1, lam)
    if two_dim:
        nu = add_box(lam1, b2)
        alpha, beta = _square_decomposition(lam1, lam, nu, mu)
        if branch == LAM_BRANCH:
            return alpha * h_coeff(lam, mu) / h_base
        return beta * h_coeff(nu, mu) / h_base
    coeffs = solve_in_span([_composite(lam1, lam, mu)], _swapped_composite(lam1, lam, mu))
    if coeffs is None:
        raise RuntimeError("swapped composite is not proportional to the composite")
    return coeffs[0] * h_coeff(lam, mu) / h_base
