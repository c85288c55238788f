"""Symmetric group irreducibles in the rescaled content eigenbasis.

Basis vectors are indexed by standard tableaux, simultaneous eigenvectors of
the Jucys-Murphy elements.  A tableau is its content vector (c_1, ..., c_n),
the eigenvalues it determines; extending by a box appends that box's content
and the swap s_i exchanges c_i and c_{i+1}.  The module enumerates no
tableaux.  Each adjacent transposition acts through the content difference
d = c_{i+1} - c_i: diagonally by 1/d when the swap is not standard
(|d| = 1), and otherwise by

    s . v_T  =  (1/d) v_T + ((d-1)/d) v_{T'},      T' = swapped tableau,

after rescaling each basis vector by a constant c_T normalized to 1 on the
row-major filling.  ``_act`` is the one place this rule is written.  The
module computes the rescaling constant h of each box-adding edge and the
structure constants of the restriction map on projectives, in closed form
and from first principles (the oracle).  Every coefficient route, here and
in :mod:`bosonfermion.correspondence`, reads a ``RemovalPath`` and nothing
of the other routes, and a caller holding a path runs each route's private
body on it.  ``removal_path`` is the one check of a path lam1 -> lam -> mu
that a caller hands in; the ``bfhcl`` sweep instead builds the paths
through each partition lam it holds from lam's own corners and addable
boxes (``paths_through``), with nothing to check.  The oracle reads one
content vector, the row-major one of lam1: s_{n-1} acts on the image
cv + (c1, c2) of any tableau cv of lam1, c1 and c2 the contents of the added
boxes, through d = c2 - c1 alone, so every other tableau would repeat its
equations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .partitions import (
    Box,
    Partition,
    added_box,
    add_box,
    addable_boxes,
    as_partition,
    content,
    dual,
    removable_corners,
    remove_box,
)

LAM_BRANCH = "lam"
NU_BRANCH = "nu"
_ZERO = Fraction(0)


def _swapped(cv: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The content vector with entries i and i+1 exchanged."""
    return cv[: i - 1] + (cv[i], cv[i - 1]) + cv[i + 1 :]


def _act(i: int, cv: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """The i-th adjacent transposition on one basis vector: (content vector, value) pairs.

    The diagonal entry is 1/d, d = c_{i+1} - c_i; when the swap stays
    standard (|d| != 1) the swapped vector gets (d-1)/d.
    """
    d = cv[i] - cv[i - 1]
    if abs(d) == 1:
        return ((cv, Fraction(1, d)),)
    return ((cv, Fraction(1, d)), (_swapped(cv, i), Fraction(d - 1, d)))


class RemovalPath(NamedTuple):
    """A normalised path lam1 -> lam -> mu, its added boxes, and nu = lam1 + b2 (None for a domino)."""

    lam1: Partition
    lam: Partition
    mu: Partition
    b1: Box
    b2: Box
    nu: Partition | None

    @property
    def branches(self) -> tuple[str, ...]:
        return (LAM_BRANCH,) if self.nu is None else (LAM_BRANCH, NU_BRANCH)


def removal_path(lam1, lam, mu, *wanted: str) -> RemovalPath:
    """Check that lam1 -> lam -> mu adds one box at a time; return it with its boxes and nu.

    The nu branch exists when the added boxes span a square, not when they
    form a domino (one row or column, |c2 - c1| = 1).  Raise ValueError for a
    non-path and for a ``wanted`` branch the path lacks.  This is the check
    for caller input (``coeff`` and the public routes); the sweep's paths
    come from ``paths_through``, which needs none.
    """
    lam1, lam, mu = as_partition(lam1), as_partition(lam), as_partition(mu)
    try:
        b1, b2 = added_box(lam1, lam), added_box(lam, mu)
    except ValueError:
        raise ValueError(f"{lam1} -> {lam} -> {mu} is not a path of single box additions") from None
    path = _path(lam1, lam, mu, b1, b2)
    for branch in wanted:
        if branch not in (LAM_BRANCH, NU_BRANCH):
            raise ValueError(f"unknown branch {branch!r}")
        if branch not in path.branches:
            raise ValueError("no second branch: the added boxes form a domino")
    return path


def paths_through(lam: Partition):
    """Yield every ``RemovalPath`` lam1 -> lam -> mu through a partition lam, by mu and then by lam1.

    b1 runs over the removable corners of lam and b2 over its addable boxes,
    so each path is built from lam alone, with nothing to re-derive or check.
    The fields are those ``removal_path(lam1, lam, mu)`` returns.
    """
    below = sorted((remove_box(lam, box), box) for box in removable_corners(lam))
    for mu, b2 in sorted((add_box(lam, box), box) for box in addable_boxes(lam)):
        for lam1, b1 in below:
            yield _path(lam1, lam, mu, b1, b2)


def _path(lam1: Partition, lam: Partition, mu: Partition, b1: Box, b2: Box) -> RemovalPath:
    """The ``RemovalPath`` adding b1 then b2, with nu = lam1 + b2, or None for a domino."""
    nu = None if abs(content(b2) - content(b1)) == 1 else add_box(lam1, b2)
    return RemovalPath(lam1, lam, mu, b1, b2, nu)


def _oracle_solve(lam1: Partition, c1: int, c2: int) -> tuple[Fraction, ...]:
    """Decompose s_{n-1} on the image cv + (c1, c2) of one tableau cv of lam1 over the composites.

    The composites send cv to one basis vector each, cv + (c1, c2) and, for a
    square, cv + (c2, c1), so x_k is the value of s_{n-1} at cv + side k and an
    image on no side must be zero.  s_{n-1} reads only c1 and c2, so every
    tableau of lam1 gives the same equations: cv is the row-major one, built
    directly.  Both branches of a square share the solve.
    """
    cv = tuple(c - r for r, row in enumerate(lam1) for c in range(row))
    sides = [(c1, c2)] if abs(c2 - c1) == 1 else [(c1, c2), (c2, c1)]
    targets = [cv + side for side in sides]
    values = [_ZERO] * len(sides)
    for image, value in _act(len(cv) + 1, targets[0]):
        if image in targets:
            values[targets.index(image)] = value
        elif value:
            raise RuntimeError("swapped composite is not in the span of the composites")
    return tuple(values)


def h_coeff(lam1, lam) -> Fraction:
    """Rescaling constant of the edge adding one box to lam1.

    With the new box in row t+1 and column s+1, the value is a signed ratio
    of products over the boxes directly above and directly to the left.
    ``a_coeff`` and ``a_oracle`` both read it, through ``_h`` on the boxes of
    their path, and ``tilde_a`` never does.
    """
    lam1, lam = as_partition(lam1), as_partition(lam)
    return _h(lam, added_box(lam1, lam))


def _h(lam: Partition, box: Box) -> Fraction:
    """``h_coeff`` of the edge that adds ``box`` and ends at lam."""
    row, col = box
    arm = 1
    for i in range(1, row):
        arm *= lam[i - 1] - col + row - i
    leg, height = 1, len(lam)
    for j in range(1, col):
        while lam[height - 1] < j:  # height is the length of column j
            height -= 1
        leg *= height - row + col + 1 - j
    return Fraction(arm if col % 2 else -arm, leg)


def a_coeff(lam1, lam, mu, branch: str) -> Fraction:
    """Structure constant of the restriction map, in closed ratio form.

    In the square case the nu branch is 1 and the lam branch is the h ratio
    divided by the content difference d; in the degenerate (domino) case the
    sign is +1 for a horizontal and -1 for a vertical domino.  ``_a_coeff``
    is the body on a path already built, one value per branch.
    """
    path = removal_path(lam1, lam, mu, branch)
    return _a_coeff(path)[path.branches.index(branch)]


def _a_coeff(path: RemovalPath) -> tuple[Fraction, ...]:
    b1, b2 = path.b1, path.b2
    ratio = _h(path.mu, b2) / _h(path.lam, b1)
    if path.nu is not None:
        return ratio / (content(b2) - content(b1)), Fraction(1)
    return (ratio if b1[0] == b2[0] else -ratio,)


def a_closed_expanded(lam1, lam, mu) -> Fraction:
    """Fully expanded product form of the lam branch coefficient.

    Valid only for the configuration with the first added box strictly above
    and strictly to the right of the second one.
    """
    path = removal_path(lam1, lam, mu)
    b1, b2, mu = path.b1, path.b2, path.mu
    if not (b1[0] < b2[0] and b1[1] > b2[1]):
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

    Sends the row-major tableau of lam1 to its image cv + (c1, c2) in mu,
    acts on it by the adjacent swap s_{n-1} (``_act``), decomposes the
    result exactly over the composites, one for a domino and two for a
    square, checking that nothing falls outside them, and rescales by the h
    ratio.  Every other tableau of lam1 would give the same equations, since
    s_{n-1} reads only the added contents.  The closed forms above are never
    consulted.  ``_a_oracle`` is the body on a path already built: one
    decomposition, one value per branch.
    """
    path = removal_path(lam1, lam, mu, branch)
    return _a_oracle(path)[path.branches.index(branch)]


def _a_oracle(path: RemovalPath) -> tuple[Fraction, ...]:
    coeffs = _oracle_solve(path.lam1, content(path.b1), content(path.b2))
    h_base = _h(path.lam, path.b1)
    # the box each composite adds last: b2 on lam -> mu, b1 on nu -> mu
    return tuple(x * _h(path.mu, box) / h_base for x, box in zip(coeffs, (path.b2, path.b1)))
