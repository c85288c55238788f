"""The bosonic Fock space on the Schur basis.

Vectors are finite rational combinations of partitions.  The generators add
or remove a single box; their divided powers add or remove horizontal and
vertical strips, enumerated directly on diagrams.  Each strip image of a
partition is enumerated once per process and then read from one table.  The
enumerators return normalised partitions, so the operators accumulate their
images through ``FormalSum._apply`` without checking each key again.
"""

from __future__ import annotations

from functools import lru_cache

from .formal import FormalSum
from .partitions import (
    add_horizontal_strips,
    add_vertical_strips,
    as_partition,
    ind_set,
    remove_horizontal_strips,
    remove_vertical_strips,
    res_set,
)


class SchurVector(FormalSum):
    """Finite rational linear combination of partitions."""

    _check_key = staticmethod(as_partition)

    def to_json(self):
        return self.json_terms("partition", list)


def schur_basis(p) -> SchurVector:
    return SchurVector.basis(p)


def apply_q(v: SchurVector) -> SchurVector:
    """Remove one box in all ways; the empty partition maps to zero."""
    return v._apply(lambda p: [(1, q) for q in res_set(p)])


def apply_p(v: SchurVector) -> SchurVector:
    """Add one box in all ways."""
    return v._apply(lambda p: [(1, q) for q in ind_set(p)])


@lru_cache(maxsize=None)
def _strip_images(strips, m: int, p) -> tuple:
    """The (1, q) pairs for the partitions q that ``strips(p, m)`` lists, as a tuple."""
    return tuple((1, q) for q in strips(p, m))


def _apply_strips(strips, m: int, v: SchurVector) -> SchurVector:
    return v if m == 0 else v._apply(lambda p: _strip_images(strips, m, p))


def apply_p_row(m: int, v: SchurVector) -> SchurVector:
    """Add a horizontal m-strip (no two new boxes in one column); m = 0 is the identity."""
    return _apply_strips(add_horizontal_strips, m, v)


def apply_p_col(m: int, v: SchurVector) -> SchurVector:
    """Add a vertical m-strip (no two new boxes in one row); m = 0 is the identity."""
    return _apply_strips(add_vertical_strips, m, v)


def apply_q_row(n: int, v: SchurVector) -> SchurVector:
    """Remove a horizontal n-strip in all ways; n = 0 is the identity."""
    return _apply_strips(remove_horizontal_strips, n, v)


def apply_q_col(n: int, v: SchurVector) -> SchurVector:
    """Remove a vertical n-strip in all ways; n = 0 is the identity."""
    return _apply_strips(remove_vertical_strips, n, v)
