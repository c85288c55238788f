from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonfermion.correspondence import matrix_c
from bosonfermion.partitions import dual, partitions_up_to
from bosonfermion.ratmat import RationalMatrix, SingularMatrixError, rank


def test_matrix_keeps_fraction_entries_and_coerces_others():
    half = Fraction(1, 2)
    m = RationalMatrix([[half, 1]])
    assert m.data[0][0] is half
    assert type(m.data[0][1]) is Fraction and m.data[0][1] == 1


def test_solve_several_right_hand_sides_equals_one_at_a_time():
    for lam in partitions_up_to(6):
        for k in range(max(len(dual(lam)), 1), len(dual(lam)) + 3):
            c = matrix_c(lam, k)
            # the unit vectors and one dense column, as a k x (k+1) matrix
            rhs = RationalMatrix(
                [[int(i == j) for j in range(k)] + [Fraction(i + 1, 3)] for i in range(k)]
            )
            x = c.solve(rhs)
            assert x.rows == k and x.cols == k + 1
            for j in range(k + 1):
                assert x.column(j) == c.solve(rhs.column(j)), (lam, k, j)
            assert c @ x == rhs, (lam, k)


def test_solve_singular_matrix_raises():
    singular = RationalMatrix([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        singular.solve([1, 0])
    with pytest.raises(SingularMatrixError):
        singular.solve(RationalMatrix([[1, 0], [0, 1]]))


def largest_nonzero_minor(m):
    """Model of the rank: the largest k with a nonzero k x k minor, by Bareiss ``det``."""
    cols = len(m[0]) if m else 0
    return max(
        (
            k
            for k in range(1, min(len(m), cols) + 1)
            for r in combinations(range(len(m)), k)
            for c in combinations(range(cols), k)
            if RationalMatrix([[m[i][j] for j in c] for i in r]).det()
        ),
        default=0,
    )


small_integer_matrices = st.integers(1, 4).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-2, 2), min_size=cols, max_size=cols), min_size=0, max_size=4
    )
)


@settings(max_examples=300, deadline=None)
@given(small_integer_matrices)
def test_rank_matches_the_largest_nonzero_minor(m):
    rows = [{j: x for j, x in enumerate(row) if x} for row in m]
    assert rank(rows) == largest_nonzero_minor(m)
