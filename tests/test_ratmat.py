from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonfermion.correspondence import matrix_c
from bosonfermion.partitions import dual, partitions_up_to
from bosonfermion.ratmat import RationalMatrix, SingularMatrixError, rank, solve_equations


def test_solve_equations_sparse_solution():
    # x0 (1, 2, 0) + x1 (0, 1, -1) = (3, 11/2, 1/2), one equation per coordinate
    equations = [
        {0: Fraction(1), 2: Fraction(3)},
        {0: Fraction(2), 1: Fraction(1), 2: Fraction(11, 2)},
        {1: Fraction(-1), 2: Fraction(1, 2)},
    ]
    assert solve_equations(iter(equations), 2) == [Fraction(3), Fraction(-1, 2)]
    homogeneous = [{c: v for c, v in eq.items() if c != 2} for eq in equations]
    assert solve_equations(iter(homogeneous), 2) == [0, 0]


def test_solve_equations_target_outside_span():
    # x0 (1, 1, 0) + x1 (0, 1, 1) = (1, 0, 2) has no solution
    equations = [
        {0: Fraction(1), 2: Fraction(1)},
        {0: Fraction(1), 1: Fraction(1)},
        {1: Fraction(1), 2: Fraction(2)},
    ]
    assert solve_equations(iter(equations), 2) is None


def test_solve_equations_target_support_outside_every_vector():
    # the last equation has a right side alone: 0 = 1
    equations = [{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]
    assert solve_equations(iter(equations), 2) is None


def test_solve_equations_checks_every_equation_after_the_pivots():
    # the first two fix x = (3, 4); the third holds with coefficients other
    # than 1, and only the fourth, read after every pivot, fails
    equations = [
        {0: Fraction(1), 2: Fraction(3)},
        {1: Fraction(1), 2: Fraction(4)},
        {0: Fraction(2), 1: Fraction(-1, 2), 2: Fraction(4)},
        {0: Fraction(1), 1: Fraction(1), 2: Fraction(8)},
    ]
    assert solve_equations(iter(equations[:3]), 2) == [3, 4]
    assert solve_equations(iter(equations), 2) is None


def test_solve_equations_dependent_vectors_raise():
    one, two, four = Fraction(1), Fraction(2), Fraction(4)
    # the vectors (1, 2) and (2, 4), then (1, 2) and the empty vector
    with pytest.raises(ValueError):
        solve_equations(iter([{0: one, 1: two, 2: one}, {0: two, 1: four}]), 2)
    with pytest.raises(ValueError):
        solve_equations(iter([{0: one, 2: one}, {0: two}]), 2)
    # no vector at all
    with pytest.raises(ValueError):
        solve_equations(iter([{0: one}]), 0)


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


def span_model(columns, target):
    """Dense model of ``solve_equations`` on integer columns over keys 0..5.

    ValueError when the columns are dependent (no nonzero full minor), else
    the solution of the first nonsingular square subsystem if it solves every
    equation, else None.
    """
    n = len(columns)
    a = [[col[k] for col in columns] for k in range(6)]
    if largest_nonzero_minor(a) < n:
        return ValueError
    rows = next(r for r in combinations(range(6), n) if RationalMatrix([a[i] for i in r]).det())
    x = RationalMatrix([a[i] for i in rows]).solve([target[i] for i in rows])
    solved = RationalMatrix(a) @ RationalMatrix([[xi] for xi in x])
    return x if solved.column(0) == [Fraction(t) for t in target] else None


@st.composite
def span_problems(draw):
    """1-3 columns over 6 keys with entries -2..2, a target near their span, dict orders."""
    entries = st.lists(st.integers(-2, 2), min_size=6, max_size=6)
    columns = draw(st.lists(entries, min_size=1, max_size=3))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(columns), max_size=len(columns)))
    offset = draw(st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2]), min_size=6, max_size=6))
    target = [sum(c * col[k] for c, col in zip(coeffs, columns)) + offset[k] for k in range(6)]
    orders = [draw(st.permutations(range(6))) for _ in range(len(columns) + 1)]
    return columns, target, orders


@settings(max_examples=400, deadline=None)
@given(span_problems())
def test_solve_equations_matches_a_dense_model(problem):
    columns, target, orders = problem
    sparse = [
        {k: Fraction(col[k]) for k in order if col[k]}
        for col, order in zip([*columns, target], orders)
    ]
    # one equation per key, the keys in the order they first appear in the
    # columns and then the target, each read in its drawn order
    keys = dict.fromkeys(k for vector in sparse for k in vector)
    equations = ({c: v[k] for c, v in enumerate(sparse) if k in v} for k in keys)
    expected = span_model(columns, target)
    if expected is ValueError:
        with pytest.raises(ValueError):
            solve_equations(equations, len(columns))
    else:
        assert solve_equations(equations, len(columns)) == expected
