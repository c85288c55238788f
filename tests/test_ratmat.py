from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonfermion.correspondence import det_a_closed, matrix_c
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
                one = RationalMatrix([[v] for v in rhs.column(j)])
                assert x.column(j) == c.solve(one).column(0), (lam, k, j)
            assert c @ x == rhs, (lam, k)


def test_solve_singular_matrix_raises():
    singular = RationalMatrix([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        singular.solve(RationalMatrix([[1], [0]]))
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


# Rational entries, zero half the time, so leading pivots vanish and force row swaps.
rationals = st.one_of(
    st.just(Fraction(0)),
    st.sampled_from(sorted({Fraction(p, q) for p in range(-4, 5) for q in range(1, 7)})),
)


def small_matrices(elements):
    """Up to 5 rows of 1 to 4 columns, so some have more rows than columns."""
    return st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(elements, min_size=cols, max_size=cols), min_size=0, max_size=5
        )
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_matrices(st.integers(-2, 2)), small_matrices(rationals)))
def test_rank_matches_the_largest_nonzero_minor(m):
    rows = [{j: x for j, x in enumerate(row) if x} for row in m]
    assert rank(rows) == largest_nonzero_minor(m)


def square_systems(max_n=5, max_rhs=3):
    """An n x n matrix and r right-hand sides as an n x r matrix, n >= 0, r >= 1."""
    return st.tuples(st.integers(0, max_n), st.integers(1, max_rhs)).flatmap(
        lambda nr: st.tuples(
            st.lists(st.lists(rationals, min_size=nr[0], max_size=nr[0]), min_size=nr[0], max_size=nr[0]),
            st.lists(st.lists(rationals, min_size=nr[1], max_size=nr[1]), min_size=nr[0], max_size=nr[0]),
        )
    )


def subtract(row: dict, factor: Fraction, other: dict) -> None:
    """``row -= factor * other`` in place, dropping entries that cancel."""
    for col, value in other.items():
        value = row.get(col, 0) - factor * value
        if value:
            row[col] = value
        else:
            del row[col]


def echelon(rows, n: int) -> dict:
    """Gauss-Jordan elimination over sparse rows read one at a time.

    A row maps each column to its value through ``items()``.  Pivots are taken
    among the columns ``0 .. n-1`` (the unknowns).  Returns the pivot rows by
    pivot column, each with a 1 there and no entry in any other pivot column.
    """
    pivots: dict = {}
    for row in rows:
        row = {col: value for col, value in row.items() if value}
        for col in [c for c in row if c in pivots]:
            subtract(row, row[col], pivots[col])
        col = next((c for c in row if c < n), None)
        if col is None:
            continue
        inv = Fraction(1) / row[col]
        row = {c: value * inv for c, value in row.items()}
        for pivot_row in pivots.values():
            if col in pivot_row:
                subtract(pivot_row, pivot_row[col], row)
        pivots[col] = row
    return pivots


def echelon_solve(a, b):
    """Model of ``solve``: Gauss-Jordan over sparse ``Fraction`` rows, or None if singular."""
    n = len(a)
    pivots = echelon((dict(enumerate(row + b_row)) for row, b_row in zip(a, b)), n)
    if len(pivots) < n:
        return None
    return [[pivots[i].get(j, 0) for j in range(n, n + len(b[0]))] for i in range(n)]


def cofactor_det(m):
    """Model of ``det``: Laplace expansion along the first row."""
    if not m:
        return Fraction(1)
    return sum(
        (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


@settings(max_examples=200, deadline=None)
@given(square_systems())
def test_solve_matches_an_echelon_solve(system):
    a, b = system
    expected = echelon_solve(a, b)
    if expected is None:
        with pytest.raises(SingularMatrixError):
            RationalMatrix(a).solve(RationalMatrix(b))
        return
    x = RationalMatrix(a).solve(RationalMatrix(b))
    assert x.data == expected
    assert all(type(v) is Fraction for row in x.data for v in row)
    assert RationalMatrix(a) @ x == RationalMatrix(b)
    assert RationalMatrix(a).solve(RationalMatrix([row[:1] for row in b])).column(0) == x.column(0)


@pytest.mark.parametrize(
    "a",
    [
        [[0, 1], [1, 0]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        [[0, 2, 1], [3, 0, 0], [0, 0, Fraction(1, 2)]],
        [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
    ],
)
def test_solve_and_det_swap_past_zero_pivots(a):
    m = RationalMatrix(a)
    b = RationalMatrix([[i + 1, Fraction(1, i + 2)] for i in range(m.rows)])
    x = m.solve(b)
    assert x.data == echelon_solve(m.data, b.data)
    assert m @ x == b
    assert m.det() == cofactor_det(m.data) != 0


def test_empty_system():
    empty = RationalMatrix([])
    assert empty.solve(RationalMatrix([])) == RationalMatrix([])
    assert empty.det() == 1


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n - 1, max_size=n - 1),
            st.lists(rationals, min_size=n - 1, max_size=n - 1),
            st.integers(0, n - 1),
        )
    )
)
def test_singular_systems_raise(parts):
    rows, weights, at = parts
    n = len(rows) + 1
    dependent = [sum((w * row[j] for w, row in zip(weights, rows)), Fraction(0)) for j in range(n)]
    m = RationalMatrix(rows[:at] + [dependent] + rows[at:])
    with pytest.raises(SingularMatrixError):
        m.solve(RationalMatrix([[1]] * n))
    with pytest.raises(SingularMatrixError):
        m.solve(RationalMatrix([[1, 0]] * n))
    assert m.det() == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n),
        st.permutations(range(n)),
    )
))
def test_det_matches_the_cofactor_expansion_and_its_sign_under_swaps(case):
    m, order = case
    d = RationalMatrix(m).det()
    assert d == cofactor_det(m)
    assert type(d) is Fraction
    sign = 1
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                sign = -sign
    assert RationalMatrix([m[i] for i in order]).det() == sign * d


@pytest.mark.parametrize("k", [10, 20, 30, 40])
def test_det_of_c_matches_the_closed_form_at_large_k(k):
    # the entries 1/(i - w_j)! reach 1/(2k)!, so each row scale is a large factorial
    for lam in [(k,), (k, k // 2, 1), tuple(range(k, 0, -max(k // 5, 1))), (k // 2,) * 3]:
        for copies in (lam[0], k):
            assert matrix_c(lam, copies).det() == det_a_closed(lam, copies), (lam, copies)
