from fractions import Fraction

import pytest

from bosonfermion.ratmat import RationalMatrix, solve_in_span


def test_solve_in_span_sparse_solution():
    u = {"a": Fraction(1), "b": Fraction(2)}
    v = {"b": Fraction(1), "c": Fraction(-1)}
    target = {"a": Fraction(3), "b": Fraction(11, 2), "c": Fraction(1, 2)}
    assert solve_in_span([u, v], target) == [Fraction(3), Fraction(-1, 2)]
    assert solve_in_span([u, v], {}) == [0, 0]


def test_solve_in_span_target_outside_span():
    u = {0: Fraction(1), 1: Fraction(1)}
    v = {1: Fraction(1), 2: Fraction(1)}
    assert solve_in_span([u, v], {0: Fraction(1), 2: Fraction(2)}) is None


def test_solve_in_span_target_support_outside_every_vector():
    u = {(0, 0): Fraction(1)}
    v = {(0, 1): Fraction(1)}
    assert solve_in_span([u, v], {(0, 0): Fraction(1), (1, 1): Fraction(1)}) is None


def test_solve_in_span_dependent_vectors_raise():
    u = {0: Fraction(1), 1: Fraction(2)}
    with pytest.raises(ValueError):
        solve_in_span([u, {0: Fraction(2), 1: Fraction(4)}], {0: Fraction(1)})
    with pytest.raises(ValueError):
        solve_in_span([u, {}], {0: Fraction(1)})
    with pytest.raises(ValueError):
        solve_in_span([], {0: Fraction(1)})


def test_matrix_keeps_fraction_entries_and_coerces_others():
    half = Fraction(1, 2)
    m = RationalMatrix([[half, 1]])
    assert m.data[0][0] is half
    assert type(m.data[0][1]) is Fraction and m.data[0][1] == 1
