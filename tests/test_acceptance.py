"""Acceptance gate: every criterion at its stated size and tolerance.

All arithmetic is exact rational, so every tolerance below is exact equality.
Criteria 2-9 run the named sweeps of ``bosonfermion.suites`` (the ones
``bosonfermion verify`` runs) and pin each sweep's case count.  Each test
prints one pass line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from fractions import Fraction
from functools import lru_cache

from bosonfermion import correspondence as co
from bosonfermion import symgroup
from bosonfermion.partitions import added_box, content
from bosonfermion.ratmat import RationalMatrix
from bosonfermion.suites import run_suite


def report(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


@lru_cache(maxsize=None)
def suite(name, size):
    """The suite's result and the seconds it took; criteria that share a sweep run it once."""
    start = time.monotonic()
    result = run_suite(name, size)
    return result, time.monotonic() - start


def passed_with_cases(name, size, cases):
    result, elapsed = suite(name, size)
    assert result.passed, result.failures[:5]
    assert result.cases == cases
    return elapsed


def test_criterion_1_golden_example():
    start = time.monotonic()
    assert co.matrix_c((2,), 2) == RationalMatrix([[1, 1], [Fraction(1, 2), 1]])
    assert co.g_vector((2,), (1,)) == [Fraction(2), Fraction(-2)]
    assert co.tilde_a((1,), (2,), (2, 1), symgroup.LAM_BRANCH) == 2
    assert co.tilde_a((1,), (2,), (2, 1), symgroup.NU_BRANCH) == 1
    assert symgroup.a_coeff((1,), (2,), (2, 1), symgroup.LAM_BRANCH) == 2
    box1 = added_box((1,), (2,))
    box2 = added_box((2,), (2, 1))
    assert content(box2) - content(box1) == -2
    assert symgroup.h_coeff((2,), (2, 1)) == 2
    assert symgroup.h_coeff((1,), (2,)) == Fraction(-1, 2)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"golden example reproduced exactly in {elapsed:.3f}s")


def test_criterion_2_coefficient_sweep():
    elapsed = passed_with_cases("bfhcl", 8, 477)
    assert elapsed < 300.0
    report(
        2,
        "solved = closed = oracle on every branch case, |mu| <= 8 "
        f"(bfhcl 8, 477 cases), in {elapsed:.1f}s",
    )


def test_criterion_3_clifford_relations():
    passed_with_cases("clifford", 6, 13650)
    report(3, "generator relations exact on 13650 cases (energy <= 6, |k| <= 2, |i|,|j| <= 6)")


def test_criterion_4_heisenberg_relations():
    passed_with_cases("heisenberg", 10, 2539)
    report(
        4,
        "qp = pq + 1 for |lam| <= 10; strip commutation, row, column and mixed exchange "
        "for |lam| <= 6, m, n <= 3 (heisenberg 10, 2539 cases)",
    )


def test_criterion_5_partial_sum_twists():
    passed_with_cases("serre", 10, 6033)
    report(
        5,
        "column twist (n <= 4, |lam| <= 10), row twist (n <= 3, |lam| <= 8) and the "
        "pairing biconditional (serre 10, 6033 cases)",
    )


def test_criterion_6_identity_suite():
    passed_with_cases("identities", 12, 661)
    report(
        6,
        "alternating factorial sum, Cauchy determinant, factorial identity, determinant forms "
        "all exact (identities 12, 661 cases)",
    )


def test_criterion_7_resolution_suite():
    passed_with_cases("resolutions", 6, 302)
    report(
        7,
        "rank exactness, cokernels and graded Euler checks, n <= 3, |lam| <= 6 "
        "(resolutions 6, 302 cases)",
    )


def test_criterion_8_sequence_transport():
    passed_with_cases("bfhcl", 8, 477)
    report(
        8,
        "sequence map intertwines box operators with stabilized quadratic sums, "
        "|lam| <= 8 (bfhcl 8)",
    )


def test_criterion_9_edge_constant_squares():
    passed_with_cases("identities", 12, 661)
    report(9, "edge constant square relation exact, |mu| <= 8 (identities 12)")
