from fractions import Fraction

import pytest

from bosonfermion.correspondence import (
    cauchy_det,
    det_a_closed,
    f_closed,
    f_sum,
    g_vector,
    matrix_a_closed,
    matrix_b,
    matrix_c,
    subclaim_identity,
    tilde_a,
    verify_bf_hcl,
    wtq_tensor,
)
from bosonfermion.partitions import added_box, dual, partitions_up_to, res_set
from bosonfermion.ratmat import RationalMatrix, format_fraction
from bosonfermion.suites import run_suite
from bosonfermion.symgroup import LAM_BRANCH, NU_BRANCH


def test_f_sum_examples():
    assert f_sum(1, 1) == -1
    assert f_sum(0, 1) == 1
    assert f_sum(-2, 3) == 1
    with pytest.raises(ValueError):
        f_sum(2, 0)


def test_f_closed_examples():
    assert f_closed(1, 1) == -1
    assert f_closed(0, 1) == 1
    assert f_closed(2, 3) == Fraction(1, 8)


def test_cauchy_examples():
    assert cauchy_det([0], [1]) == 1
    assert cauchy_det([1, 2], [0, 1]) == Fraction(1, 12)
    with pytest.raises(ValueError):
        cauchy_det([1, -1], [1, 1])


def test_matrix_c_examples():
    assert matrix_c((2,), 2) == RationalMatrix([[1, 1], [Fraction(1, 2), 1]])
    assert matrix_c((), 1) == RationalMatrix([[1]])
    assert matrix_c((2,), 2).det() == Fraction(1, 2)
    with pytest.raises(ValueError):
        matrix_c((3,), 2)


def test_matrix_b_examples():
    assert matrix_b(1) == RationalMatrix([[1]])
    assert matrix_b(2) == RationalMatrix([[1, 0], [-1, 1]])
    for k in range(1, 7):
        assert matrix_b(k).det() == 1


def test_matrix_a_and_determinants():
    assert (matrix_b(2) @ matrix_c((2,), 2)) == RationalMatrix(
        [[1, 1], [Fraction(-1, 2), 0]]
    )
    assert matrix_a_closed((), 1) == matrix_c((), 1)
    for lam in partitions_up_to(8):
        k = lam[0] if lam else 1
        assert matrix_b(k) @ matrix_c(lam, k) == matrix_a_closed(lam, k), lam
        d = matrix_c(lam, k).det()
        assert d == det_a_closed(lam, k), lam
        assert d != 0, lam
        # padded windows agree too
        assert matrix_c(lam, k + 2).det() == det_a_closed(lam, k + 2), lam


def test_unit_columns_of_closed_matrix():
    # columns past the shifted-positive block are standard basis vectors
    lam = (3, 1)
    k = 5
    cols = matrix_a_closed(lam, k)
    from bosonfermion.partitions import dual, part

    d = dual(lam)
    for j in range(1, k + 1):
        e = part(d, j) - j
        if e < 0:
            column = cols.column(j - 1)
            assert column.count(0) == k - 1
            assert column[j - part(d, j) - 1] == 1


def test_wtq_tensor_example():
    w = wtq_tensor((2,))
    assert w.k == 2
    kinds = [(i, kind) for (i, kind, _, _) in w.components]
    assert kinds == [(0, "copy"), (1, "copy"), (2, "corner")]
    assert w.c_matrix == matrix_c((2,), 2)
    assert w.corner_columns[2] == [Fraction(0), Fraction(1)]
    assert w.quotient_labels() == [(1,)]


def test_wtq_tensor_second_example():
    # the complex against (2,1): copies at windows -1 and 1, corners at 0 and 2,
    # with inverse-factorial arrows 1/2, 1/6 and 1, 1/2
    w = wtq_tensor((2, 1))
    comp = [(i, kind, label) for (i, kind, label, _) in w.components]
    assert comp == [
        (-1, "copy", (2, 1)),
        (0, "corner", (2,)),
        (1, "copy", (2, 1)),
        (2, "corner", (1, 1)),
    ]
    assert w.c_matrix == RationalMatrix([[Fraction(1, 2), 1], [Fraction(1, 6), 1]])
    assert w.corner_columns[1] == [Fraction(1), Fraction(1, 2)]
    assert w.corner_columns[2] == [Fraction(0), Fraction(1)]


def test_wtq_tensor_vacuum_and_quotients():
    assert wtq_tensor(()).k == 0
    for lam in partitions_up_to(10):
        w = wtq_tensor(lam)
        assert sorted(w.quotient_labels()) == sorted(res_set(lam)), lam


def test_g_vector_examples():
    assert g_vector((2,), (1,)) == [Fraction(2), Fraction(-2)]
    g = g_vector((2, 1), (2,))
    c = matrix_c((2, 1), 2)
    rhs = [sum(c.data[i][j] * g[j] for j in range(2)) for i in range(2)]
    from bosonfermion.correspondence import inv_factorial

    anchor = 0  # the corner removed from column 1 of (2,1) sits at window 0
    assert rhs == [-inv_factorial(1 - anchor), -inv_factorial(2 - anchor)]
    with pytest.raises(ValueError):
        g_vector((2,), (2,))


def test_tilde_a_examples():
    assert tilde_a((1,), (2,), (2, 1), LAM_BRANCH) == 2
    assert tilde_a((1,), (2,), (2, 1), NU_BRANCH) == 1
    assert tilde_a((), (1,), (2,), LAM_BRANCH) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        tilde_a((), (1,), (2,), NU_BRANCH)
    with pytest.raises(ValueError):
        tilde_a((1,), (2, 1), (2, 2), LAM_BRANCH)


def test_verify_small():
    report = verify_bf_hcl((2, 1))
    assert report["passed"]
    assert {c["branch"] for c in report["cases"]} == {LAM_BRANCH, NU_BRANCH}
    trivial = verify_bf_hcl((1,))
    assert trivial["passed"] and trivial["cases"] == []


def test_bfhcl_suite_at_size_ten():
    result = run_suite("bfhcl", 10)
    assert result.passed, result.failures[:3]
    assert result.cases == 1091


def test_subclaim_examples_and_sweep():
    assert subclaim_identity((1,))
    assert subclaim_identity((2, 1))
    with pytest.raises(ValueError):
        subclaim_identity(())


def removal_paths(mu):
    for lam in sorted(res_set(mu)):
        for lam1 in sorted(res_set(lam)):
            yield lam1, lam


def test_verify_solves_each_system_once(monkeypatch):
    from bosonfermion import correspondence, symgroup

    calls = {"dense": 0, "path": 0}
    dense, path = RationalMatrix.solve, symgroup.removal_path

    def counted_dense(self, rhs):
        calls["dense"] += 1
        return dense(self, rhs)

    def counted_path(*args):
        calls["path"] += 1
        return path(*args)

    monkeypatch.setattr(RationalMatrix, "solve", counted_dense)
    monkeypatch.setattr(symgroup, "removal_path", counted_path)
    symgroup._oracle_solve.cache_clear()
    correspondence._corner_solutions.cache_clear()
    paths, lams = 0, set()
    for mu in partitions_up_to(7):
        before = calls["path"]
        assert verify_bf_hcl(mu)["passed"], mu
        # one removal_path call per path below mu, shared by the three routes
        assert calls["path"] - before == len(list(removal_paths(mu))), mu
        paths += len(list(removal_paths(mu)))
        lams.update(lam for lam in res_set(mu) if res_set(lam))
    # one oracle solve per removal path (square or domino), and one
    # elimination of C per partition lam with a corner, for the whole sweep
    assert symgroup._oracle_solve.cache_info().misses == paths
    assert calls["dense"] == len(lams)


def test_corner_solution_window_covers_the_edge_window():
    # the cached solve uses lam_1 + 1 copies; the first lam_1 components
    # are those of the column-count window
    for lam in partitions_up_to(10):
        for lam1 in res_set(lam):
            assert g_vector(lam, lam1) == g_vector(lam, lam1, lam[0] + 1)[: lam[0]], (lam1, lam)


def test_tilde_a_is_one_corner_of_the_shared_solve():
    for mu in partitions_up_to(7):
        cases = verify_bf_hcl(mu)["cases"]
        report = {(tuple(c["lam1"]), tuple(c["lam"]), c["branch"]): c for c in cases}
        for lam1, lam in removal_paths(mu):
            j0 = added_box(lam, mu)[1]
            copies = max(len(dual(lam)), j0)
            solved = tilde_a(lam1, lam, mu, LAM_BRANCH)
            assert solved == g_vector(lam, lam1, copies)[j0 - 1], (lam1, lam, mu)
            assert report[(lam1, lam, LAM_BRANCH)]["a_tilde"] == format_fraction(solved)


def test_sweep_reads_boxes_from_the_removal_path(monkeypatch):
    # the solved route takes b1 and b2 from symgroup.removal_path, so the
    # sweep never asks correspondence for an added box of its own
    from bosonfermion import correspondence

    def unreachable(*args):
        raise AssertionError("the solved route computed an added box")

    monkeypatch.setattr(correspondence, "added_box", unreachable)
    for mu in partitions_up_to(7):
        assert verify_bf_hcl(mu)["passed"], mu
