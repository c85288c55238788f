from fractions import Fraction

import pytest

from bosonfermion import correspondence, ratmat, symgroup
from bosonfermion.correspondence import (
    cauchy_det,
    det_a_closed,
    f_closed,
    f_sum,
    g_vector,
    inv_factorial,
    matrix_a_closed,
    matrix_b,
    matrix_c,
    subclaim_identity,
    tilde_a,
    verify_bf_hcl,
    wtq_tensor,
)
from bosonfermion.partitions import added_box, content, dual, ind_set, partitions_of, partitions_up_to, res_set
from bosonfermion.ratmat import RationalMatrix
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


def sweep_rows(mu):
    """The rows of the level sweep |mu| whose path ends at mu."""
    return [row for row in verify_bf_hcl(sum(mu)) if row["mu"] == mu]


def test_verify_small():
    rows = sweep_rows((2, 1))
    assert rows and all(row["pass"] for row in rows)
    assert {c["branch"] for c in rows} == {LAM_BRANCH, NU_BRANCH}
    assert sweep_rows((1,)) == []


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
    calls = {"dense": 0, "path": 0, "oracle": 0}
    dense, path, oracle = ratmat._bareiss, symgroup.removal_path, symgroup._oracle_solve

    def counted_dense(rows, n):
        calls["dense"] += 1
        return dense(rows, n)

    def counted_path(*args):
        calls["path"] += 1
        return path(*args)

    def counted_oracle(*args):
        calls["oracle"] += 1
        return oracle(*args)

    monkeypatch.setattr(ratmat, "_bareiss", counted_dense)
    monkeypatch.setattr(symgroup, "removal_path", counted_path)
    monkeypatch.setattr(symgroup, "_oracle_solve", counted_oracle)
    paths, lams = 0, set()
    for n in range(8):
        level = [(lam1, lam, mu) for mu in partitions_of(n) for lam1, lam in removal_paths(mu)]
        assert all(row["pass"] for row in verify_bf_hcl(n)), n
        paths += len(level)
        lams.update(lam for _, lam, _ in level)
    # the level builds its paths, so none goes through removal_path; one
    # oracle solve per removal path (square or domino), and one elimination
    # of C per partition lam with a corner, for the whole sweep
    assert calls["path"] == 0
    assert calls["oracle"] == paths
    assert calls["dense"] == len(lams)


def test_level_sweep_visits_each_removal_path_once():
    for n in range(9):
        want = [(mu, lam, lam1) for mu in partitions_of(n) for lam1, lam in removal_paths(mu)]
        assert len(set(want)) == len(want), n
        branches = {}
        for row in verify_bf_hcl(n):
            branches.setdefault((row["mu"], row["lam"], row["lam1"]), []).append(row["branch"])
        assert sorted(branches) == sorted(want), n
        for mu, lam, lam1 in want:
            b1, b2 = added_box(lam1, lam), added_box(lam, mu)
            square = b1[0] != b2[0] and b1[1] != b2[1]
            expected = [LAM_BRANCH, NU_BRANCH] if square else [LAM_BRANCH]
            assert branches[mu, lam, lam1] == expected, (lam1, lam, mu)


def test_level_built_paths_are_the_checked_paths():
    # paths_through builds from lam's boxes what removal_path checks and derives
    for n in range(8):
        for lam in partitions_of(n):
            built = list(symgroup.paths_through(lam))
            assert [(p.mu, p.lam1) for p in built] == sorted((p.mu, p.lam1) for p in built), lam
            assert len(built) == len(res_set(lam)) * len(ind_set(lam)), lam
            for path in built:
                assert path == symgroup.removal_path(path.lam1, lam, path.mu), path


def dense_corner_solve(lam, anchor, k):
    """The corner's chain-map solution at k copies, by the dense solve of C."""
    rhs = RationalMatrix([[-inv_factorial(i - anchor)] for i in range(1, k + 1)])
    return matrix_c(lam, k).solve(rhs).column(0)


def test_corner_solution_window_covers_the_edge_window():
    # the solve per lam uses lam_1 + 1 copies; the first lam_1 components
    # are those of the column-count window
    for lam in partitions_up_to(10):
        for lam1 in res_set(lam):
            anchor = content(added_box(lam1, lam)) + 1
            assert g_vector(lam, lam1) == dense_corner_solve(lam, anchor, lam[0]), (lam1, lam)


def test_integer_corner_solve_is_the_dense_solve():
    # the integer rows of C and its right-hand sides solve as C itself does
    for lam in partitions_up_to(10):
        if not lam:
            continue
        for anchor, solution in correspondence.corner_solutions(lam).items():
            assert solution == dense_corner_solve(lam, anchor, lam[0] + 1), (lam, anchor)


def test_matrix_c_is_its_inverse_factorial_definition():
    for lam in partitions_up_to(8):
        cols = dual(lam)
        for k in range(len(cols), len(cols) + 3):
            padded = cols + (0,) * (k - len(cols))
            want = [[inv_factorial(i - (-padded[j - 1] + j)) for j in range(1, k + 1)] for i in range(1, k + 1)]
            assert matrix_c(lam, k).data == want, (lam, k)


def test_tilde_a_is_one_corner_of_the_shared_solve():
    for mu in partitions_up_to(7):
        report = {(c["lam1"], c["lam"], c["branch"]): c for c in sweep_rows(mu)}
        for lam1, lam in removal_paths(mu):
            j0 = added_box(lam, mu)[1]
            copies = max(len(dual(lam)), j0)
            anchor = content(added_box(lam1, lam)) + 1
            solved = tilde_a(lam1, lam, mu, LAM_BRANCH)
            assert solved == dense_corner_solve(lam, anchor, copies)[j0 - 1], (lam1, lam, mu)
            assert report[(lam1, lam, LAM_BRANCH)]["a_tilde"] == solved


def test_sweep_reads_boxes_from_the_removal_path(monkeypatch):
    # the solved route takes b1 and b2 from the path it is handed, so the
    # sweep never asks correspondence for an added box of its own
    def unreachable(*args):
        raise AssertionError("the solved route computed an added box")

    monkeypatch.setattr(correspondence, "added_box", unreachable)
    for mu in partitions_up_to(7):
        assert all(row["pass"] for row in sweep_rows(mu)), mu
