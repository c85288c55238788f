import gc
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from bosonfermion import symgroup
from bosonfermion.correspondence import tilde_a
from bosonfermion.partitions import (
    added_box,
    as_partition,
    content,
    dual,
    part,
    partitions_up_to,
    remove_box,
    removable_corners,
    res_set,
)
from bosonfermion.ratmat import RationalMatrix
from bosonfermion.suites import run_suite
from bosonfermion.symgroup import (
    LAM_BRANCH,
    NU_BRANCH,
    a_closed_expanded,
    a_coeff,
    a_oracle,
    h_coeff,
    removal_path,
)


def hook_count(shape):
    """Oracle for the number of standard tableaux: the hook length formula."""
    shape = as_partition(shape)
    n = sum(shape)
    cols = dual(shape)
    product = 1
    for r, row in enumerate(shape, start=1):
        for c in range(1, row + 1):
            product *= (row - c) + (cols[c - 1] - r) + 1
    return factorial(n) // product


# -- standard tableaux ------------------------------------------------------------
# The library enumerates no tableaux; the dense model and the reference
# oracle below read them from here.

@lru_cache(maxsize=None)
def tableaux(shape):
    """Content vectors of the standard tableaux of the shape, largest first.

    ``cv[v - 1]`` is the content of the box holding v; the vector determines
    the tableau (Okounkov-Vershik).
    """
    shape = as_partition(shape)
    if not shape:
        return ((),)
    out = [
        cv + (content(corner),)
        for corner in removable_corners(shape)
        for cv in tableaux(remove_box(shape, corner))
    ]
    return tuple(sorted(out, reverse=True))


def tableau_rows(cv):
    """Entries row by row: v goes in the addable box of content c_v."""
    rows = [[] for _ in range(1 - min(cv, default=1))]
    for v, c in enumerate(cv):
        # the addable box of content c is the next box down diagonal c
        rows[cv[:v].count(c) + max(-c, 0)].append(v + 1)
    return tuple(tuple(row) for row in rows)


# -- the dense model ------------------------------------------------------------
# Matrices built from the library's ``_act`` and the ``tableaux`` above alone:
# rows and columns follow the tableaux of a shape, largest content vector first.

def row_filling(shape):
    """Content vector of the tableau filled 1..n left to right along consecutive rows."""
    return tuple(c - r for r, length in enumerate(as_partition(shape), start=1) for c in range(1, length + 1))


def _dense(rows, column_cvs):
    """Dense matrix of sparse rows of (content vector, value) pairs, columns in ``column_cvs`` order."""
    index = {cv: col for col, cv in enumerate(column_cvs)}
    out = [[Fraction(0)] * len(index) for _ in rows]
    for out_row, row in zip(out, rows):
        for cv, value in row:
            out_row[index[cv]] = value
    return RationalMatrix(out)


@lru_cache(maxsize=None)
def _scale_table(shape):
    """Rescaling constants by content vector, checked for independence of the defining path.

    Walks breadth-first from the row-major filling along the standard swaps
    with content difference d <= -2, exactly the swaps that raise the
    Coxeter length by one, and multiplies by d/(d-1) along each.
    """
    table = {row_filling(shape): Fraction(1)}
    queue = list(table)
    for cv in queue:  # grows while it is read, so the walk is breadth-first
        for i in range(1, len(cv)):
            d = cv[i] - cv[i - 1]
            if d > -2:
                continue
            other = symgroup._swapped(cv, i)
            value = Fraction(d, d - 1) * table[cv]
            if other in table:
                if table[other] != value:
                    raise RuntimeError(f"inconsistent rescaling constants for {other}")
            else:
                table[other] = value
                queue.append(other)
    total = len(tableaux(shape))
    if len(table) != total:
        raise RuntimeError(f"rescaling constants reach {len(table)} of {total} tableaux")
    return table


def c_scale(shape, cv):
    return _scale_table(as_partition(shape))[cv]


def rep_action(i, shape):
    """Matrix of the i-th adjacent transposition; row t is the image of the t-th basis vector."""
    shape = as_partition(shape)
    n = sum(shape)
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    cvs = tableaux(shape)
    return _dense([symgroup._act(i, cv) for cv in cvs], cvs)


def f_map(lam, mu):
    """Inclusion sending a tableau of lam to its extension by the content of the added box."""
    lam, mu = as_partition(lam), as_partition(mu)
    c = content(added_box(lam, mu))
    return _dense([((cv + (c,), Fraction(1)),) for cv in tableaux(lam)], tableaux(mu))


# -- tableaux -----------------------------------------------------------------

def test_tableaux_examples():
    assert len(tableaux((2,))) == 1
    assert len(tableaux((1, 1, 1))) == 1
    ts = tableaux((2, 1))
    assert list(ts) == [(0, 1, -1), (0, -1, 1)]


def test_tableaux_counts_match_hook_formula():
    for shape in partitions_up_to(8):
        assert len(tableaux(shape)) == hook_count(shape), shape


def test_tableaux_are_standard_and_distinct():
    for shape in partitions_up_to(7):
        ts = tableaux(shape)
        assert len(set(ts)) == len(ts)
        for cv in ts:
            rows = tableau_rows(cv)
            for row in rows:
                assert all(a < b for a, b in zip(row, row[1:]))
            for r in range(len(rows) - 1):
                upper, lower = rows[r], rows[r + 1]
                assert all(upper[c] < lower[c] for c in range(len(lower)))


def contents_of_rows(rows):
    """Content vector read off a filling given row by row."""
    pos = {e: c - r for r, row in enumerate(rows, start=1) for c, e in enumerate(row, start=1)}
    return tuple(pos[v] for v in range(1, len(pos) + 1))


def reference_tableaux(shape):
    """Model: put n in each removable corner of the tableaux one box smaller, as rows."""
    if not shape:
        return [()]
    n = sum(shape)
    out = []
    for corner in removable_corners(shape):
        r = corner[0]
        for rows in reference_tableaux(remove_box(shape, corner)):
            grown = [list(row) for row in rows]
            if r - 1 < len(grown):
                grown[r - 1].append(n)
            else:
                grown.append([n])
            out.append(tuple(tuple(row) for row in grown))
    return sorted(out, key=contents_of_rows, reverse=True)


def test_tableaux_match_the_row_based_recursion():
    for shape in partitions_up_to(7):
        expected = reference_tableaux(shape)
        ts = tableaux(shape)
        assert [tableau_rows(cv) for cv in ts] == expected, shape
        assert list(ts) == [contents_of_rows(rows) for rows in expected]
        entries = iter(range(1, sum(shape) + 1))
        row_major = tuple(tuple(next(entries) for _ in range(length)) for length in shape)
        assert tableau_rows(row_filling(shape)) == row_major, shape


# -- rescaling constants --------------------------------------------------------

def test_c_scale_examples():
    for shape in [(3,), (2, 1), (3, 2)]:
        assert c_scale(shape, row_filling(shape)) == 1
    assert c_scale((2, 1), tableaux((2, 1))[1]) == Fraction(2, 3)


def test_c_scale_path_independent():
    # the table builder checks every length-increasing edge; building it for
    # all shapes is the path independence sweep
    for shape in partitions_up_to(8):
        values = [c_scale(shape, cv) for cv in tableaux(shape)]
        assert all(v != 0 for v in values)


# -- generator matrices ---------------------------------------------------------

def test_rep_action_examples():
    assert rep_action(1, (2,)) == RationalMatrix([[1]])
    assert rep_action(1, (2, 1)) == RationalMatrix([[1, 0], [0, -1]])
    m = rep_action(2, (2, 1))
    assert m == RationalMatrix([[Fraction(-1, 2), Fraction(3, 2)], [Fraction(1, 2), Fraction(1, 2)]])
    with pytest.raises(ValueError):
        rep_action(3, (2, 1))


def test_representation_axioms():
    for shape in partitions_up_to(8):
        n = sum(shape)
        if n < 2:
            continue
        mats = {i: rep_action(i, shape) for i in range(1, n)}
        size = len(tableaux(shape))
        ident = RationalMatrix([[int(i == j) for j in range(size)] for i in range(size)])
        for i in range(1, n):
            assert mats[i] @ mats[i] == ident, (shape, i)
        for i in range(1, n - 1):
            lhs = mats[i] @ mats[i + 1] @ mats[i]
            rhs = mats[i + 1] @ mats[i] @ mats[i + 1]
            assert lhs == rhs, (shape, i)
        for i in range(1, n):
            for j in range(i + 2, n):
                assert mats[i] @ mats[j] == mats[j] @ mats[i], (shape, i, j)


# -- inclusions -----------------------------------------------------------------

def test_f_map_examples():
    assert f_map((1,), (2,)) == RationalMatrix([[1]])
    assert f_map((1,), (1, 1)) == RationalMatrix([[1]])
    m = f_map((2,), (2, 1))
    assert m.rows == 1 and m.cols == 2
    assert sorted(m.data[0]) == [0, 1]
    with pytest.raises(ValueError):
        f_map((2,), (1, 1))


def test_square_coeffs_example_and_row_sum():
    # the oracle's solve on a square: (alpha, beta) over the lam and nu sides
    assert symgroup._oracle_solve((1,), 1, -1) == (Fraction(-1, 2), Fraction(3, 2))
    assert len(symgroup._oracle_solve((), 0, 1)) == 1  # a domino has one side
    for mu in partitions_up_to(7):
        for lam in sorted(res_set(mu)):
            for lam1 in sorted(res_set(lam)):
                b1, b2 = added_box(lam1, lam), added_box(lam, mu)
                if b1[0] == b2[0] or b1[1] == b2[1]:
                    continue
                alpha, beta = symgroup._oracle_solve(lam1, content(b1), content(b2))
                d = content(b2) - content(b1)
                assert alpha + beta == 1
                assert alpha == Fraction(1, d)
                assert beta == Fraction(d - 1, d)


# -- edge constants ---------------------------------------------------------------

def test_h_examples():
    assert h_coeff((1,), (2,)) == Fraction(-1, 2)
    assert h_coeff((2,), (2, 1)) == 2
    assert h_coeff((), (1,)) == 1
    with pytest.raises(ValueError):
        h_coeff((2,), (2,))


def test_h_coeff_normalises_its_input_and_rejects_non_edges():
    # input that is not normalised shares the normalised edge
    assert h_coeff((2, 1, 0), [3, 1]) == h_coeff([2, 1], (3, 1, 0, 0)) == h_coeff((2, 1), (3, 1))
    with pytest.raises(ValueError):
        h_coeff((2, 1, 0), (2, 1))


# -- structure constants ----------------------------------------------------------

def test_a_examples():
    assert a_coeff((1,), (2,), (2, 1), LAM_BRANCH) == 2
    assert a_coeff((1,), (2,), (2, 1), NU_BRANCH) == 1
    assert a_coeff((), (1,), (2,), LAM_BRANCH) == Fraction(-1, 2)
    assert a_oracle((1,), (2,), (2, 1), LAM_BRANCH) == 2
    assert a_oracle((1,), (2,), (2, 1), NU_BRANCH) == 1
    assert a_oracle((), (1,), (2,), LAM_BRANCH) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        a_coeff((), (1,), (1, 1), NU_BRANCH)


def paths(max_size):
    for mu in partitions_up_to(max_size):
        for lam in sorted(res_set(mu)):
            for lam1 in sorted(res_set(lam)):
                yield lam1, lam, mu


def test_removal_path_against_a_row_model():
    def model_box(small, big):
        # the one row where big is one longer than small, or None
        rows = [i for i in range(1, max(len(big), len(small)) + 1) if part(big, i) != part(small, i)]
        if sum(big) != sum(small) + 1 or len(rows) != 1:
            return None
        return (rows[0], part(big, rows[0]))

    by_size = {n: [p for p in partitions_up_to(7) if sum(p) == n] for n in range(8)}
    checked = {"path": 0, "square": 0, "non-path": 0}
    for n in range(6):
        for lam1 in by_size[n]:
            for lam in by_size[n] + by_size[n + 1]:
                for mu in by_size[n + 1] + by_size[n + 2]:
                    b1, b2 = model_box(lam1, lam), model_box(lam, mu)
                    message = f"{lam1} -> {lam} -> {mu} is not a path of single box additions"
                    if b1 is None or b2 is None:
                        checked["non-path"] += 1
                        for route in (removal_path, a_coeff, a_oracle, tilde_a):
                            with pytest.raises(ValueError) as info:
                                route(lam1, lam, mu, LAM_BRANCH)
                            assert str(info.value) == message, route
                        with pytest.raises(ValueError, match="not a path"):
                            removal_path(lam1, lam, mu, "bogus")
                        continue
                    checked["path"] += 1
                    path = removal_path(lam1, lam, mu)
                    assert path[:5] == (lam1, lam, mu, b1, b2)
                    domino = b1[0] == b2[0] or b1[1] == b2[1]
                    assert domino == (abs(content(b2) - content(b1)) == 1)
                    assert (path.nu is None) == domino
                    with pytest.raises(ValueError, match="unknown branch 'bogus'"):
                        removal_path(lam1, lam, mu, LAM_BRANCH, "bogus")
                    if domino:
                        assert path.branches == (LAM_BRANCH,)
                        with pytest.raises(ValueError, match="no second branch"):
                            removal_path(lam1, lam, mu, NU_BRANCH)
                        continue
                    checked["square"] += 1
                    assert path.branches == (LAM_BRANCH, NU_BRANCH)
                    assert removal_path(lam1, lam, mu, NU_BRANCH, LAM_BRANCH) == path
                    nu = as_partition([part(lam1, i) + (i == b2[0]) for i in range(1, len(mu) + 1)])
                    assert path.nu == nu
    assert checked == {"path": 124, "square": 68, "non-path": 4621}
    # input that is not normalised gives the normalised path
    assert removal_path((1, 0), [2], (2, 1, 0)) == removal_path((1,), (2,), (2, 1))


def test_oracle_equals_closed_form():
    for lam1, lam, mu in paths(8):
        b1, b2 = added_box(lam1, lam), added_box(lam, mu)
        two_dim = b1[0] != b2[0] and b1[1] != b2[1]
        assert a_oracle(lam1, lam, mu, LAM_BRANCH) == a_coeff(lam1, lam, mu, LAM_BRANCH), (
            lam1,
            lam,
            mu,
        )
        if two_dim:
            assert a_oracle(lam1, lam, mu, NU_BRANCH) == 1


def test_symmetrized_composites_agree_on_squares():
    # (1 + s) applied to the two sides of a square gives the same map, which
    # is what makes the path-algebra generators compatible across squares
    for mu in partitions_up_to(7):
        for lam in sorted(res_set(mu)):
            for lam1 in sorted(res_set(lam)):
                b1, b2 = added_box(lam1, lam), added_box(lam, mu)
                if b1[0] == b2[0] or b1[1] == b2[1]:
                    continue
                nu = [part(lam1, i) for i in range(1, len(mu) + 1)]
                nu[b2[0] - 1] += 1
                nu = as_partition(nu)
                f1 = f_map(lam1, lam) @ f_map(lam, mu)
                f2 = f_map(lam1, nu) @ f_map(nu, mu)
                s = rep_action(sum(mu) - 1, mu)
                ident = RationalMatrix([[int(i == j) for j in range(s.rows)] for i in range(s.rows)])
                assert f1 @ (ident + s) == f2 @ (ident + s), (lam1, lam, nu, mu)


def test_oracle_coefficients_solve_the_dense_system():
    # undo the h rescaling of the oracle and check the decomposition of the
    # swapped composite on dense matrices built independently of the oracle
    for lam1, lam, mu in paths(7):
        b1, b2 = added_box(lam1, lam), added_box(lam, mu)
        f1 = f_map(lam1, lam) @ f_map(lam, mu)
        s = rep_action(sum(mu) - 1, mu)
        h_base = h_coeff(lam1, lam)
        alpha = a_oracle(lam1, lam, mu, LAM_BRANCH) * h_base / h_coeff(lam, mu)
        if b1[0] == b2[0] or b1[1] == b2[1]:
            assert f1 @ s == alpha * f1, (lam1, lam, mu)
            continue
        nu = as_partition([part(lam1, i) + (i == b2[0]) for i in range(1, len(mu) + 1)])
        f2 = f_map(lam1, nu) @ f_map(nu, mu)
        beta = a_oracle(lam1, lam, mu, NU_BRANCH) * h_base / h_coeff(nu, mu)
        assert (alpha, beta) == symgroup._oracle_solve(lam1, content(b1), content(b2))
        assert f1 @ s == alpha * f1 + beta * f2, (lam1, lam, nu, mu)


def reference_oracle_solve(lam1, c1, c2):
    """The oracle's decomposition on every tableau of lam1, the first setting the values.

    Each image cv + (c1, c2) must give the first tableau's values on the sides
    and zero off them; ``symgroup._oracle_solve`` reads the row-major tableau,
    which is the first, alone.
    """
    sides = [(c1, c2)] if abs(c2 - c1) == 1 else [(c1, c2), (c2, c1)]
    i, coeffs = sum(lam1) + 1, None
    for cv in tableaux(lam1):
        targets = [cv + side for side in sides]
        values, stray = [Fraction(0)] * len(sides), False
        for image, value in symgroup._act(i, targets[0]):
            if image in targets:
                values[targets.index(image)] = value
            else:
                stray = stray or bool(value)
        if coeffs is None:
            coeffs = values
        if stray or values != coeffs:
            raise RuntimeError("swapped composite is not in the span of the composites")
    return tuple(coeffs)


def added_contents(lam1, lam, mu):
    path = removal_path(lam1, lam, mu)
    return content(path.b1), content(path.b2)


def test_one_tableau_oracle_matches_the_every_tableau_reference():
    checked = 0
    for lam1, lam, mu in paths(8):
        c1, c2 = added_contents(lam1, lam, mu)
        want = reference_oracle_solve(lam1, c1, c2)
        assert symgroup._oracle_solve(lam1, c1, c2) == want, (lam1, lam, mu)
        checked += 1
    assert checked == 218
    # the row-major filling is the largest content vector, the reference's first
    for shape in partitions_up_to(8):
        assert tableaux(shape)[0] == row_filling(shape), shape


def test_oracle_reads_no_tableaux_above_lam1(monkeypatch):
    # the images of the tableaux of lam1 carry the whole system, so the
    # reference needs no tableau of lam or mu, and the library oracle reads
    # no tableau at all: it builds the row-major content vector of lam1
    seen = []
    contents = tableaux

    def recorded(shape):
        seen.append(shape)
        return contents(shape)

    monkeypatch.setitem(globals(), "tableaux", recorded)
    lam1, lam, mu = (4, 3, 2, 1), (4, 3, 3, 1), (4, 3, 3, 2)
    for branch in (LAM_BRANCH, NU_BRANCH):
        assert a_oracle(lam1, lam, mu, branch) == a_coeff(lam1, lam, mu, branch)
    assert seen == []
    assert not hasattr(symgroup, "tableaux")
    c1, c2 = added_contents(lam1, lam, mu)
    assert reference_oracle_solve(lam1, c1, c2) == symgroup._oracle_solve(lam1, c1, c2)
    assert (4, 3, 2, 1) in seen
    assert max(sum(shape) for shape in seen) <= sum(mu) - 2


def test_oracle_checks_the_last_tableau(monkeypatch):
    # the first tableau of lam1 already fixes both coefficients of the
    # square, so only the reference's check of every later equation sees the
    # last one off; the library oracle reads the first alone, so a wrong
    # value there must show as an image off the sides
    lam1, lam, mu = (2, 1), (3, 1), (3, 2)
    c1, c2 = added_contents(lam1, lam, mu)
    last = tableaux(lam1)[-1]
    act = symgroup._act

    def off_by_one_on_the_last(i, cv):
        images = act(i, cv)
        if cv[:-2] != last:
            return images
        (image, diagonal), (swapped, off_diagonal) = images
        return (image, diagonal), (swapped, off_diagonal + 1)

    monkeypatch.setattr(symgroup, "_act", off_by_one_on_the_last)
    with pytest.raises(RuntimeError):
        reference_oracle_solve(lam1, c1, c2)

    def swaps_the_wrong_pair_on_the_row_major(i, cv):
        images = act(i, cv)
        if cv[:-2] != row_filling(lam1):
            return images
        (image, diagonal), (_, off_diagonal) = images
        return (image, diagonal), (symgroup._swapped(cv, i - 1), off_diagonal)

    monkeypatch.setattr(symgroup, "_act", swaps_the_wrong_pair_on_the_row_major)
    with pytest.raises(RuntimeError, match="swapped composite"):
        a_oracle(lam1, lam, mu, LAM_BRANCH)
    with pytest.raises(RuntimeError, match="swapped composite"):
        reference_oracle_solve(lam1, c1, c2)


def test_oracle_acts_on_every_tableau_of_lam1(monkeypatch):
    # the reference skips no tableau, though the first already fixes the
    # coefficients; the library oracle acts on that first one, the row-major
    # filling, and on nothing else
    lam1, lam, mu = (3, 2, 1), (4, 2, 1), (4, 2, 2)
    seen = []
    act = symgroup._act

    def recorded(i, cv):
        seen.append(cv[:-2])
        return act(i, cv)

    monkeypatch.setattr(symgroup, "_act", recorded)
    assert a_oracle(lam1, lam, mu, LAM_BRANCH) == a_coeff(lam1, lam, mu, LAM_BRANCH)
    assert seen == [row_filling(lam1)]
    seen.clear()
    c1, c2 = added_contents(lam1, lam, mu)
    want = reference_oracle_solve(lam1, c1, c2)
    assert set(seen) == set(tableaux(lam1))
    assert len(seen) == len(tableaux(lam1)) == hook_count(lam1)
    assert want == symgroup._oracle_solve(lam1, c1, c2)


def test_nothing_outlives_a_bfhcl_sweep():
    # the sweep holds one lam's solve at a time and keeps no coefficient
    # cache, so a larger sweep leaves nothing behind once it returns
    assert run_suite("bfhcl", 3).passed
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert run_suite("bfhcl", 12).passed
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


def test_expanded_form_on_its_configuration():
    seen = 0
    for lam1, lam, mu in paths(8):
        b1, b2 = added_box(lam1, lam), added_box(lam, mu)
        if b1[0] < b2[0] and b1[1] > b2[1]:
            assert a_closed_expanded(lam1, lam, mu) == a_coeff(lam1, lam, mu, LAM_BRANCH)
            seen += 1
    assert seen > 20
    with pytest.raises(ValueError):
        a_closed_expanded((1,), (1, 1), (2, 1))
