from itertools import combinations, product

import pytest

from bosonfermion.formal import FormalSum
from bosonfermion.partitions import (
    as_partition,
    dual,
    interlacing,
    partitions_bounded,
    partitions_up_to,
    union_columns,
)
from bosonfermion.quiver import (
    ArrowElement,
    FElement,
    LimitLabel,
    Resolution,
    Truncation,
    _basis,
    _boundary,
    df_tensor_dims,
    exists_hom,
    graded_euler_check,
    multiply,
    projective_basis,
    q_module_basis,
    q_module_dims,
    rank_exactness,
    resolution_df_p,
    resolution_q,
    resolution_simple,
    serre_bar_k0,
    simple_dims,
)
from bosonfermion.ratmat import rank


def horizontal_skew(inner, outer):
    # oracle: containment plus at most one new box per column
    from bosonfermion.partitions import part

    if not all(part(outer, i + 1) >= v for i, v in enumerate(inner)):
        return False
    cols_used = []
    for r in range(1, len(outer) + 1):
        lo, hi = part(inner, r), part(outer, r)
        cols_used.extend(range(lo + 1, hi + 1))
    return len(set(cols_used)) == len(cols_used)


def test_exists_hom_examples():
    assert exists_hom((1,), (2, 1))
    assert not exists_hom((), (1, 1))
    for lam in partitions_up_to(6):
        assert exists_hom(lam, lam)


def test_exists_hom_matches_strip_oracle():
    for outer in partitions_up_to(7):
        for inner in partitions_up_to(7):
            assert exists_hom(inner, outer) == horizontal_skew(inner, outer), (inner, outer)


def test_multiply_examples():
    arrow = ArrowElement
    assert multiply(arrow((), (1,)), arrow((1,), (2,))) == FElement.basis(arrow((), (2,)))
    assert multiply(arrow((), (1,)), arrow((1,), (1, 1))).is_zero()
    assert multiply(arrow((1,), (1,)), arrow((1,), (2, 1))) == FElement.basis(arrow((1,), (2, 1)))
    assert multiply(arrow((), (1,)), arrow((2,), (3,))).is_zero()
    with pytest.raises(ValueError):
        ArrowElement((1, 1), (2,))


def test_multiply_associative_on_composable_triples():
    labels = list(partitions_up_to(8))
    for delta in labels:
        gammas = [g for g in partitions_up_to(sum(delta)) if exists_hom(g, delta)]
        for gamma in gammas:
            betas = [b for b in partitions_up_to(sum(gamma)) if exists_hom(b, gamma)]
            for beta in betas:
                for alpha in partitions_up_to(sum(beta)):
                    if not exists_hom(alpha, beta):
                        continue
                    a = ArrowElement(alpha, beta)
                    b = ArrowElement(beta, gamma)
                    c = ArrowElement(gamma, delta)
                    assert multiply(a, b) * FElement.basis(c) == FElement.basis(a) * multiply(b, c)


def test_projective_basis_examples():
    assert [x.source for x in projective_basis((1,), Truncation(1, 4))] == [
        (),
        (1,),
    ]
    assert [x.source for x in projective_basis((), Truncation(0, 0))] == [()]
    sources = [x.source for x in projective_basis((2, 1), Truncation(2, 4))]
    assert sources == [(1,), (1, 1), (2,), (2, 1)]
    with pytest.raises(ValueError):
        projective_basis((1, 1), Truncation(1, 4))


def test_projective_basis_matches_oracle():
    tr = Truncation(3, 9)
    for lam in partitions_bounded(3, 6):
        got = {x.source for x in projective_basis(lam, tr)}
        want = {eta for eta in partitions_bounded(3, 9) if horizontal_skew(eta, lam)}
        assert got == want, lam


def test_q_module_basis_examples():
    assert [(x.source, x.target) for x in q_module_basis((), 1, 3)] == [((1,), (1,))]
    got = [(x.source, x.target) for x in q_module_basis((1,), 1, 4)]
    assert got == [((1,), (2,)), ((2,), (2,))]
    with pytest.raises(ValueError):
        q_module_basis((2,), 1, 2)
    with pytest.raises(ValueError):
        q_module_basis((3,), 1, 2)


def test_q_module_basis_matches_the_bounded_scan():
    # model: scan the whole truncation for the partitions below lam
    for n in range(4):
        for m in range(9):
            for lam in partitions_bounded(n, m):
                if sum(union_columns(lam, n)) > m:
                    continue
                want = sorted(
                    ArrowElement(union_columns(eta, n), union_columns(lam, n))
                    for eta in partitions_bounded(n, m)
                    if exists_hom(eta, lam)
                )
                assert q_module_basis(lam, n, m) == want, (lam, n, m)


def test_resolution_q_shape():
    r = resolution_q((1,), 2)
    assert [labels for _, labels in r.terms] == [(((2, 1),)), (((2,),)), (((),))]
    assert r.arrow_text() == "P(()) -> P((2)) -> P((2,1))"
    r0 = resolution_q((), 1)
    assert r0.arrow_text() == "P(()) -> P((1))"


def test_resolution_q_consecutive_boundaries_vanish():
    for n in (1, 2, 3):
        for lam in partitions_bounded(n, 6):
            r = resolution_q(lam, n)
            for t in range(2, n + 1):
                (_, _, g2, _), = r.boundaries[t]
                (_, _, g1, _), = r.boundaries[t - 1]
                assert multiply(g2, g1).is_zero(), (lam, n, t)


def reference_cokernel(res, tr):
    """Cokernel of the lowest boundary, d_1 built and ranked on its own."""
    return len(_basis(res, 0, tr)) - rank(_boundary(res, 1, tr).values())


def squares_vanish(res, tr):
    """d_t d_{t+1} = 0 on every basis vector, from freshly built boundaries."""
    d = {t: _boundary(res, t, tr) for t in range(1, res.top_degree + 1)}
    return all(
        FormalSum.linear_combination((c, d[t][key]) for key, c in image.items()).is_zero()
        for t in range(1, res.top_degree) for image in d[t + 1].values()
    )


def ranks_fill(res, tr):
    """rank d_t + rank d_{t+1} = dim of degree t, from freshly built boundaries."""
    ranks = {t: rank(_boundary(res, t, tr).values()) for t in range(1, res.top_degree + 1)}
    return all(ranks[t] + ranks.get(t + 1, 0) == len(_basis(res, t, tr)) for t in ranks)


def suite_resolutions_with_boundaries():
    # the q and simple resolutions with boundaries that suite_resolutions ranks, at its sizes
    for n in (1, 2, 3):
        for lam in partitions_bounded(n, 6):
            tr = Truncation(n, sum(lam) + 2 * n + 2)
            yield resolution_q(lam, n), tr
            simple = resolution_simple(lam, n)
            if simple.boundaries is not None and lam:
                yield simple, tr


def test_rank_exactness_cokernel_matches_the_rebuilt_lowest_boundary():
    cases = 0
    for res, tr in suite_resolutions_with_boundaries():
        exact, cokernel = rank_exactness(res, tr)
        assert exact, res
        assert cokernel == reference_cokernel(res, tr), res
        cases += 1
    assert cases == 82  # 46 q and 36 simple resolutions


def test_rank_exactness_negative_control():
    res = resolution_q((1,), 2)
    # corrupt the lowest boundary generator
    res.boundaries[1] = ((0, 0, ArrowElement((2,), (2, 1)), 1),)
    res.terms[1] = (1, ((2,),))
    res.boundaries[2] = ((0, 0, ArrowElement((1,), (2,)), 1),)
    res.terms[2] = (2, ((1,),))
    tr = Truncation(2, 9)
    exact, cokernel = rank_exactness(res, tr)
    assert not exact and not squares_vanish(res, tr)
    assert cokernel == reference_cokernel(res, tr)


def test_rank_exactness_catches_a_missing_top_boundary():
    # d o d = 0 still holds with a zero top boundary, so only the ranks fail
    for lam, n in (((1,), 2), ((2, 1), 3)):
        res = resolution_q(lam, n)
        res.boundaries[n] = ()
        tr = Truncation(n, sum(lam) + 2 * n + 2)
        exact, _cokernel = rank_exactness(res, tr)
        assert not exact and squares_vanish(res, tr) and not ranks_fill(res, tr), (lam, n)


def test_rank_exactness_catches_a_boundary_that_does_not_square_to_zero():
    # with every sign +1 the ranks still add up, so only d o d = 0 fails
    res = resolution_simple((2, 1), 2)
    res.boundaries[2] = tuple((s, t, g, 1) for s, t, g, _ in res.boundaries[2])
    tr = Truncation(2, 9)
    exact, _cokernel = rank_exactness(res, tr)
    assert not exact and ranks_fill(res, tr) and not squares_vanish(res, tr)


def test_graded_euler_negative_control():
    res = resolution_q((1,), 2)
    res.terms[1] = (1, ((1, 1),))
    tr = Truncation(2, 9)
    assert not graded_euler_check(res, q_module_dims((1,), 2, 9), tr)


def test_resolution_df_p_shapes():
    r = resolution_df_p((1, 1), 2)
    assert r.labels_at(0) == (LimitLabel((1,), 2),)
    assert r.labels_at(1) == (LimitLabel((0,), 2),)
    assert r.labels_at(2) == ((),)
    degenerate = resolution_df_p((1,), 2)
    assert degenerate.terms == [(0, (LimitLabel((1,), 2),))]
    single = resolution_df_p((1,), 1)
    assert single.labels_at(1) == ((),)


def test_resolution_df_p_final_term_restores_base():
    # the top term appears exactly when the n-th row is nonempty, and adding
    # one box per row recovers the base partition
    for n in (1, 2, 3):
        for mu in partitions_bounded(n, 6):
            res = resolution_df_p(mu, n)
            if len(mu) == n:
                assert res.top_degree == n
                final = res.labels_at(n)[0]
                assert union_columns(final, n) == mu
            else:
                assert res.top_degree == 0


def test_resolution_simple_shapes():
    r = resolution_simple((1,), 1)
    assert r.arrow_text() == "P(()) -> P((1))"
    r0 = resolution_simple((), 2)
    assert r0.terms == [(0, ((),))]
    r2 = resolution_simple((2, 1), 2)
    assert r2.labels_at(1) == ((1, 1), (2,))
    assert r2.labels_at(2) == ((1,),)


def test_resolution_simple_rank_exactness_two_rows():
    for n in (1, 2):
        for lam in partitions_bounded(n, 6):
            if not lam:
                continue
            res = resolution_simple(lam, n)
            assert res.boundaries is not None
            tr = Truncation(n, sum(lam) + 2 * n + 2)
            exact, cokernel = rank_exactness(res, tr)
            assert exact and cokernel == 1, (lam, n)


def test_resolution_lengths():
    # the q chain always has length n; the simple resolution has length equal
    # to the number of nonzero rows, so global dimension n is never exceeded
    for n in (1, 2, 3, 4):
        for lam in partitions_bounded(n, 6):
            assert resolution_q(lam, n).top_degree == n
            assert resolution_simple(lam, n).top_degree == len(lam)


def test_serre_bar_examples():
    assert serre_bar_k0((3,), 1) == (1, 1, 1, 1)
    assert serre_bar_k0((), 2) == (2,)
    for n in range(1, 5):
        for lam in partitions_bounded(n, 8):
            assert exists_hom(dual(lam), serre_bar_k0(lam, n))


def test_degree_n_label_realizes_adjunction_count():
    # the only finite label in the dualizing-twist resolution sits at degree n
    # and equals lam exactly when the base is lam with one box added per row
    for n in (1, 2, 3):
        shapes = list(partitions_bounded(n, 6))
        for mu in shapes:
            res = resolution_df_p(mu, n)
            for lam in shapes:
                hits = sum(
                    1
                    for degree, labels in res.terms
                    if degree == n
                    for label in labels
                    if not isinstance(label, LimitLabel) and label == lam
                )
                expected = 1 if len(mu) == n and union_columns(lam, n) == mu else 0
                assert hits == expected, (mu, lam, n)


def test_column_truncation_twisted_basis():
    # inside the column-bounded truncation (at most n columns), the basis of the
    # projective at the twisted label consists exactly of the duals paired by
    # the biconditional
    for n in (1, 2, 3):
        for lam in partitions_bounded(n, 6):
            target = serre_bar_k0(lam, n)
            got = {eta for eta in interlacing(target) if not eta or eta[0] <= n}
            want = {
                dual(mu)
                for mu in partitions_bounded(n, sum(lam) + n)
                if exists_hom(dual(lam), dual(mu))
            }
            assert got == want, (lam, n)


def multiplicity(limit: LimitLabel, eta) -> int:
    """Reference multiplicity of a limit label at eta: 1 when its tail interlaces below eta."""
    return int(exists_hom(as_partition(limit.tail), as_partition(eta)))


def test_limit_label_multiplicity():
    limit = LimitLabel((2, 1), 3)
    assert multiplicity(limit, (5, 2, 1)) == 1
    assert multiplicity(limit, (2, 2, 1)) == 1
    assert multiplicity(limit, (1, 1, 1)) == 0  # first row below the tail start
    assert multiplicity(limit, (5, 3, 1)) == 0  # second row exceeds the tail
    assert multiplicity(limit, (5, 2, 1, 1)) == 0  # too many rows


def _subset_model(lam):
    """The simple resolution by s-subsets of rows, each losing one box."""
    k = len(lam)
    labels = {0: [((), lam)]}
    for s in range(1, k + 1):
        labels[s] = []
        for rows in combinations(range(1, k + 1), s):
            vals = [v - (i in rows) for i, v in enumerate(lam, start=1)]
            if all(a >= b for a, b in zip(vals, vals[1:])) and min(vals) >= 0:
                labels[s].append((rows, tuple(v for v in vals if v)))
    terms = [(s, tuple(label for _, label in labels[s])) for s in range(k + 1)]
    if k > 2:
        return terms, None
    boundaries = {}
    for s in range(1, k + 1):
        position = {rows: pos for pos, (rows, _) in enumerate(labels[s - 1])}
        boundaries[s] = tuple(
            (pos, position[smaller], ArrowElement(label, labels[s - 1][position[smaller]][1]), (-1) ** idx)
            for pos, (rows, label) in enumerate(labels[s])
            for idx, j in enumerate(rows)
            if (smaller := tuple(x for x in rows if x != j)) in position
        )
    return terms, boundaries


def test_resolution_simple_against_a_subset_model():
    for lam in partitions_bounded(5, 10):
        terms, boundaries = _subset_model(lam)
        for n in range(len(lam), 6):
            res = resolution_simple(lam, n)
            assert res.terms == terms, (lam, n)
            assert res.boundaries == boundaries, (lam, n)
    column = resolution_simple((1,) * 200, 200)
    assert column.terms == [(s, ((1,) * (200 - s),)) for s in range(201)]


def test_limit_label_multiplicity_against_a_row_model():
    tails = [
        t
        for m in range(4)
        for t in product(range(7), repeat=m)
        if all(a >= b for a, b in zip(t, t[1:]))
    ]
    etas = list(partitions_up_to(10))
    for tail in tails:
        n = len(tail) + 1
        limit = LimitLabel(tail, n)
        for eta in etas:
            rows = [eta[i] if i < len(eta) else 0 for i in range(max(n, len(eta)))]
            # eta_1 >= t_1 >= eta_2 >= ... >= t_{n-1} >= eta_n, nothing below row n
            want = len(eta) <= n and all(
                rows[i] >= tail[i] >= rows[i + 1] for i in range(n - 1)
            )
            assert multiplicity(limit, eta) == int(want), (tail, eta)


def _df_limit_labels():
    """Each limit label the df family builds for n <= 3 and |mu| <= 6, with the
    size bound m of the resolutions suite's truncation."""
    for n in (1, 2, 3):
        for mu in partitions_bounded(n, 6):
            for _, labels in resolution_df_p(mu, n).terms:
                for label in labels:
                    if isinstance(label, LimitLabel):
                        yield label, sum(mu) + 2 * n + 2


def test_limit_label_above_tail_enumeration_is_the_reference_support():
    # the eta the Euler check counts for a limit label, listed above its tail
    # size by size, are exactly the eta of size <= m where the reference is 1
    etas = {}
    for limit, m in _df_limit_labels():
        if m not in etas:
            etas[m] = list(partitions_up_to(m))
        listed = [
            eta for s in range(m + 1)
            for eta in interlacing(as_partition(limit.tail), above=True, total=s)
        ]
        assert len(listed) == len(set(listed)), limit
        assert set(listed) == {eta for eta in etas[m] if multiplicity(limit, eta)}, (limit, m)


def reference_graded_euler_check(res, target, tr) -> bool:
    """The graded Euler check as an every-label loop: each label of the
    truncation tests every projective of the complex."""
    for eta in tr.labels:
        total = 0
        for degree, labels in res.terms:
            sign = -1 if degree % 2 else 1
            for label in labels:
                if isinstance(label, LimitLabel):
                    total += sign * multiplicity(label, eta)
                elif exists_hom(eta, label):
                    total += sign
        if total != target(eta):
            return False
    return True


def _euler_cases():
    """Every (family, resolution, target, truncation) the resolutions suite checks at size 6."""
    for n in (1, 2, 3):
        for lam in partitions_bounded(n, 6):
            m = sum(lam) + 2 * n + 2
            tr = Truncation(n, m)
            yield "q", resolution_q(lam, n), q_module_dims(lam, n, m), tr
            yield "df", resolution_df_p(lam, n), df_tensor_dims(lam, n), tr
            yield "simple", resolution_simple(lam, n), simple_dims(lam), tr


def _reached(res, eta):
    """Which kinds of projective of ``res`` have a basis vector at eta."""
    return {
        "limit" if isinstance(label, LimitLabel) else "finite"
        for _, labels in res.terms
        for label in labels
        if (multiplicity(label, eta) if isinstance(label, LimitLabel) else exists_hom(eta, label))
    }


def test_graded_euler_check_against_the_every_label_loop():
    kinds = set()
    for family, res, target, tr in _euler_cases():
        assert graded_euler_check(res, target, tr) is reference_graded_euler_check(res, target, tr) is True
        # the target changed at one label: the first and last truncation
        # label of each kind, reached by a finite projective, only by a limit
        # projective, or by none
        by_kind = {}
        for eta in tr.labels:
            by_kind.setdefault(frozenset(_reached(res, eta)), []).append(eta)
        for kind, etas in by_kind.items():
            kinds.add((family, kind))
            for changed in {etas[0], etas[-1]}:
                shifted = lambda eta, c=changed: target(eta) + (eta == c)
                want = reference_graded_euler_check(res, shifted, tr)
                assert graded_euler_check(res, shifted, tr) is want, (res.terms, changed)
        # one label dropped from the complex
        for index, (degree, labels) in enumerate(res.terms):
            for pos in range(len(labels)):
                terms = list(res.terms)
                terms[index] = (degree, labels[:pos] + labels[pos + 1:])
                dropped = Resolution(terms)
                want = reference_graded_euler_check(dropped, target, tr)
                assert graded_euler_check(dropped, target, tr) is want, (res.terms, degree, pos)
    assert ("q", frozenset()) in kinds and ("df", frozenset({"limit"})) in kinds


def test_resolutions_list_each_truncation_once(monkeypatch):
    # the three Euler checks of a lam share its truncation, whose labels are
    # enumerated once: 46 walks for the 46 lams, where each check walked them
    from bosonfermion import quiver
    from bosonfermion.suites import run_suite

    listed = []

    def counted(rows, size):
        listed.append((rows, size))
        return partitions_bounded(rows, size)

    monkeypatch.setattr(quiver, "partitions_bounded", counted)
    result = run_suite("resolutions", 6)
    assert result.passed and result.cases == 302
    assert len(listed) == 46
    tr = Truncation(2, 5)
    assert tr.labels is tr.labels and tr.labels == tuple(partitions_bounded(2, 5))
