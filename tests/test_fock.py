from fractions import Fraction
from itertools import product

import pytest

from bosonfermion import cli, fock
from bosonfermion.fock import (
    FockVector,
    apply_psi,
    apply_psi_star,
    apply_t,
    apply_word,
    g_p_trunc,
    g_q_trunc,
    s_bar_n,
    s_n_op,
    stable_truncation,
    tau,
    vacuum,
)
from bosonfermion.partitions import (
    ChargedSequence,
    dual,
    ind_set,
    partitions_bounded,
    partitions_up_to,
    res_set,
    to_sequence,
    union_columns,
)
from bosonfermion.suites import _add_word, energy_basis, run_suite


def basis(seq):
    return FockVector.basis(seq)


def seq(charge, head=()):
    return ChargedSequence.of(charge, head)


def energy_keys(max_energy, charges=(-2, -1, 0, 1, 2)):
    return [to_sequence(p).shift(k) for k in charges for p in partitions_up_to(max_energy)]


# -- creation and annihilation ------------------------------------------------

def normalize(values, k: int) -> tuple[int, ChargedSequence] | None:
    """Sort an explicit prefix into a charged sequence, tracking the sign.

    Returns ``(sign, sequence)`` where sign is the parity of the sorting
    permutation, or None when any value repeats (including collisions with
    the implied tail), which annihilates a fermionic wedge.  The independent
    sign reference for the generators; ``test_partitions`` tests it.
    """
    vals = [int(x) for x in values]
    for x in vals:
        if x % 2 != 0:
            raise ValueError(f"odd entry {x}")
    m = len(vals)
    top = max(vals, default=0)
    combined = vals + [2 * i + 2 * k for i in range(m + 1, (top - 2 * k) // 2 + 1)]
    if len(set(combined)) != len(combined):
        return None
    inversions = sum(
        1
        for i, j in product(range(len(combined)), repeat=2)
        if i < j and combined[i] > combined[j]
    )
    sign = -1 if inversions % 2 else 1
    return sign, ChargedSequence.of(k, sorted(combined))


def psi_via_normalize(j, s):
    """Oracle: prepend the new value and sort, instead of position arithmetic."""
    prefix = list(s.prefix(len(s.head) + 1))
    result = normalize([2 * j] + prefix, s.charge - 1)
    if result is None:
        return FockVector.zero()
    sign, sorted_seq = result
    return sign * FockVector.basis(sorted_seq)


def test_psi_examples():
    assert apply_psi(0, basis(seq(1))) == basis(seq(0, (0,)))
    assert apply_psi(1, vacuum(0)).is_zero()
    assert apply_psi(2, basis(seq(1, (2,)))) == -1 * vacuum(0)


def test_psi_matches_normalize_oracle():
    for s in energy_keys(5):
        for j in range(-6, 7):
            assert apply_psi(j, basis(s)) == psi_via_normalize(j, s), (s, j)


def test_psi_star_examples():
    assert apply_psi_star(1, vacuum(0)) == basis(seq(1))
    assert apply_psi_star(0, vacuum(0)).is_zero()
    assert apply_psi_star(2, vacuum(0)) == -1 * basis(seq(1, (2,)))


def test_psi_pair_inverse_signs():
    for s in energy_keys(5, charges=(0,)):
        for j in range(-5, 6):
            created = apply_psi(j, basis(s))
            if created.is_zero():
                continue
            assert apply_psi_star(j, created) == basis(s)


def test_sign_coherence_projections():
    # delete-then-insert projects onto sequences containing the value;
    # insert-then-delete onto the complement; their sum is the identity
    for s in energy_keys(6):
        v = basis(s)
        for j in range(-6, 7):
            onto_present = apply_psi(j, apply_psi_star(j, v))
            onto_absent = apply_psi_star(j, apply_psi(j, v))
            assert onto_present + onto_absent == v
            assert onto_present == (v if 2 * j in s else FockVector.zero())
            assert apply_psi(j, apply_psi_star(j, onto_present)) == onto_present


# -- Clifford generators ------------------------------------------------------

def test_t_examples():
    assert apply_t(2, basis(seq(1))) == vacuum(0)
    assert apply_t(1, vacuum(0)) == basis(seq(1))
    assert apply_t(0, vacuum(0)) == basis(seq(-1, (0,)))


def test_t_charge_shift():
    for s in energy_keys(4, charges=(-1, 0, 1)):
        for i in range(-5, 6):
            out = apply_t(i, basis(s))
            expected = s.charge - 1 if i % 2 == 0 else s.charge + 1
            assert all(key.charge == expected for key in out.support)


def test_word_examples():
    v = vacuum(0)
    assert apply_word((), v) == v
    assert apply_word((1, 2), v) + apply_word((2, 1), v) == v
    assert apply_word((3, 3), v).is_zero()


def test_clifford_relations_sweep():
    keys = energy_keys(4, charges=(-1, 0, 1))
    for i in range(-4, 5):
        for s in keys:
            v = basis(s)
            assert apply_word((i, i), v).is_zero()
            assert apply_word((i, i + 1), v) + apply_word((i + 1, i), v) == v
            for j in range(i + 2, 5):
                assert (apply_word((i, j), v) + apply_word((j, i), v)).is_zero()


def test_clifford_suite_case_count():
    # 13 squares, 66 anticommutators and 12 adjacent pairs per basis vector
    for size in range(5):
        keys = [s for k in range(-2, 3) for s in energy_basis(size, k)]
        result = run_suite("clifford", size)
        assert result.passed and result.cases == 91 * len(keys)


def test_clifford_suite_catches_a_wrong_generator(monkeypatch):
    bad, original = 2, fock._t_key

    def flipped(i, key):
        pairs = original(i, key)
        return [(-c, s) for c, s in pairs] if i == bad else pairs

    monkeypatch.setattr(fock, "_t_key", flipped)
    result = run_suite("clifford", 3)
    assert not result.passed
    for key in result.failures:
        assert f"i={bad}" in key.split() or f"j={bad}" in key.split(), key


def test_clifford_suite_words_are_the_public_operator():
    # the suite's key-level words, dicts of stored coefficients, against
    # apply_word on a FockVector: each word t_i t_j and each anticommutator
    t_key, indices = fock._t_key, range(-6, 7)
    for k in range(-2, 3):
        for s in energy_basis(4, k):
            v = basis(s)
            first = {j: t_key(j, s) for j in indices}
            for i in indices:
                for j in indices:
                    word = _add_word({}, i, first[j])
                    assert word == apply_word((i, j), v)._terms, (i, j, s)
                    total = _add_word(dict(word), j, first[i])
                    want = apply_word((i, j), v) + apply_word((j, i), v)
                    assert total == want._terms, (i, j, s)


def test_every_fock_operator_but_the_shift_reads_the_generator_action(monkeypatch):
    # with fock._t_key the zero action, every Fock operator of ``act`` is zero
    # on a vector it moves, except the shift tau
    index = {"t": 0, "psi": 0, "psi*": 1, "sbar": 2, "sn": 2, "gq": 4, "gp": 4, "tau": 1}
    acts = {name: act for name, (space, act) in cli._ACT.items() if space == "fock"}
    assert acts.keys() == index.keys()
    v = basis(to_sequence((2, 1)))  # (-2, 2, 6, 8, ...)
    assert not any(act(index[name], v).is_zero() for name, act in acts.items())
    monkeypatch.setattr(fock, "_t_key", lambda i, key: [])
    moved = [name for name, act in acts.items() if not act(index[name], v).is_zero()]
    assert moved == ["tau"]


def _clifford_failures(monkeypatch, wrong_t2):
    original = fock._t_key

    def wrong(i, key):
        return wrong_t2(original(i, key), key) if i == 2 else original(i, key)

    monkeypatch.setattr(fock, "_t_key", wrong)
    try:
        return run_suite("clifford", 2).failures
    finally:
        monkeypatch.undo()


def test_clifford_case_keys_keep_their_text(monkeypatch):
    # Passing keys never reach the --json output, so the complete text of
    # failing ones is pinned here.
    flipped = _clifford_failures(monkeypatch, lambda pairs, key: [(-c, s) for c, s in pairs])
    assert len(flipped) == 40
    assert flipped[:3] == [
        "adjacent i=1 j=2 ChargedSequence(charge=-2, head=())",
        "adjacent i=2 j=3 ChargedSequence(charge=-2, head=())",
        "adjacent i=1 j=2 ChargedSequence(charge=-2, head=(-4,))",
    ]
    assert "adjacent i=1 j=2 ChargedSequence(charge=1, head=(2, 4))" in flipped
    assert flipped[-1] == "adjacent i=2 j=3 ChargedSequence(charge=2, head=(2,))"
    identity = _clifford_failures(monkeypatch, lambda pairs, key: [(1, key)])
    assert len(identity) == 172
    assert identity[:6] == [
        "anticommute i=-6 j=2 ChargedSequence(charge=-2, head=())",
        "anticommute i=-4 j=2 ChargedSequence(charge=-2, head=())",
        "anticommute i=-3 j=2 ChargedSequence(charge=-2, head=())",
        "anticommute i=-1 j=2 ChargedSequence(charge=-2, head=())",
        "adjacent i=1 j=2 ChargedSequence(charge=-2, head=())",
        "square i=2 ChargedSequence(charge=-2, head=())",
    ]
    assert identity[-1] == "anticommute i=2 j=6 ChargedSequence(charge=2, head=(2,))"


# -- translation and partial sums ---------------------------------------------

def test_tau():
    assert tau(vacuum(0)) == basis(seq(1))
    assert tau(tau(vacuum(0), 1), -1) == vacuum(0)
    assert tau(basis(to_sequence((2,)))) == basis(seq(1, (2, 4)))


def test_s_bar_examples():
    assert s_bar_n(1, basis(to_sequence(()))) == basis(to_sequence((1,)))
    lhs = s_bar_n(2, basis(to_sequence((1,))))
    assert lhs == basis(to_sequence(dual(union_columns((1,), 2))))
    assert s_bar_n(3, FockVector.zero()).is_zero()


def test_s_bar_column_twist_identity():
    for n in range(5):
        for lam in partitions_bounded(n, 10):
            lhs = s_bar_n(n, basis(to_sequence(dual(lam))))
            rhs = basis(to_sequence(dual(union_columns(lam, n))))
            assert lhs == rhs, (n, lam)


def s_bar_full_window(n, v):
    """s_bar_n summed over every i from value(1) // 2 - 1 to n."""

    def images(key):
        lo = key.value(1) // 2 - 1
        return [
            (fock._sign(i) * c, s)
            for i in range(lo, n + 1)
            for c, s in fock._t_key(2 * i + 1, key)
        ]

    return tau(v._apply(images), -1)


def test_s_bar_window_matches_the_full_window():
    for key in energy_keys(8):
        for n in range(7):
            assert s_bar_n(n, basis(key)) == s_bar_full_window(n, basis(key)), (key, n)


def test_s_bar_telescopes_to_one_creation():
    # t_{2i+1} = psi*_{i+1} + psi*_i, so the alternating sum over i <= n keeps
    # (-1)^n psi*_{n+1} alone: an independent closed form of s_bar_n
    cases = 0
    for k in range(-3, 4):
        for key in energy_basis(7, k):
            for n in range(8):
                v = basis(key)
                assert s_bar_n(n, v) == tau((-1) ** n * apply_psi_star(n + 1, v), -1), (key, n)
                cases += 1
    assert cases == 2520


def test_s_n_linearity_and_zero():
    assert s_n_op(2, FockVector.zero()).is_zero()
    v = basis(to_sequence((1,))) + 2 * basis(to_sequence((2,)))
    assert s_n_op(2, v) == s_n_op(2, basis(to_sequence((1,)))) + 2 * s_n_op(
        2, basis(to_sequence((2,)))
    )


# -- quadratic truncations ------------------------------------------------------

def test_g_q_examples():
    assert g_q_trunc(5, basis(to_sequence((2, 1)))) == basis(to_sequence((2,))) + basis(
        to_sequence((1, 1))
    )
    assert g_q_trunc(3, basis(to_sequence(()))).is_zero()
    assert g_q_trunc(4, basis(to_sequence((1,)))) == basis(to_sequence(()))


def test_g_p_examples():
    assert g_p_trunc(2, basis(to_sequence(()))) == basis(to_sequence((1,)))
    assert g_p_trunc(5, basis(to_sequence((1,)))) == basis(to_sequence((2,))) + basis(
        to_sequence((1, 1))
    )
    assert g_p_trunc(3, FockVector.zero()).is_zero()


def test_g_stability():
    for lam in partitions_up_to(8):
        base = stable_truncation(lam)
        v = basis(to_sequence(lam))
        want_q = FockVector([(to_sequence(x), 1) for x in res_set(lam)])
        want_p = FockVector([(to_sequence(x), 1) for x in ind_set(lam)])
        for bump in (0, 1, 3):
            assert g_q_trunc(base + bump, v) == want_q, (lam, bump)
            assert g_p_trunc(base + bump, v) == want_p, (lam, bump)


def reference_quadratic_trunc(N, d, v):
    """The quadratic sum word by word: one ``apply_word`` per word, then one linear combination."""
    if N < 1:
        raise ValueError("N must be positive")
    return FockVector.linear_combination(
        [(1, apply_word((2 * i, 2 * i + d), v)) for i in range(-N, 1)]
        + [(-1, apply_word((2 * i + d, 2 * i), v)) for i in range(1, N + 1)]
    )


def test_quadratic_trunc_matches_the_word_by_word_reference():
    for lam in partitions_up_to(6):
        for k in range(-2, 3):
            single = basis(to_sequence(lam).shift(k))
            # several terms, charges and Fraction coefficients, so images of
            # different keys meet and cancel
            neighbours = sorted(res_set(lam) | ind_set(lam))
            mixed = FockVector(
                [(to_sequence(lam).shift(k), Fraction(3, 4))]
                + [
                    (to_sequence(p).shift(k + j % 2), Fraction((-1) ** j * (j + 1), j + 2))
                    for j, p in enumerate(neighbours)
                ]
            )
            for N in range(1, stable_truncation(lam) + 3):
                for v in (single, mixed):
                    for d, op in ((-1, g_q_trunc), (1, g_p_trunc)):
                        assert op(N, v) == reference_quadratic_trunc(N, d, v), (lam, k, N, d, v)
    for op in (g_q_trunc, g_p_trunc):
        for N in (0, -1):
            with pytest.raises(ValueError, match="N must be positive"):
                op(N, basis(to_sequence((1,))))
            with pytest.raises(ValueError, match="N must be positive"):
                op(N, FockVector.zero())


def test_vector_json_round_shape():
    v = -1 * basis(to_sequence((2,))) + Fraction(1, 2) * vacuum(0)
    data = v.to_json()
    assert data == [
        {"sequence": {"charge": 0, "head": []}, "coefficient": "1/2"},
        {"sequence": {"charge": 0, "head": [0, 2]}, "coefficient": "-1"},
    ]


def test_fockvector_rejects_bad_keys():
    with pytest.raises(TypeError):
        FockVector([((1, 2), 1)])
    with pytest.raises(TypeError):  # equal and hash-equal to the vacuum, but not a sequence
        FockVector([((0, ()), 1)])
