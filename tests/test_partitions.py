import copy
import pickle
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonfermion import fock
from bosonfermion.fock import FockVector
from bosonfermion.partitions import (
    ChargedSequence,
    add_box,
    add_horizontal_strips,
    add_vertical_strips,
    added_box,
    as_partition,
    clifford_t,
    dual,
    dual_sequence,
    from_sequence,
    ind_set,
    interlacing,
    lambda_t,
    part,
    partitions_of,
    partitions_up_to,
    remove_horizontal_strips,
    remove_vertical_strips,
    res_set,
    to_sequence,
    union_columns,
)
from bosonfermion.suites import energy_basis
from test_fock import normalize  # the sign reference the generator tests use


def partitions(max_size=12):
    return st.integers(1, max_size).flatmap(
        lambda n: st.lists(st.integers(1, n), min_size=0, max_size=n).map(
            lambda xs: tuple(sorted(xs, reverse=True))
        )
    )


# -- dual -------------------------------------------------------------------

def test_dual_examples():
    assert dual((2,)) == (1, 1)
    assert dual(()) == ()
    assert dual((3, 1)) == (2, 1, 1)


@settings(max_examples=200)
@given(partitions())
def test_dual_involution(p):
    assert dual(dual(p)) == p


@settings(max_examples=200)
@given(partitions())
def test_dual_matches_the_column_count_definition(p):
    expected = tuple(sum(1 for row in p if row >= j) for j in range(1, p[0] + 1)) if p else ()
    assert dual(p) == expected


def reference_dual(p):
    # the nested-generator form dual had before it was built row by row
    return tuple(i for i in range(len(p), 0, -1) for _ in range(p[i - 1] - part(p, i + 1)))


def test_dual_matches_the_nested_generator_form():
    for p in partitions_up_to(20):
        assert dual(p) == reference_dual(p), p


# -- res / ind --------------------------------------------------------------

def brute_res(p):
    # oracle: all q contained in p with one box fewer
    out = set()
    for i in range(len(p)):
        cand = p[:i] + (p[i] - 1,) + p[i + 1:]
        try:
            q = as_partition(cand)
        except ValueError:
            continue
        if sum(q) == sum(p) - 1:
            out.add(q)
    return out


def test_res_examples():
    assert res_set((2, 1)) == {(2,), (1, 1)}
    assert res_set(()) == set()
    assert res_set((2,)) == {(1,)}


def test_ind_examples():
    assert ind_set(()) == {(1,)}
    assert ind_set((1,)) == {(2,), (1, 1)}
    assert ind_set((2, 1)) == {(3, 1), (2, 2), (2, 1, 1)}


def brute_ind(p):
    # oracle: every add_box result that is a partition, one row at a time
    out = set()
    for row in range(1, len(p) + 2):
        try:
            out.add(add_box(p, (row, part(p, row) + 1)))
        except ValueError:
            continue
    return out


def test_res_matches_brute_force():
    for p in partitions_up_to(9):
        assert res_set(p) == brute_res(p), p


def test_ind_matches_brute_force():
    for p in partitions_up_to(9):
        assert ind_set(p) == brute_ind(p), p


def test_res_and_ind_keys_are_normalised():
    for p in partitions_up_to(9):
        for q in res_set(p) | ind_set(p):
            assert type(q) is tuple and all(row > 0 for row in q), (p, q)
            assert as_partition(q) == q, (p, q)


def test_res_ind_adjoint():
    for lam in partitions_up_to(12):
        for mu in ind_set(lam):
            assert lam in res_set(mu)
    for mu in partitions_up_to(12):
        if mu:
            for lam in res_set(mu):
                assert mu in ind_set(lam)


def test_added_box():
    assert added_box((1,), (2,)) == (1, 2)
    assert added_box((1,), (1, 1)) == (2, 1)
    with pytest.raises(ValueError):
        added_box((1,), (2, 1))


# -- union_columns ----------------------------------------------------------

def test_union_columns_examples():
    assert union_columns((1,), 2) == (2, 1)
    assert union_columns((), 1) == (1,)
    assert union_columns((3,), 1) == (4,)
    with pytest.raises(ValueError):
        union_columns((1, 1), 1)


def test_union_columns_dual_prepends_row():
    for n in range(1, 6):
        for p in partitions_up_to(10):
            if len(p) <= n:
                assert dual(union_columns(p, n)) == (n,) + dual(p)


def test_lambda_t_examples():
    assert [lambda_t((1,), 2, t) for t in range(3)] == [(2, 1), (2,), ()]
    assert [lambda_t((), 1, t) for t in range(2)] == [(1,), ()]


# -- sequences --------------------------------------------------------------

def test_to_sequence_examples():
    assert to_sequence((2,)) == ChargedSequence.of(0, (0, 2))
    assert to_sequence((2, 1)) == ChargedSequence.of(0, (-2, 2))
    assert to_sequence(()) == ChargedSequence.vacuum(0)


def test_from_sequence_examples():
    assert from_sequence(ChargedSequence.of(0, (0,))) == (1,)
    assert from_sequence(ChargedSequence.vacuum(0)) == ()
    assert from_sequence(ChargedSequence.of(0, (-2,))) == (1, 1)
    with pytest.raises(ValueError):
        from_sequence(ChargedSequence.vacuum(1))


def test_sequence_round_trip_and_energy():
    for p in partitions_up_to(12):
        s = to_sequence(p)
        assert from_sequence(s) == p
        assert s.energy == sum(p)
        assert s.charge == 0


def test_energy_examples():
    assert ChargedSequence.vacuum(0).energy == 0
    assert to_sequence((2,)).energy == 2
    assert ChargedSequence.of(0, (2, 4)).energy == 0 and ChargedSequence.of(-1, (-2,)).energy == 1


def psi_star(s, x):
    """The removal of the even value x from s by psi*_{x/2}, as (sign, sequence) pairs; [] where x is absent."""
    return [(int(c), seq) for seq, c in fock.apply_psi_star(x // 2, FockVector.basis(s)).items()]


def test_sequence_contains_and_positions():
    s = to_sequence((2, 1))  # (-2, 2, 6, 8, ...)
    assert -2 in s and 2 in s and 6 in s and 100 in s
    assert 0 not in s and 4 not in s and -4 not in s
    assert s.value(3) == 6


def test_insert_remove_inverse():
    # insertion is t_i at an even index i
    s = to_sequence((2, 1))
    [(sign, bigger)] = clifford_t(0, s)
    assert sign == -1 and 0 in bigger and bigger.charge == -1
    [(sign, back)] = psi_star(bigger, 0)  # 0 is the second entry of bigger
    assert sign == -1 and back == s


def test_remove_from_the_tail_materialises_the_gap():
    s = to_sequence((2, 1))  # (-2, 2, 6, 8, 10, 12, ...), tail from 6
    assert s.head == (-2, 2) and s.first_tail_value == 6
    [(sign, seq)] = psi_star(s, 6)  # the first tail value, the third entry
    assert sign == 1 and seq == ChargedSequence(1, (-2, 2))
    [(sign, seq)] = psi_star(s, 12)  # three steps into the tail, the sixth entry
    assert sign == -1 and seq == ChargedSequence(1, (-2, 2, 6, 8, 10))
    assert seq.prefix(6) == (-2, 2, 6, 8, 10, 14)


def test_insert_just_below_the_tail_trims_the_head():
    s = to_sequence((2, 1))
    [(sign, seq)] = clifford_t(4, s)  # fills the hole below the first tail value
    assert sign == 1 and seq == ChargedSequence(-1, (-2,))
    assert seq.prefix(4) == (-2, 2, 4, 6)
    [(sign, seq)] = clifford_t(0, ChargedSequence.vacuum(0))
    assert sign == 1 and seq == ChargedSequence.vacuum(-1)


def test_insert_present_value_and_remove_absent_value():
    s = to_sequence((2, 1))
    for x in (-2, 2, 6, 8, 100):  # head, first tail value, deep in the tail
        assert clifford_t(x, s) == []
    for x in (-4, 0, 4):
        assert psi_star(s, x) == []


def test_insert_remove_shift_results_are_canonical():
    # these results skip the constructor's check, so check each against both checked constructors
    for k in range(-2, 3):
        for s in energy_basis(6, k):
            results = [s.shift(steps) for steps in range(-2, 3)]
            for x in range(s.value(1) - 6, s.first_tail_value + 8, 2):
                results += [seq for _, seq in clifford_t(x, s)]  # insertion at even x
                results += [seq for _, seq in psi_star(s, x)]  # removal of x
            for r in results:
                assert type(r.head) is tuple
                assert r == ChargedSequence(r.charge, r.head), (s, r)
                assert r == ChargedSequence.of(r.charge, r.prefix(len(r.head) + 3)), (s, r)


CONSTRUCTOR_ERRORS = [
    (0, (-2, 1), "odd entry 1 in (-2, 1)"),
    (0, (0, -2), "head not strictly increasing: (0, -2)"),
    (0, (-2, 6), "head (-2, 6) overlaps the charge-0 tail"),
    (1, (0, 6), "head (0, 6) is not in canonical (minimal) form"),
]


@pytest.mark.parametrize("charge, head, message", CONSTRUCTOR_ERRORS)
def test_constructor_errors(charge, head, message):
    with pytest.raises(ValueError) as err:
        ChargedSequence(charge, head)
    assert str(err.value) == message


def test_of_errors():
    # of trims the head first, so only the first three errors can reach it
    for charge, head, message in CONSTRUCTOR_ERRORS[:3]:
        with pytest.raises(ValueError) as err:
            ChargedSequence.of(charge, head)
        assert str(err.value) == message
    assert ChargedSequence.of(1, (0, 6)) == ChargedSequence(1, (0,))


def test_no_public_constructor_skips_the_check():
    s = to_sequence((2, 1))
    assert not hasattr(ChargedSequence, "_make") and not hasattr(ChargedSequence, "_replace")
    assert not hasattr(s, "__dict__")
    for copied in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(copied) is ChargedSequence and copied == s
    with pytest.raises(AttributeError):
        s.charge = 1


def test_sequences_hash_compare_and_print_as_charge_head_pairs():
    # a sequence is the tuple of its two masks: equal values make equal,
    # equally hashed keys, and FockVector orders its terms by (charge, head)
    sample = [s for k in range(-2, 3) for s in energy_basis(5, k)]
    pairs = [(s.charge, s.head) for s in sample]
    assert len(set(sample)) == len(set(pairs)) == len(sample)
    for s, pair in zip(sample, pairs):
        rebuilt = ChargedSequence(*pair)
        assert rebuilt == s and hash(rebuilt) == hash(s) and s != pair
        assert repr(s) == str(s) == f"ChargedSequence(charge={pair[0]!r}, head={pair[1]!r})"
    order = FockVector._sort_key
    for s, pair in zip(sample[::7], pairs[::7]):
        for t, other in zip(sample, pairs):
            assert (order(s) < order(t)) == (pair < other) and (s == t) == (pair == other)
    assert sorted(sample, key=order) == [ChargedSequence(*pair) for pair in sorted(pairs)]
    shuffled = FockVector([(s, 1) for s in sample[::-1]])
    assert [s for s, _ in shuffled.sorted_items()] == sorted(sample, key=order)
    # a plain pair is no key: it finds no term
    vac = FockVector.basis(ChargedSequence.vacuum(0))
    assert vac.coefficient((0, ())) == 0 and (0, ()) not in vac.support
    assert vac.coefficient(ChargedSequence(0, ())) == 1


def test_odd_values():
    s = to_sequence((2, 1))
    for x in (-3, 1, 3, 7, 101):
        assert x not in s


# -- partitions_of ---------------------------------------------------------

def reference_partitions(n, cap=None):
    # plain recursion, largest first part first
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, cap), 0, -1)
        for rest in reference_partitions(n - first, first)
    ]


def test_partitions_of_against_reference():
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n in range(13):
        first = list(partitions_of(n))
        assert first == reference_partitions(n)
        assert len(first) == counts[n]
        assert all(isinstance(p, tuple) for p in first)
        assert list(partitions_of(n)) == first
    assert list(partitions_of(-1)) == []


def test_partitions_bounded_against_the_filter_model():
    from bosonfermion.partitions import partitions_bounded

    for rows in range(-1, 7):
        for max_size in range(15):
            model = [p for n in range(max_size + 1) for p in reference_partitions(n) if len(p) <= rows]
            assert list(partitions_bounded(rows, max_size)) == model, (rows, max_size)


def test_enumeration_keeps_no_size_level():
    import tracemalloc

    from bosonfermion.partitions import partitions_bounded

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert sum(1 for _ in partitions_up_to(30)) == 28629
        assert sum(1 for _ in partitions_bounded(4, 60)) == 31841
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20, f"{kept} bytes stay allocated after the sweeps"


# -- normalize --------------------------------------------------------------

def test_normalize_examples():
    assert normalize([2, 4], 0) == (1, ChargedSequence.vacuum(0))
    assert normalize([4, 2], 0) == (-1, ChargedSequence.vacuum(0))
    assert normalize([2, 2], 0) is None
    # collision with the implied tail is also a repeat
    assert normalize([4], 0) is None


@settings(max_examples=100)
@given(partitions(10), st.randoms(use_true_random=False))
def test_normalize_parity_matches_permutation(p, rnd):
    s = to_sequence(p)
    prefix = list(s.prefix(len(s.head) + 2))
    order = list(range(len(prefix)))
    rnd.shuffle(order)
    shuffled = [prefix[i] for i in order]
    # parity of the shuffle via cycle decomposition (independent of inversion count)
    seen = [False] * len(order)
    transpositions = 0
    for start in range(len(order)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        transpositions += length - 1
    sign, seq = normalize(shuffled, 0)
    assert seq == s
    assert sign == (-1) ** transpositions


# -- strips -----------------------------------------------------------------

def boxes(p):
    return {(r + 1, c + 1) for r, row in enumerate(p) for c in range(row)}


def brute_add_strips(p, m, horizontal):
    # oracle: grow one box at a time, then filter by the strip condition
    layer = {p}
    for _ in range(m):
        layer = {q for x in layer for q in ind_set(x)}
    out = set()
    for q in layer:
        skew = boxes(q) - boxes(p)
        coords = [c for (_, c) in skew] if horizontal else [r for (r, _) in skew]
        if len(set(coords)) == len(skew):
            out.add(q)
    return out


def test_strip_enumeration_against_brute_force():
    for p in partitions_up_to(6):
        for m in range(1, 4):
            assert set(add_horizontal_strips(p, m)) == brute_add_strips(p, m, True), (p, m)
            assert set(add_vertical_strips(p, m)) == brute_add_strips(p, m, False), (p, m)


def horizontal_strip(outer, inner):
    # model: outer/inner is a horizontal strip when the rows interlace,
    # outer_1 >= inner_1 >= outer_2 >= inner_2 >= ...
    rows = range(1, len(outer) + 2)
    return all(part(outer, i) >= part(inner, i) >= part(outer, i + 1) for i in rows)


def vertical_strip(outer, inner):
    return horizontal_strip(dual(outer), dual(inner))


def test_strip_generators_match_an_interlacing_model_in_order():
    # pins the public output exactly: each strip once, as a normalised
    # tuple, ascending for additions and descending for removals (by the
    # conjugate for vertical strips)
    for p in partitions_up_to(6):
        n = sum(p)
        for m in range(5):
            grown = [q for q in partitions_up_to(n + m) if sum(q) == n + m]
            shrunk = [q for q in partitions_up_to(n) if sum(q) == n - m]
            cases = [
                (add_horizontal_strips, [q for q in grown if horizontal_strip(q, p)], None, False),
                (add_vertical_strips, [q for q in grown if vertical_strip(q, p)], dual, False),
                (remove_horizontal_strips, [q for q in shrunk if horizontal_strip(p, q)], None, True),
                (remove_vertical_strips, [q for q in shrunk if vertical_strip(p, q)], dual, True),
            ]
            for fn, model, key, reverse in cases:
                out = list(fn(p, m))
                where = (fn.__name__, p, m)
                assert out == sorted(model, key=key, reverse=reverse), where
                assert all(type(q) is tuple and as_partition(q) == q for q in out), where


def test_strip_removal_is_adjoint_to_addition():
    for p in partitions_up_to(6):
        for m in range(1, 4):
            removed = set(remove_horizontal_strips(p, m))
            expect = {q for q in partitions_up_to(sum(p)) if p in set(add_horizontal_strips(q, m))}
            assert removed == expect, (p, m)
            removed = set(remove_vertical_strips(p, m))
            expect = {q for q in partitions_up_to(sum(p)) if p in set(add_vertical_strips(q, m))}
            assert removed == expect, (p, m)



def reference_interlacing(p, above=False, total=None):
    # the recursive form interlacing had before its walk became iterative
    if above:
        lows, highs = p + (0,), (total,) + p
    else:
        lows, highs = (p + (0,))[1:], p
    rows = len(lows)
    if total is not None and not sum(lows) <= total <= sum(highs):
        return []
    lo_tail = [sum(lows[i + 1:]) for i in range(rows)]
    hi_tail = [sum(highs[i + 1:]) for i in range(rows)]
    out = []

    def rec(i, left, prefix):
        if i == rows:
            out.append(prefix)
            return
        lo, hi = lows[i], highs[i]
        if total is not None:
            lo, hi = max(lo, left - hi_tail[i]), min(hi, left - lo_tail[i])
        for val in range(lo, hi + 1):
            rec(i + 1, left - val, prefix + (val,) if val else prefix)

    rec(0, total or 0, ())
    return out


def test_interlacing_matches_the_recursive_form_in_order():
    for p in partitions_up_to(10):
        n = sum(p)
        assert interlacing(p) == reference_interlacing(p), p
        for m in range(5):
            for above, total in ((True, n + m), (False, n - m)):
                out = interlacing(p, above, total)
                assert out == reference_interlacing(p, above, total), (p, above, total)
                assert all(type(q) is tuple and as_partition(q) == q for q in out)


def test_long_rows_and_columns_need_no_recursion():
    long_row, long_column = (2000,), (1,) * 2000
    assert add_vertical_strips(long_row, 1) == [(2001,), (2000, 1)]
    assert remove_vertical_strips(long_row, 1) == [(1999,)]
    assert add_horizontal_strips(long_column, 1) == [(1,) * 2001, (2,) + (1,) * 1999]
    assert remove_horizontal_strips(long_column, 1) == [(1,) * 1999]
    assert len(interlacing(long_column)) == 2

# -- charged sequences against an explicit-prefix model ---------------------

# Every query value lies in [-SMALL, SMALL]; a prefix of len(head) + PAD
# entries ends at or above 2 * PAD - 6 > SMALL + 2 for charges >= -3, so it
# holds every entry of the sequence up to any query value and the next one.
SMALL, PAD = 16, 20
charges = st.integers(-3, 3)
queries = st.integers(-SMALL, SMALL)


def sequences():
    return st.tuples(partitions(6), charges).map(lambda pk: to_sequence(pk[0]).shift(pk[1]))


def model(s):
    return list(s.prefix(len(s.head) + PAD))


def inversions(values):
    # bubble sort, counting adjacent swaps
    vals, swaps = list(values), 0
    for end in range(len(vals) - 1, 0, -1):
        for i in range(end):
            if vals[i] > vals[i + 1]:
                vals[i], vals[i + 1] = vals[i + 1], vals[i]
                swaps += 1
    return swaps


@settings(max_examples=200)
@given(sequences(), queries)
def test_membership_against_model(s, x):
    assert (x in s) == (x in model(s))


@settings(max_examples=200)
@given(sequences(), queries)
def test_insert_against_model(s, x):
    # insertion is t_i at an even index i, signed by the entries below i
    x -= x % 2
    entries = model(s)
    out = clifford_t(x, s)
    if x in entries:
        assert out == []
        return
    [(sign, seq)] = out
    assert sign == (-1) ** sum(1 for v in entries if v < x)
    assert seq.charge == s.charge - 1
    expected = sorted(entries + [x])
    assert list(seq.prefix(len(expected))) == expected


@settings(max_examples=200)
@given(sequences(), queries)
def test_remove_against_model(s, x):
    # removal is psi* of an even value, signed by the entries below it
    x -= x % 2
    entries = model(s)
    out = psi_star(s, x)
    if x not in entries:
        assert out == []
        return
    [(sign, seq)] = out
    assert sign == (-1) ** entries.index(x)
    assert seq.charge == s.charge + 1
    expected = [v for v in entries if v != x]
    assert list(seq.prefix(len(expected))) == expected


@settings(max_examples=200)
@given(st.lists(st.integers(-5, 5).map(lambda v: 2 * v), max_size=5), st.integers(-2, 2))
def test_normalize_against_model(values, k):
    m = len(values)
    explicit = values + [2 * i + 2 * k for i in range(m + 1, m + PAD + 1)]
    out = normalize(values, k)
    if len(set(explicit)) < len(explicit):
        assert out is None
        return
    sign, seq = out
    assert sign == (-1) ** inversions(explicit)
    assert seq.charge == k
    assert list(seq.prefix(len(explicit))) == sorted(explicit)


# -- the masks against the tuple-head reference -----------------------------

# A charged sequence as it was stored before its masks: the charge and the
# minimal head, changed by one bisection of the head, a slice and a trim.
# Each function returns (count, (charge, head)) or None, as the methods do.

def ref_first_tail(charge, m):
    return 2 * (m + 1) + 2 * charge


def ref_trim(charge, head):
    m = len(head)
    while m and head[m - 1] == 2 * m + 2 * charge:
        m -= 1
    return charge, head[:m]


def ref_insert(charge, head, x):
    m = len(head)
    n = bisect_left(head, x)
    if x >= ref_first_tail(charge, m) or (n < m and head[n] == x):
        return None
    return n, ref_trim(charge - 1, head[:n] + (x,) + head[n:])


def ref_remove(charge, head, x):
    m = len(head)
    k = bisect_left(head, x)
    if k < m and head[k] == x:
        return k + 1, ref_trim(charge + 1, head[:k] + head[k + 1:])
    tail = ref_first_tail(charge, m)
    if x < tail:
        return None
    return (x - 2 * charge) // 2, ref_trim(charge + 1, head + tuple(range(tail, x, 2)))


def ref_shift(charge, head, steps):
    return ref_trim(charge + steps, tuple(h + 2 * steps for h in head))


def ref_t(i, charge, head):
    """t_i as (sign, (charge, head)) pairs: insert i, or remove i + 1 and then i - 1."""
    if i % 2 == 0:
        found = [ref_insert(charge, head, i)]
    else:
        found = [(n - 1, key) for n, key in filter(None, (
            ref_remove(charge, head, i + 1), ref_remove(charge, head, i - 1)))]
    return [(-1 if n % 2 else 1, key) for n, key in filter(None, found)]


def as_pair(s):
    return s.charge, s.head


def check_against_reference(s, i):
    key = as_pair(s)
    t = [(c, as_pair(image)) for c, image in fock._t_key(i, s)]
    assert t == ref_t(i, *key), (key, i)
    if i % 2 == 0:
        # psi* of i against the removal model, signed (-1)^(position - 1)
        found = ref_remove(*key, i)
        want = [(1 if found[0] % 2 else -1, found[1])] if found else []
        assert [(c, as_pair(image)) for c, image in psi_star(s, i)] == want, (key, i)


def test_masks_match_the_tuple_reference_on_the_sizing_sweep():
    # energy <= 8, charge -4..4, i in -14..14: every (key, i) pair of the sizing
    pairs = 0
    for p in partitions_up_to(8):
        base = ref_trim(0, tuple(2 * j - 2 * c for j, c in enumerate(dual(p), 1)))
        assert as_pair(to_sequence(p)) == base and dual_sequence(dual(p)) == to_sequence(p), p
        for k in range(-4, 5):
            s = to_sequence(p).shift(k)
            assert as_pair(s) == ref_shift(*base, k), (p, k)
            for steps in range(-3, 4):
                assert as_pair(s.shift(steps)) == ref_shift(*base, k + steps), (p, k, steps)
            for i in range(-14, 15):
                check_against_reference(s, i)
                pairs += 1
    assert pairs == 17487


def test_masks_at_the_zero_two_boundary():
    # the values -2, 0, 2, 4 sit on both sides of the boundary between P
    # (values up to 0) and H (values from 2); t_{-1}, t_1 and t_3 each move one of them
    for k in range(-2, 3):
        for s in energy_basis(6, k):
            for x in (-2, 0, 2, 4):
                assert (x in s) == (x in s.prefix(len(s.head) + 4)), (s, x)
            for i in range(-3, 6):
                check_against_reference(s, i)


def test_masks_at_the_cli_caps():
    # |index| <= 1000 on |charge| <= 1000: masks of a thousand bits
    for k in (1000, -1000):
        s = ChargedSequence.vacuum(k)
        assert as_pair(s) == (k, ()) and s.first_tail_value == 2 + 2 * k
        for i in (-1001, -1000, -999, -1, 0, 1, 999, 1000, 1001):
            check_against_reference(s, i)
        for steps in (-1000, -1, 1, 1000):
            assert as_pair(s.shift(steps)) == ref_shift(k, (), steps)
        for x in (-2000, -1998, 1998, 2000, 2002):
            for _, image in psi_star(s, x):
                for i in (x - 1, x, x + 1):
                    check_against_reference(image, i)
