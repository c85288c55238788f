"""Invariants of the formal-sum layer on every construction path."""

import random
from fractions import Fraction

import pytest

from bosonfermion import fock, schur
from bosonfermion.fock import FockVector
from bosonfermion.formal import FormalSum
from bosonfermion.partitions import ChargedSequence, partitions_up_to, to_sequence
from bosonfermion.quiver import ArrowElement, FElement
from bosonfermion.schur import SchurVector


def coefficients(v):
    return [c for _, c in v.items()]


def test_int_coefficients_are_stored_as_fractions():
    v = FormalSum([("a", 2), ("b", -1), ("a", 1)])
    assert dict(v.items()) == {"a": 3, "b": -1}
    assert all(type(c) is Fraction for c in coefficients(v))
    assert all(type(c) is Fraction for c in coefficients(FormalSum([("x", 7)])))
    assert type(FormalSum.basis("k").coefficient("k")) is Fraction


def test_apply_stores_fractions():
    v = FormalSum([("a", 1), ("b", Fraction(1, 2))])
    out = v._apply(lambda k: [(1, k + "1"), (-2, k + "2"), (3, "c")])
    assert all(type(c) is Fraction for c in coefficients(out))
    assert dict(out.items()) == {
        "a1": 1, "a2": -2, "b1": Fraction(1, 2), "b2": -1, "c": Fraction(9, 2)
    }


def test_cancelled_terms_leave_no_key():
    v = FormalSum([("a", 1), ("b", 2), ("a", -1)])
    assert v.support == {"b"}
    assert FormalSum([("a", 0)]).is_zero()
    # a cancelled key can come back
    assert dict(FormalSum([("a", 1), ("a", -1), ("a", 5)]).items()) == {"a": 5}
    w = FormalSum([("a", 1), ("b", 1)])._apply(lambda k: [(1, "x"), (1 if k == "a" else -1, "y")])
    assert dict(w.items()) == {"x": 2}
    assert FormalSum([("a", 1)])._apply(lambda k: [(1, "z"), (-1, "z")]).is_zero()
    assert FormalSum([("a", 1), ("b", -1)])._apply(lambda k: [(1, "same")]).is_zero()
    assert (FormalSum([("a", 1)]) + FormalSum([("a", -1)])).is_zero()


def test_linear_combination():
    a, b = FormalSum([("x", 1), ("y", 2)]), FormalSum([("y", 1)])
    out = FormalSum.linear_combination([(1, a), (-2, b), (Fraction(1, 3), b)])
    assert dict(out.items()) == {"x": 1, "y": Fraction(1, 3)}
    assert all(type(c) is Fraction for c in coefficients(out))
    assert FormalSum.linear_combination([(1, a), (-1, a)]).is_zero()
    with pytest.raises(TypeError):
        FockVector.linear_combination([(1, SchurVector.basis((1,)))])


def test_fock_keys_checked_on_every_path():
    with pytest.raises(TypeError):
        FockVector([((1, 2), 1)])
    with pytest.raises(TypeError):
        FockVector.basis(0)
    assert FockVector.basis(ChargedSequence.vacuum(0)).coefficient(ChargedSequence.vacuum(0)) == 1


def test_schur_keys_normalised_and_checked_on_every_path():
    assert dict(SchurVector([((2, 1, 0), 1), ([2, 1], 1)]).items()) == {(2, 1): 2}
    with pytest.raises(ValueError):
        SchurVector([((1, 2), 1)])
    out = SchurVector.basis([2, 0, 0])
    assert dict(out.items()) == {(2,): 1}
    assert all(type(k) is tuple for k in out.support)
    with pytest.raises(ValueError):
        SchurVector.basis((0, 1))


def private_and_checked(op, *args):
    """``op(*args)``, and the images of its one ``_apply`` passed through the checked constructor."""
    calls = []
    unchecked = FormalSum._apply

    def record(self, action):
        calls.append((self, action))
        return unchecked(self, action)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FormalSum, "_apply", record)
        out = op(*args)
    assert len(calls) == 1, op.__name__
    vector, action = calls[0]
    images = ((new, coeff * c) for key, coeff in vector.items() for c, new in action(key) or ())
    return out, type(vector)(images)


def test_operators_build_only_keys_that_pass_the_check():
    schur_ops = [(schur.apply_q,), (schur.apply_p,)] + [
        (op, m)
        for op in (schur.apply_p_row, schur.apply_p_col, schur.apply_q_row, schur.apply_q_col)
        for m in range(1, 4)
    ]
    for p in partitions_up_to(8):
        v = SchurVector.basis(p)
        for op, *m in schur_ops:
            out, checked = private_and_checked(op, *m, v)
            assert out == checked, (op.__name__, m, p)
            assert all(type(k) is tuple for k in out.support)
        w = FockVector.basis(to_sequence(p))
        for i in range(-8, 9):
            out, checked = private_and_checked(fock.apply_t, i, w)
            assert out == checked, (i, p)


def test_eq_and_hash_agree_across_paths():
    built = SchurVector([((2,), 3), ((1, 1), -1)])
    applied = SchurVector.basis((1,))._apply(lambda p: [(3, (2,)), (-1, (1, 1))])
    summed = 3 * SchurVector.basis((2,)) - SchurVector.basis((1, 1))
    combined = SchurVector.linear_combination(
        [(3, SchurVector.basis((2,))), (-1, SchurVector.basis((1, 1)))]
    )
    for other in (applied, summed, combined):
        assert built == other and hash(built) == hash(other)
    assert len({built, applied, summed, combined}) == 1
    f = FElement.basis(ArrowElement((1,), (1,)))
    assert f * f == f and hash(f * f) == hash(f)


def test_text_and_json_formatting():
    v = SchurVector([((2,), 1), ((1, 1), Fraction(-1, 2)), ((3,), 2)])
    assert v.to_text(str, reverse=True) == "2*(3,) + (2,) - 1/2*(1, 1)"
    assert (-v).to_text(str) == "1/2*(1, 1) - (2,) - 2*(3,)"
    assert SchurVector.zero().to_text(str) == "0"
    assert v.to_json() == [
        {"partition": [1, 1], "coefficient": "-1/2"},
        {"partition": [2], "coefficient": "1"},
        {"partition": [3], "coefficient": "2"},
    ]


def assert_stored_exactly(v):
    # the storage rule: nonzero, an int when integral, else a Fraction
    for c in v._terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def test_integral_coefficients_are_stored_as_int():
    v = FormalSum([("a", Fraction(4, 2)), ("b", Fraction(1, 2)), ("c", Fraction(1, 3)), ("b", 1)])
    assert v._terms == {"a": 2, "b": Fraction(3, 2), "c": Fraction(1, 3)}
    assert type(v._terms["a"]) is int and type(v._terms["b"]) is Fraction
    halves = FormalSum([("a", Fraction(1, 2)), ("a", Fraction(1, 2)), ("b", 1), ("b", Fraction(-1, 2))])
    assert type(halves._terms["a"]) is int and halves._terms["a"] == 1
    assert type(halves._terms["b"]) is Fraction
    summed = FormalSum([("x", Fraction(1, 3))]) + FormalSum([("x", Fraction(2, 3))])
    assert type(summed._terms["x"]) is int
    assert type((2 * FormalSum([("x", Fraction(1, 2))]))._terms["x"]) is int
    assert type(FormalSum([("x", True)])._terms["x"]) is int
    cancelled = FormalSum([("a", Fraction(1, 2)), ("b", 1), ("a", Fraction(-1, 2))])
    assert cancelled._terms == {"b": 1} and "a" not in cancelled._terms
    assert (halves - halves)._terms == {}
    for w in (v, halves, summed, cancelled):
        assert_stored_exactly(w)
        assert all(type(c) is Fraction for c in coefficients(w))
        assert all(type(c) is Fraction for _, c in w.sorted_items())


# -- the formal layer against a reference that keeps only Fractions ----------

KEYS = "abcdef"
SCALARS = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2), Fraction(2, 3)]


def reference(pairs):
    """A vector stored the way the formal layer stored every vector before
    integral coefficients were kept as int: a Fraction for every term."""
    data = {}
    for key, c in pairs:
        data[key] = data.get(key, Fraction(0)) + Fraction(c)
    return FormalSum._wrap({k: c for k, c in data.items() if c})


def random_pairs(rng):
    return [(rng.choice(KEYS), rng.choice(SCALARS)) for _ in range(rng.randrange(6))]


def random_action(rng):
    table = {k: [(rng.choice(SCALARS), rng.choice(KEYS)) for _ in range(rng.randrange(3))] for k in KEYS}
    return table.__getitem__


def reference_apply(ref, action):
    return reference((k, c * Fraction(s)) for key, c in ref._terms.items() for s, k in action(key))


def assert_matches(out, ref):
    assert all(type(c) is Fraction for c in ref._terms.values())
    assert_stored_exactly(out)
    assert out == ref and ref == out and hash(out) == hash(ref)
    assert out.to_text(str) == ref.to_text(str)
    assert out.to_text(str, reverse=True) == ref.to_text(str, reverse=True)
    assert out.json_terms("key", str) == ref.json_terms("key", str)
    assert repr(out) == repr(ref)
    assert dict(out.items()) == dict(ref.items()) and out.sorted_items() == ref.sorted_items()
    for key in KEYS:
        c = out.coefficient(key)
        assert type(c) is Fraction and c == ref.coefficient(key)


def test_every_construction_path_matches_the_fraction_reference():
    rng = random.Random(2017)
    for _ in range(400):
        pairs, other = random_pairs(rng), random_pairs(rng)
        u, ref_u = FormalSum(pairs), reference(pairs)
        w, ref_w = FormalSum(other), reference(other)
        assert_matches(u, ref_u)
        action = random_action(rng)
        assert_matches(u._apply(action), reference_apply(ref_u, action))
        assert_matches(u + w, reference(list(ref_u._terms.items()) + list(ref_w._terms.items())))
        assert_matches(u - w, reference(
            list(ref_u._terms.items()) + [(k, -c) for k, c in ref_w._terms.items()]
        ))
        assert_matches(-u, reference((k, -c) for k, c in ref_u._terms.items()))
        s = rng.choice(SCALARS)
        assert_matches(s * u, reference((k, Fraction(s) * c) for k, c in ref_u._terms.items()))
        picks = [(rng.choice(SCALARS), rng.choice(((u, ref_u), (w, ref_w)))) for _ in range(3)]
        assert_matches(
            FormalSum.linear_combination((s, v) for s, (v, _) in picks),
            reference((k, Fraction(s) * c) for s, (_, ref) in picks for k, c in ref._terms.items()),
        )
