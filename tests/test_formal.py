"""Invariants of the formal-sum layer on every construction path."""

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
    assert all(type(c) is Fraction for c in coefficients(FormalSum({"x": 7})))
    assert type(FormalSum.basis("k").coefficient("k")) is Fraction


def test_apply_stores_fractions():
    v = FormalSum([("a", 1), ("b", Fraction(1, 2))])
    out = v.apply(lambda k: [(1, k + "1"), (-2, k + "2"), (3, "c")])
    assert all(type(c) is Fraction for c in coefficients(out))
    assert dict(out.items()) == {
        "a1": 1, "a2": -2, "b1": Fraction(1, 2), "b2": -1, "c": Fraction(9, 2)
    }
    assert all(type(c) is Fraction for c in coefficients(v.map_keys(str.upper)))


def test_cancelled_terms_leave_no_key():
    v = FormalSum([("a", 1), ("b", 2), ("a", -1)])
    assert v.support == {"b"}
    assert FormalSum([("a", 0)]).is_zero()
    # a cancelled key can come back
    assert dict(FormalSum([("a", 1), ("a", -1), ("a", 5)]).items()) == {"a": 5}
    w = FormalSum([("a", 1), ("b", 1)]).apply(lambda k: [(1, "x"), (1 if k == "a" else -1, "y")])
    assert dict(w.items()) == {"x": 2}
    assert FormalSum([("a", 1)]).apply(lambda k: [(1, "z"), (-1, "z")]).is_zero()
    assert FormalSum([("a", 1), ("b", -1)]).map_keys(lambda k: "same").is_zero()
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
    v = FockVector.basis(ChargedSequence.vacuum(0))
    with pytest.raises(TypeError):
        FockVector([((1, 2), 1)])
    with pytest.raises(TypeError):
        v.apply(lambda key: [(1, (2, 1))])
    with pytest.raises(TypeError):
        v.map_keys(lambda key: key.charge)
    assert v.apply(lambda key: [(1, key.shift(1))]) == FockVector.basis(ChargedSequence.vacuum(1))


def test_schur_keys_normalised_and_checked_on_every_path():
    assert dict(SchurVector([((2, 1, 0), 1), ([2, 1], 1)]).items()) == {(2, 1): 2}
    with pytest.raises(ValueError):
        SchurVector([((1, 2), 1)])
    v = SchurVector.basis((2,))
    out = v.apply(lambda p: [(1, list(p) + [0, 0])])
    assert dict(out.items()) == {(2,): 1}
    assert all(type(k) is tuple for k in out.support)
    with pytest.raises(ValueError):
        v.apply(lambda p: [(1, (1, 2))])
    with pytest.raises(ValueError):
        v.map_keys(lambda p: (0, 1))


def private_and_checked(op, *args):
    """``op(*args)``, and the same call with its one ``_apply`` run through ``apply``."""
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
    return out, vector.apply(action)


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
    applied = SchurVector.basis((1,)).apply(lambda p: [(3, (2,)), (-1, (1, 1))])
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
