from bosonfermion import schur
from bosonfermion.schur import (
    SchurVector,
    apply_p,
    apply_p_col,
    apply_p_row,
    apply_q,
    apply_q_col,
    apply_q_row,
    schur_basis,
)
from bosonfermion.suites import run_suite

b = schur_basis


def test_single_box_examples():
    assert apply_q(b((2, 1))) == b((2,)) + b((1, 1))
    assert apply_q(b(())).is_zero()
    assert apply_q(b((1,))) == b(())
    assert apply_p(b(())) == b((1,))
    assert apply_p(b((1,))) == b((2,)) + b((1, 1))
    assert apply_p(SchurVector.zero()).is_zero()


def test_strip_examples():
    assert apply_p_row(2, b((1,))) == b((3,)) + b((2, 1))
    assert apply_p_row(1, b((1,))) == apply_p(b((1,)))
    assert apply_p_row(2, b(())) == b((2,))
    assert apply_p_col(2, b(())) == b((1, 1))
    assert apply_q_row(2, b((2, 1))) == b((1,))
    assert apply_q_col(1, b((2,))) == apply_q(b((2,)))


def test_heisenberg_suite_catches_a_dropped_strip_term(monkeypatch):
    original = schur.apply_q_row

    def dropped(n, v):
        out = original(n, v)
        if n != 3 or len(out) < 2:
            return out
        return SchurVector(out.sorted_items()[1:])

    monkeypatch.setattr(schur, "apply_q_row", dropped)
    result = run_suite("heisenberg", 6)
    assert not result.passed
    assert any(key.startswith("row commute") for key in result.failures)


def test_schur_json():
    v = apply_q(b((2, 1)))
    assert v.to_json() == [
        {"partition": [1, 1], "coefficient": "1"},
        {"partition": [2], "coefficient": "1"},
    ]
