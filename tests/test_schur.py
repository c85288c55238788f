from bosonfermion import partitions, schur
from bosonfermion.partitions import partitions_up_to
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


STRIPS = [
    (apply_p_row, partitions.add_horizontal_strips),
    (apply_p_col, partitions.add_vertical_strips),
    (apply_q_row, partitions.remove_horizontal_strips),
    (apply_q_col, partitions.remove_vertical_strips),
]


def test_strip_operators_match_their_enumerators_cold_and_warm():
    schur._strip_images.cache_clear()
    for _ in ("cold", "warm"):
        for p in partitions_up_to(7):
            for m in range(1, 4):
                for op, strips in STRIPS:
                    expected = SchurVector((q, 1) for q in strips(p, m))
                    assert op(m, b(p)) == expected, (op.__name__, p, m)
            for op, _strips in STRIPS:
                assert op(0, b(p)) == b(p)
    assert schur._strip_images.cache_info().hits > 0
    images = schur._strip_images(partitions.add_horizontal_strips, 2, (1,))
    assert images == ((1, (2, 1)), (1, (3,)))
    assert isinstance(images, tuple) and all(isinstance(pair, tuple) for pair in images)


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
