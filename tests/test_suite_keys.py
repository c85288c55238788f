"""The complete text of failing case keys, for every relation family.

A passing run prints no case key, so each test here injects one fault and
pins the text of the keys it makes fail, as ``verify --json`` lists them
(sorted).  ``tests/test_fock.py::test_clifford_case_keys_keep_their_text``
does the same for ``clifford``.
"""

import pytest

from bosonfermion import correspondence as co
from bosonfermion import fock, quiver, schur, symgroup
from bosonfermion.schur import SchurVector
from bosonfermion.suites import run_suite


def failures(monkeypatch, module, name, wrap, suite, size):
    """Sorted failing keys of ``suite`` at ``size`` with ``module.name`` wrapped."""
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    return run_suite(suite, size).to_json()["failures"]


def first_of_each_family(keys, separator):
    first = {}
    for key in keys:
        first.setdefault(key.split(separator)[0], key)
    return first


def drop_first_term(strip_length):
    """Wrap a strip operator so its image of that length loses its first term."""

    def wrap(original):
        def dropped(n, v):
            out = original(n, v)
            if n != strip_length or len(out) < 2:
                return out
            return SchurVector(out.sorted_items()[1:])

        return dropped

    return wrap


@pytest.mark.parametrize(
    "op, expected",
    [
        ("apply_p_row", {
            "mixed exchange": "mixed exchange lam=(1, 1) m=1 n=2",
            "row commute": "row commute lam=() m=1 n=2",
            "row exchange": "row exchange lam=(1, 1) m=2 n=1",
        }),
        ("apply_p_col", {
            "col commute": "col commute lam=() m=1 n=2",
            "col exchange": "col exchange lam=(1, 1) m=1 n=2",
            "mixed exchange": "mixed exchange lam=(1, 1) m=2 n=1",
        }),
    ],
)
def test_heisenberg_strip_keys(monkeypatch, op, expected):
    keys = failures(monkeypatch, schur, op, drop_first_term(1), "heisenberg", 3)
    assert len(keys) == 84
    assert first_of_each_family(keys, " lam=") == expected


def test_heisenberg_single_box_keys(monkeypatch):
    def doubled(original):
        return lambda v: original(v) + original(v) if v.coefficient((1,)) else original(v)

    keys = failures(monkeypatch, schur, "apply_q", doubled, "heisenberg", 4)
    assert keys == ["qp-pq lam=()", "qp-pq lam=(1,)"]


def test_bfhcl_golden_and_coefficient_keys(monkeypatch):
    def wrong_h(original):
        return lambda lam, box: original(lam, box) + (lam == (2, 1))

    assert failures(monkeypatch, symgroup, "_h", wrong_h, "bfhcl", 3) == [
        "golden example",
        "mu=(2, 1) lam=(1, 1) lam1=(1,) lam",
        "mu=(2, 1) lam=(1, 1) lam1=(1,) nu",
        "mu=(2, 1) lam=(2,) lam1=(1,) lam",
        "mu=(2, 1) lam=(2,) lam1=(1,) nu",
    ]


def test_bfhcl_transport_keys(monkeypatch):
    def flipped_t3(original):
        return lambda i, key: [(-c, s) for c, s in original(i, key)] if i == 3 else original(i, key)

    assert failures(monkeypatch, fock, "_t_key", flipped_t3, "bfhcl", 3) == [
        "transport p lam=(1, 1)",
        "transport p lam=(1, 1, 1)",
        "transport p lam=(1,)",
        "transport q lam=(2, 1)",
        "transport q lam=(2,)",
    ]


def test_serre_twist_keys(monkeypatch):
    def flipped_t0_t1(original):
        return lambda i, key: [(-c, s) for c, s in original(i, key)] if i in (0, 1) else original(i, key)

    keys = failures(monkeypatch, fock, "_t_key", flipped_t0_t1, "serre", 2)
    assert len(keys) == 18
    assert first_of_each_family(keys, " n=") == {
        "bar twist": "bar twist n=0 lam=()",
        "row twist": "row twist n=0 lam=()",
    }
    assert "bar twist n=4 lam=(1, 1)" in keys and "row twist n=3 lam=(1, 1)" in keys


def test_serre_factor_keys(monkeypatch):
    def zero_into_row(original):
        return lambda a, b: quiver.FElement.zero() if b.target == (2,) else original(a, b)

    assert failures(monkeypatch, quiver, "multiply", zero_into_row, "serre", 3) == [
        "factor n=2 lam=() mu=()",
        "factor n=2 lam=() mu=(1, 1)",
        "factor n=2 lam=() mu=(1,)",
    ]


def test_serre_pairing_failures_do_not_abort_the_suite(monkeypatch):
    # the n=1 label at n=2 breaks the pairing one way, lhs without rhs, where
    # no arrow into the target exists, so the factor case must not be built
    def label_of_n1(original):
        return lambda lam, n: original(lam, 1) if n == 2 and len(lam) <= 1 else original(lam, n)

    assert failures(monkeypatch, quiver, "serre_bar_k0", label_of_n1, "serre", 4) == [
        "pairing n=2 lam=() mu=(1, 1)",
        "pairing n=2 lam=(1,) mu=(1, 1)",
        "pairing n=2 lam=(1,) mu=(2, 1)",
        "pairing n=2 lam=(2,) mu=(2, 1)",
        "pairing n=2 lam=(2,) mu=(3, 1)",
        "pairing n=2 lam=(3,) mu=(3, 1)",
    ]


def test_resolution_rank_and_cokernel_keys(monkeypatch):
    def zero_into_box(original):
        return lambda a, b: quiver.FElement.zero() if b.target == (1,) else original(a, b)

    assert failures(monkeypatch, quiver, "multiply", zero_into_box, "resolutions", 2) == [
        "q cokernel n=1 lam=()",
        "q rank n=1 lam=()",
        "q rank n=2 lam=()",
        "q rank n=3 lam=()",
        "simple cokernel n=1 lam=(1,)",
        "simple cokernel n=2 lam=(1,)",
        "simple cokernel n=3 lam=(1,)",
        "simple rank n=1 lam=(1,)",
        "simple rank n=2 lam=(1, 1)",
        "simple rank n=2 lam=(1,)",
        "simple rank n=3 lam=(1, 1)",
        "simple rank n=3 lam=(1,)",
    ]


def extra_degree_zero_label(original):
    def resolution(lam, n):
        res = original(lam, n)
        if lam == (1,):
            res.terms[0] = (0, res.terms[0][1] + ((),))
        return res

    return resolution


def one_more_at(lam_wanted, eta_wanted):
    """Wrap a dimension-target factory so one target reads 1 too many at one label."""

    def wrap(original):
        def dims(lam, *rest):
            target = original(lam, *rest)
            if lam != lam_wanted:
                return target
            return lambda eta: target(eta) + (eta == eta_wanted)

        return dims

    return wrap


@pytest.mark.parametrize(
    "name, wrap, expected",
    [
        ("resolution_simple", extra_degree_zero_label, [
            "simple cokernel n=1 lam=(1,)",
            "simple cokernel n=2 lam=(1,)",
            "simple cokernel n=3 lam=(1,)",
            "simple euler n=1 lam=(1,)",
            "simple euler n=2 lam=(1,)",
            "simple euler n=3 lam=(1,)",
        ]),
        ("q_module_dims", one_more_at((1,), ()), [
            "q euler n=1 lam=(1,)", "q euler n=2 lam=(1,)", "q euler n=3 lam=(1,)",
        ]),
        ("df_tensor_dims", one_more_at((1, 1), (1, 1)), [
            "df euler n=2 lam=(1, 1)", "df euler n=3 lam=(1, 1)",
        ]),
    ],
)
def test_resolution_euler_keys(monkeypatch, name, wrap, expected):
    assert failures(monkeypatch, quiver, name, wrap, "resolutions", 2) == expected


@pytest.mark.parametrize(
    "module, name, wrap, size, expected",
    [
        (co, "f_sum", lambda o: lambda s, t: o(s, t) + ((s, t) == (0, 3)), 2, ["f s=0 t=3"]),
        (co, "cauchy_det", lambda o: lambda a, b: o(a, b) + (len(a) == 1), 2, ["cauchy trial=5"]),
        (co, "subclaim_identity", lambda o: lambda mu: o(mu) and mu != (2, 1), 2,
         ["factorial identity mu=(2, 1)"]),
        (co, "matrix_c", lambda o: lambda lam, k: o(lam, k) + o(lam, k) if lam == (2,) else o(lam, k), 2,
         ["BC=A lam=(2,)", "det lam=(2,)"]),
        (symgroup, "h_coeff", lambda o: lambda a, b: o(a, b) + (a == (1,)), 3,
         ["h square mu=(2, 1) lam=(1, 1) mu1=(2,)", "h square mu=(2, 1) lam=(2,) mu1=(1, 1)"]),
    ],
    ids=["f", "cauchy", "factorial identity", "BC=A and det", "h square"],
)
def test_identities_keys(monkeypatch, module, name, wrap, size, expected):
    assert failures(monkeypatch, module, name, wrap, "identities", size) == expected
