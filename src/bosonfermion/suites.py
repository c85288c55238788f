"""Named verification sweeps: the acceptance gate's relation checks.

This is the one place a relation sweep is written.  The ``verify``
subcommand, the benchmark in ``perfbench`` and the acceptance criteria in
``tests/test_acceptance.py`` all run these suites.  Each suite enumerates
its cases deterministically, never skips silently, and reports failures as
sorted case keys.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import correspondence as co
from . import fock, quiver, schur, symgroup
from .partitions import (
    added_box,
    as_partition,
    content,
    dual,
    dual_sequence,
    partitions_bounded,
    partitions_up_to,
    res_set,
    to_sequence,
    union_columns,
)
from .fock import FockVector
from .formal import _accumulate
from .ratmat import RationalMatrix
from .schur import SchurVector, schur_basis


@dataclass
class SuiteResult:
    name: str
    max_size: int
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, template: str, *fields):
        """Count one case; on failure record its key, ``template.format(*fields)``.

        No passing key reaches the output, so a key is formatted only when its
        case fails.  Each field is formatted as an f-string would format it;
        a literal brace in the template is doubled.
        """
        self.cases += 1
        if not ok:
            self.failures.append(template.format(*fields))

    def to_json(self):
        return {
            "suite": self.name,
            "max_size": self.max_size,
            "cases": self.cases,
            "failures": sorted(self.failures),
            "passed": self.passed,
        }


def energy_basis(max_energy: int, charge: int):
    """Charge-``charge`` basis sequences of energy at most ``max_energy``."""
    for p in partitions_up_to(max_energy):
        yield to_sequence(p).shift(charge)


def _add_word(data: dict, i: int, pairs) -> dict:
    """Add t_i of each (sign, sequence) pair into ``data``, image by image."""
    t_key = fock._t_key
    for c1, middle in pairs:
        for c2, image in t_key(i, middle):
            _accumulate(data, image, c1 * c2)
    return data


def suite_clifford(max_size: int) -> SuiteResult:
    """Generator relations, exactly, on low-energy vectors of small charge.

    Each generator acts once on each basis sequence s, and the word t_i t_j s
    adds t_i of that first image straight into a plain dict (``_add_word``):
    the key action (``fock._t_key``, read at run time) and accumulation
    (``formal._accumulate``) that ``apply_t`` uses.
    """
    result = SuiteResult("clifford", max_size)
    indices = range(-6, 7)
    for k in range(-2, 3):
        for s in energy_basis(max_size, k):
            first = {j: fock._t_key(j, s) for j in indices}
            for i in indices:
                result.check(not _add_word({}, i, first[i]), "square i={} {}", i, s)
                for j in range(i + 1, indices.stop):
                    total = _add_word(_add_word({}, i, first[j]), j, first[i])
                    if j == i + 1:
                        result.check(total == {s: 1}, "adjacent i={} j={} {}", i, j, s)
                    else:
                        result.check(not total, "anticommute i={} j={} {}", i, j, s)
    return result


# The (raising, lowering) strip pairs of the exchange families, and the
# composites A_m(B_n(v)) the strip relations read: each strip operator after
# itself, and each pair in both orders.
_ROW, _COL = ("p_row", "q_row"), ("p_col", "q_col")
_MIXED = (("p_col", "q_row"), ("p_row", "q_col"))
_COMPOSED = [(a, a) for a in _ROW + _COL] + [
    pair for p, q in (_ROW, _COL, *_MIXED) for pair in ((q, p), (p, q))
]


def _exchange_holds(comp, p: str, q: str, m: int, n: int, most: int) -> bool:
    """q^(n) p^(m) = sum of p^(m-k) q^(n-k) over k <= min(m, n, most), read from ``comp``."""
    rhs = SchurVector.linear_combination(
        (1, comp[p, m - k, q, n - k]) for k in range(min(m, n, most) + 1)
    )
    return comp[q, n, p, m] == rhs


def suite_heisenberg(max_size: int) -> SuiteResult:
    """Single-box commutator and the divided-power strip relations.

    ``qp-pq`` is q p = p q + 1 for |lam| <= max_size.  For |lam| <=
    min(max_size, 6) and m, n = 0..3, with X^(m) adding or removing an
    m-strip: ``row commute`` is X^(m) X^(n) = X^(n) X^(m) for X = p_row and
    for X = q_row, ``col commute`` the same for p_col and q_col; ``row
    exchange`` is q_row^(n) p_row^(m) = sum_k p_row^(m-k) q_row^(n-k), ``col
    exchange`` the same for columns; ``mixed exchange`` is q_row^(n) p_col^(m)
    = p_col^(m) q_row^(n) + p_col^(m-1) q_row^(n-1), and the same for q_col
    and p_row.  Each strip image and each composite of two is computed once
    per lam, with the operators looked up in ``schur`` when the suite runs.
    """
    result = SuiteResult("heisenberg", max_size)
    for lam in partitions_up_to(max_size):
        v = schur_basis(lam)
        lhs = schur.apply_q(schur.apply_p(v))
        rhs = schur.apply_p(schur.apply_q(v)) + v
        result.check(lhs == rhs, "qp-pq lam={}", lam)
    ops = {name: getattr(schur, f"apply_{name}") for name in _ROW + _COL}
    powers = range(4)
    for lam in partitions_up_to(min(max_size, 6)):
        v = schur_basis(lam)
        image = {(b, n): ops[b](n, v) for b in ops for n in powers}
        comp = {
            (a, m, b, n): ops[a](m, image[b, n])
            for a, b in _COMPOSED
            for m in powers
            for n in powers
        }
        for m in powers:
            for n in powers:
                for family, (p, q) in (("row", _ROW), ("col", _COL)):
                    commute = all(comp[a, m, a, n] == comp[a, n, a, m] for a in (p, q))
                    result.check(commute, "{} commute lam={} m={} n={}", family, lam, m, n)
                    exchange = _exchange_holds(comp, p, q, m, n, 3)
                    result.check(exchange, "{} exchange lam={} m={} n={}", family, lam, m, n)
                mixed = all(_exchange_holds(comp, p, q, m, n, 1) for p, q in _MIXED)
                result.check(mixed, "mixed exchange lam={} m={} n={}", lam, m, n)
    return result


def _transported(v: SchurVector) -> FockVector:
    return FockVector([(to_sequence(p), c) for p, c in v.items()])


def suite_bfhcl(max_size: int) -> SuiteResult:
    """Coefficient equality sweep plus the golden example and the transport."""
    result = SuiteResult("bfhcl", max_size)
    golden = co.matrix_c((2,), 2).to_strings() == [["1", "1"], ["1/2", "1"]]
    golden = golden and co.g_vector((2,), (1,)) == [Fraction(2), Fraction(-2)]
    golden = golden and co.tilde_a((1,), (2,), (2, 1), symgroup.LAM_BRANCH) == 2
    golden = golden and co.tilde_a((1,), (2,), (2, 1), symgroup.NU_BRANCH) == 1
    golden = golden and symgroup.a_coeff((1,), (2,), (2, 1), symgroup.LAM_BRANCH) == 2
    golden = golden and symgroup.h_coeff((2,), (2, 1)) == 2
    golden = golden and symgroup.h_coeff((1,), (2,)) == Fraction(-1, 2)
    result.check(golden, "golden example")
    coefficient_cases = 0
    for n in range(2, max_size + 1):
        for row in co.verify_bf_hcl(n):
            coefficient_cases += 1
            result.check(row["pass"], "mu={} lam={} lam1={} {}", row["mu"], row["lam"], row["lam1"], row["branch"])
    if not coefficient_cases:
        # a removal path needs |mu| >= 2; a sweep that checked no coefficient must not pass
        result.failures.append(f"no coefficient case up to size {max_size}")
    for lam in partitions_up_to(min(max_size, 8)):
        n_stable = fock.stable_truncation(lam)
        fv = FockVector.basis(to_sequence(lam))
        result.check(
            fock.g_q_trunc(n_stable, fv) == _transported(schur.apply_q(schur_basis(lam))),
            "transport q lam={}", lam,
        )
        result.check(
            fock.g_p_trunc(n_stable, fv) == _transported(schur.apply_p(schur_basis(lam))),
            "transport p lam={}", lam,
        )
    return result


def suite_serre(max_size: int) -> SuiteResult:
    """Column and row Serre twists at the sequence level, plus the pairing biconditional."""
    result = SuiteResult("serre", max_size)
    for n in range(5):
        for lam in partitions_bounded(n, max_size):
            lhs = fock.s_bar_n(n, FockVector.basis(dual_sequence(lam)))
            rhs = FockVector.basis(dual_sequence(union_columns(lam, n)))
            result.check(lhs == rhs, "bar twist n={} lam={}", n, lam)
    for n in range(4):
        for lam in partitions_bounded(n, min(max_size, 8)):
            result.check(co.sn_bridge_holds(lam, n), "row twist n={} lam={}", n, lam)
    for n in range(1, 5):
        duals = {lam: dual(lam) for lam in partitions_bounded(n, min(max_size, 8))}
        for lam, lam_t in duals.items():
            target = quiver.serre_bar_k0(lam, n)
            for mu, mu_t in duals.items():
                lhs = quiver.exists_hom(lam_t, mu_t)
                rhs = quiver.exists_hom(mu_t, target)
                result.check(lhs == rhs, "pairing n={} lam={} mu={}", n, lam, mu)
                # factor needs both arrows; where only lhs holds, the pairing case has failed
                if lhs and rhs:
                    prod = quiver.multiply(
                        quiver.ArrowElement(lam_t, mu_t),
                        quiver.ArrowElement(mu_t, target),
                    )
                    expected = quiver.FElement.basis(quiver.ArrowElement(lam_t, target))
                    result.check(prod == expected, "factor n={} lam={} mu={}", n, lam, mu)
    return result


def suite_resolutions(max_size: int) -> SuiteResult:
    """Rank exactness and graded Euler checks for the three resolution families."""
    result = SuiteResult("resolutions", max_size)
    cap = min(max_size, 6)
    for n in (1, 2, 3):
        for lam in partitions_bounded(n, cap):
            m = sum(lam) + 2 * n + 2
            tr = quiver.Truncation(n, m)
            res = quiver.resolution_q(lam, n)
            exact, cokernel = quiver.rank_exactness(res, tr)
            result.check(exact, "q rank n={} lam={}", n, lam)
            coker_ok = cokernel == len(quiver.q_module_basis(lam, n, m))
            result.check(coker_ok, "q cokernel n={} lam={}", n, lam)
            q_dims = quiver.q_module_dims(lam, n, m)
            result.check(quiver.graded_euler_check(res, q_dims, tr), "q euler n={} lam={}", n, lam)
            df = quiver.resolution_df_p(lam, n)
            df_dims = quiver.df_tensor_dims(lam, n)
            result.check(quiver.graded_euler_check(df, df_dims, tr), "df euler n={} lam={}", n, lam)
            simple = quiver.resolution_simple(lam, n)
            simple_ok = quiver.graded_euler_check(simple, quiver.simple_dims(lam), tr)
            result.check(simple_ok, "simple euler n={} lam={}", n, lam)
            if simple.boundaries is not None and lam:
                exact, cokernel = quiver.rank_exactness(simple, tr)
                result.check(exact, "simple rank n={} lam={}", n, lam)
                result.check(cokernel == 1, "simple cokernel n={} lam={}", n, lam)
    return result


def suite_identities(max_size: int) -> SuiteResult:
    """Factorial sum, Cauchy determinant, factorial identity, determinant forms."""
    result = SuiteResult("identities", max_size)
    for s in range(-5, 9):
        for t in range(1, 9):
            result.check(co.f_sum(s, t) == co.f_closed(s, t), "f s={} t={}", s, t)
    rng = random.Random(20250808)
    for trial in range(20):
        k = rng.randint(1, 6)
        while True:
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)]
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)]
            if all(x + y != 0 for x in a for y in b):
                break
        direct = RationalMatrix([[1 / (x + y) for y in b] for x in a]).det()
        result.check(co.cauchy_det(a, b) == direct, "cauchy trial={}", trial)
    for mu in partitions_up_to(max(max_size, 12)):
        if mu:
            result.check(co.subclaim_identity(mu), "factorial identity mu={}", mu)
    for lam in partitions_up_to(min(max_size, 8)):
        k = lam[0] if lam else 1
        c = co.matrix_c(lam, k)
        result.check(co.matrix_b(k) @ c == co.matrix_a_closed(lam, k), "BC=A lam={}", lam)
        d = c.det()
        result.check(d == co.det_a_closed(lam, k) and d != 0, "det lam={}", lam)
    for mu in partitions_up_to(min(max_size, 8)):
        corners = sorted(res_set(mu))
        for x in range(len(corners)):
            for y in range(len(corners)):
                if x == y:
                    continue
                lam, mu1 = corners[x], corners[y]
                d = content(added_box(lam, mu)) - content(added_box(mu1, mu))
                lam1 = as_partition(
                    [min(a, b) for a, b in zip(lam + (0,) * len(mu), mu1 + (0,) * len(mu))]
                )
                lhs = symgroup.h_coeff(mu1, mu) * (d - 1)
                rhs = d * symgroup.h_coeff(lam1, lam)
                result.check(lhs == rhs, "h square mu={} lam={} mu1={}", mu, lam, mu1)
    return result


# name -> (suite, default size, largest size ``verify`` accepts).  On a 2-vCPU
# x86 host each cap is the largest size whose runs all took under 30 s and
# 100 MB, with the cap and the size above it each run at least twice, since
# one run is within the host's noise.  ``heisenberg`` at 41 took 28.4 and
# 22.7 s and 22 MB, and at 42 took 30.2 and 24.5 s; ``identities`` at 54 took
# 27.2 and 28.4 s and 17 MB, and at 55 took 29.7 and 33.8 s; runs of
# ``tools/ladder.py --cap-from`` set the other three, each cap the smaller of
# two runs: ``bfhcl`` 28 (from 28, with rows built from the level and C
# eliminated on integers: 29 broke 30 s in the first run, 30 in the second;
# 28 took 18.6 to 23.2 s over 6 runs and 22 MB, so time sets it),
# ``clifford`` 27 (from 26: 28 broke 30 s in the first run, 30 in the
# second; 27 took 14.3 to 29.4 s over 12 runs, 17 MB) and ``serre`` 136
# (from 113 and from 133: 137 broke 30 s in the first run, 138 in the second;
# 136 took 22.9 to 28.3 s over 12 runs, 17 MB);
# ``resolutions`` does the same work from 6 up, so its cap is 6.
SUITES = {
    "clifford": (suite_clifford, 6, 27),
    "heisenberg": (suite_heisenberg, 10, 41),
    "bfhcl": (suite_bfhcl, 8, 28),
    "serre": (suite_serre, 10, 136),
    "resolutions": (suite_resolutions, 6, 6),
    "identities": (suite_identities, 12, 54),
}


def run_suite(name: str, max_size: int | None = None) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(name)
    fn, default_size, _ = SUITES[name]
    return fn(default_size if max_size is None else max_size)
