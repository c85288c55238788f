"""The path algebra on Young's lattice with interlacing basis, and its truncations.

A basis element joins a source partition to a target partition whenever the
two interlace (equivalently, their skew diagram is a horizontal strip); the
product of two basis elements is the joined element when the middle labels
match and the outer pair still interlaces, and zero otherwise.  The sources
of a projective, and of the twisted module, are read off the one interlacing
enumerator :func:`bosonfermion.partitions.interlacing` that also lists the
Schur strips.  A truncation bounds the number of rows and the total size at
once.
The module also builds the finite projective resolutions used by the
Serre-twist computations and checks them by graded Euler characteristics and
by exactness of their sparse boundaries, with ranks from ``ratmat.rank``.
The labels of the simple resolution are lam minus its removable vertical
strips, the duals of :func:`bosonfermion.partitions.remove_horizontal_strips`
on the dual of lam.  The Euler check adds each projective's sign at the
labels ``interlacing`` lists for it, a limit projective's from above its tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .formal import FormalSum
from .partitions import (
    Partition,
    as_partition,
    dual,
    interlacing,
    lambda_t,
    part,
    partitions_bounded,
    remove_horizontal_strips,
    union_columns,
)
from .ratmat import rank


def exists_hom(lam: Partition, mu: Partition) -> bool:
    """True when mu_i >= lam_i >= mu_{i+1} for all i.

    Both arguments must already be normalised partitions (no trailing zeros,
    as :func:`as_partition` returns them); callers holding raw input normalise
    it once at their boundary, as :func:`df_tensor_dims` does.  The rows then
    compare directly: lam has len(mu) or len(mu) - 1 rows, each between two
    of mu.
    """
    return len(mu) - 1 <= len(lam) <= len(mu) and all(
        a >= b >= c for a, b, c in zip(mu, lam, mu[1:] + (0,))
    )


@dataclass(frozen=True, order=True)
class ArrowElement:
    """Basis element (source || target) of two normalised partitions that interlace."""

    source: Partition
    target: Partition

    def __post_init__(self):
        if not exists_hom(self.source, self.target):
            raise ValueError(f"({self.source} || {self.target}) does not interlace")

    def __repr__(self):
        return f"({self.source}||{self.target})"


class FElement(FormalSum):
    """Rational combination of interlacing basis elements."""

    def __mul__(self, other: "FElement") -> "FElement":
        return FElement.linear_combination(
            (ca * cb, multiply(a, b))
            for a, ca in self._terms.items() for b, cb in other._terms.items()
        )


def multiply(a: ArrowElement, b: ArrowElement) -> FElement:
    """Product of two basis elements; zero on mismatch or broken interlacing."""
    if a.target != b.source or not exists_hom(a.source, b.target):
        return FElement.zero()
    return FElement.basis(ArrowElement(a.source, b.target))


@dataclass(frozen=True)
class Truncation:
    """The finite truncation: partitions of at most n rows and at most m boxes."""

    n: int
    m: int

    def admits(self, p: Partition) -> bool:
        """True when p has at most n rows and at most m boxes.

        p must already be normalised, as :func:`as_partition` returns it; the
        callers here pass labels they normalised or built in normal form.
        """
        return len(p) <= self.n and sum(p) <= self.m

    @cached_property
    def labels(self) -> tuple:
        """The labels of the truncation, normalised, enumerated once per truncation."""
        return tuple(partitions_bounded(self.n, self.m))


def projective_basis(lam, tr: Truncation) -> list[ArrowElement]:
    """All basis elements with target lam and source admitted by the truncation."""
    lam = as_partition(lam)
    if not tr.admits(lam):
        raise ValueError(f"{lam} is not admitted by {tr}")
    return [ArrowElement(eta, lam) for eta in interlacing(lam) if tr.admits(eta)]


def q_module_basis(lam, n: int, m: int) -> list[ArrowElement]:
    """Basis of the twisted module: column-augmented sources over an admitted core."""
    lam = as_partition(lam)
    tr = Truncation(n, m)
    if not tr.admits(lam):
        raise ValueError(f"{lam} is not in the rows<={n}, size<={m} truncation")
    lifted = union_columns(lam, n)
    if not tr.admits(lifted):
        raise ValueError(f"{lifted} leaves the rows<={n}, size<={m} truncation")
    # every eta below lam has no more rows and no more boxes, so it is admitted
    return [ArrowElement(union_columns(eta, n), lifted) for eta in interlacing(lam)]


# ---------------------------------------------------------------------------
# resolutions

@dataclass(frozen=True)
class LimitLabel:
    """Projective label with an unbounded first row over a fixed lower tail.

    Its multiplicity at eta is 1 when the tail interlaces below eta,
    eta_1 >= t_1 >= eta_2 >= ... >= t_{n-1} >= eta_n, and 0 otherwise;
    eta then has at most n rows.
    """

    tail: tuple[int, ...]  # n-1 weakly decreasing values, zeros kept
    n: int

    def __repr__(self):
        return f"(oo,{','.join(str(x) for x in self.tail)})"


Boundary = tuple[int, int, ArrowElement, int]  # (source position, target position, generator, sign)


@dataclass
class Resolution:
    terms: list[tuple[int, tuple]]  # (homological degree, labels), degree ascending
    boundaries: dict[int, tuple[Boundary, ...]] | None = None

    def labels_at(self, degree: int) -> tuple:
        for d, labels in self.terms:
            if d == degree:
                return labels
        return ()

    @property
    def top_degree(self) -> int:
        return max(d for d, _ in self.terms)

    def to_json(self):
        out = []
        for d, labels in self.terms:
            entry = {"degree": d, "labels": [list(l) if isinstance(l, tuple) else repr(l) for l in labels]}
            if self.boundaries and d in self.boundaries:
                entry["boundary"] = [
                    {"from": s, "to": t, "generator": [list(g.source), list(g.target)], "sign": sign}
                    for (s, t, g, sign) in self.boundaries[d]
                ]
            out.append(entry)
        return out

    def arrow_text(self) -> str:
        parts = []
        for d, labels in sorted(self.terms, key=lambda x: -x[0]):
            names = " (+) ".join(f"P({label_text(l)})" for l in labels)
            parts.append(names)
        return " -> ".join(parts)


def label_text(label) -> str:
    if isinstance(label, LimitLabel):
        return repr(label)
    return "(" + ",".join(str(x) for x in label) + ")"


def resolution_q(lam, n: int) -> Resolution:
    """Length-n chain of projectives under the column-augmented label of lam.

    Degree t carries the t-th drop label; consecutive boundary generators
    join neighbouring labels and compose to zero.
    """
    lam = as_partition(lam)
    if len(lam) > n:
        raise ValueError(f"{lam} has more than {n} rows")
    labels = [lambda_t(lam, n, t) for t in range(n + 1)]
    terms = [(t, (labels[t],)) for t in range(n + 1)]
    boundaries = {
        t: ((0, 0, ArrowElement(labels[t], labels[t - 1]), 1),) for t in range(1, n + 1)
    }
    return Resolution(terms, boundaries)


def resolution_df_p(mu, n: int) -> Resolution:
    """Resolution of the dualizing-twist of a projective by limit projectives.

    Degenerates to a single limit projective when the n-th row is empty.
    Otherwise degree k < n carries the limit projective whose tail keeps the
    first n-k-1 rows and decrements the rows below the dropped one, and the
    final degree carries the finite projective with one box removed from
    every row.  Boundary maps are not constructed; the resolution is checked
    at the graded Euler level.
    """
    mu = as_partition(mu)
    if len(mu) > n:
        raise ValueError(f"{mu} has more than {n} rows")
    if n < 1:
        raise ValueError(f"the dualizing twist needs n >= 1, got n={n}")
    padded = [part(mu, i) for i in range(1, n + 1)]
    if padded[n - 1] == 0:
        return Resolution([(0, (LimitLabel(tuple(padded[: n - 1]), n),))])
    terms: list[tuple[int, tuple]] = []
    for k in range(n):
        tail = tuple(padded[: n - k - 1]) + tuple(v - 1 for v in padded[n - k:])
        terms.append((k, (LimitLabel(tail, n),)))
    terms.append((n, (as_partition([v - 1 for v in padded]),)))
    return Resolution(terms)


def resolution_simple(lam, n: int) -> Resolution:
    """Inclusion-exclusion resolution of the simple module at lam.

    Degree s carries the labels lam minus a vertical s-strip, one box off
    each of s distinct rows, in the order of their row sets; their number
    sets the cost.  Each label is the dual of dual(lam) minus a horizontal
    s-strip (:func:`remove_horizontal_strips`), and column j of lam loses the
    segment of rows q_j + 1 .. dual(lam)_j, so the row set is read off those
    segments without a walk over the rows.  Signed boundary maps are attached
    when the shape has at most two nonzero rows: a label maps to the label of
    its row set minus row j with sign (-1)^(index of j).
    """
    lam = as_partition(lam)
    if len(lam) > n:
        raise ValueError(f"{lam} has more than {n} rows")
    k = len(lam)
    cols = dual(lam)

    def removed_rows(q):
        # a horizontal strip has q_j >= cols_{j+1}: column j + 1 loses rows above column j's
        segments = [range(b + 1, a + 1) for a, b in zip(cols, q + (0,))]
        return tuple(chain.from_iterable(reversed(segments)))

    strips = []
    for s in range(k + 1):
        qs = remove_horizontal_strips(cols, s)
        # every label before any row set: built interleaved, the two left the
        # heap fragmented and printing the result took about 5 MB more
        labels = [dual(q) for q in qs]
        strips.append(sorted(zip(map(removed_rows, qs), labels)))
    terms = [(s, tuple(label for _, label in degree)) for s, degree in enumerate(strips)]
    boundaries = None
    if k <= 2:
        boundaries = {}
        for s in range(1, k + 1):
            position = {rows: (pos, label) for pos, (rows, label) in enumerate(strips[s - 1])}
            comps = []
            for pos, (rows, label) in enumerate(strips[s]):
                for idx in range(len(rows)):
                    smaller = rows[:idx] + rows[idx + 1:]
                    if smaller in position:
                        dst, target = position[smaller]
                        comps.append((pos, dst, ArrowElement(label, target), -1 if idx % 2 else 1))
            boundaries[s] = tuple(comps)
    return Resolution(terms, boundaries)


# ---------------------------------------------------------------------------
# verification

def graded_euler_check(res: Resolution, target, tr: Truncation) -> bool:
    """Alternating multiplicity count against a target dimension function.

    For every label admitted by the truncation, the signed number of
    basis vectors of that label across the complex must equal the target.
    Each projective adds its sign at the labels ``interlacing`` lists for it,
    a limit label's above its tail, one size at a time up to ``tr.m``.
    """
    totals: dict = {}
    for degree, labels in res.terms:
        sign = -1 if degree % 2 else 1
        for label in labels:
            if isinstance(label, LimitLabel):
                tail = as_partition(label.tail)
                etas = chain.from_iterable(interlacing(tail, above=True, total=s) for s in range(tr.m + 1))
            else:
                etas = interlacing(label)
            for eta in etas:
                totals[eta] = totals.get(eta, 0) + sign
    return all(totals.get(eta, 0) == target(eta) for eta in tr.labels)


def _basis(res: Resolution, degree: int, tr: Truncation) -> list:
    """Basis vectors (position, element) of the projectives in one degree."""
    basis = []
    for pos, label in enumerate(res.labels_at(degree)):
        if isinstance(label, LimitLabel):
            raise ValueError("rank checks need finite projectives")
        basis.extend((pos, elem) for elem in projective_basis(label, tr))
    return basis


def _boundary(res: Resolution, t: int, tr: Truncation) -> dict:
    """The boundary out of degree t, sparse: each basis vector of degree t maps
    to its image, a ``FormalSum`` over the basis vectors of degree t - 1."""
    gens = res.boundaries.get(t, ())
    return {
        (pos, elem): FormalSum(
            ((dst_pos, image), sign * coeff)
            for src_pos, dst_pos, gen, sign in gens if src_pos == pos
            for image, coeff in multiply(elem, gen).items()
        )
        for pos, elem in _basis(res, t, tr)
    }


def rank_exactness(res: Resolution, tr: Truncation) -> tuple[bool, int]:
    """Squared boundary and rank test inside a finite truncation, and the cokernel.

    Returns ``(exact, cokernel)``.  ``exact`` holds when consecutive
    boundaries compose to zero on every basis vector and at every position
    with an incoming and outgoing map (counting the zero map into the top)
    the two ranks fill the middle dimension.  ``cokernel`` is the dimension
    of the cokernel of the lowest boundary, read off the same boundaries and
    ranks.  A tuple is always true: read ``exact``, never the pair.
    """
    if res.boundaries is None:
        raise ValueError("resolution carries no boundary maps")
    d = {t: _boundary(res, t, tr) for t in range(1, res.top_degree + 1)}
    squares = all(
        FormalSum.linear_combination((c, d[t][key]) for key, c in image.items()).is_zero()
        for t in range(1, res.top_degree) for image in d[t + 1].values()
    )
    ranks = {t: rank(images.values()) for t, images in d.items()}
    exact = squares and all(ranks[t] + ranks.get(t + 1, 0) == len(images) for t, images in d.items())
    return exact, len(_basis(res, 0, tr)) - ranks.get(1, 0)


def serre_bar_k0(lam, n: int) -> Partition:
    """Class-level Serre twist on the column-bounded side: the image projective label."""
    lam = as_partition(lam)
    if len(lam) > n:
        raise ValueError(f"{lam} has more than {n} rows")
    return dual(union_columns(lam, n))


def q_module_dims(lam, n: int, m: int):
    """Euler target: 1 at the twisted module's sources; eta normalised, as ``Truncation.labels`` lists it."""
    sources = {a.source for a in q_module_basis(lam, n, m)}
    return lambda eta: 1 if eta in sources else 0


def df_tensor_dims(mu, n: int):
    """Euler target: 1 at each eta of at most n rows above mu; eta normalised."""
    mu = as_partition(mu)
    return lambda eta: 1 if len(eta) <= n and exists_hom(mu, eta) else 0


def simple_dims(lam):
    """Euler target: 1 at lam alone; eta normalised."""
    lam = as_partition(lam)
    return lambda eta: 1 if eta == lam else 0
