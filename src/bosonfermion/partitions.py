"""Partitions, charged even-integer sequences, and the bijections between them.

Partitions are plain tuples of weakly decreasing positive integers; the empty
tuple is the empty partition.  A charged sequence is a semi-infinite strictly
increasing sequence of even integers that eventually agrees with the shifted
vacuum tail ``x_i = 2i + 2k``; ``k`` is its charge.  Only the finite head that
deviates from the tail is stored.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, product
from operator import itemgetter


Partition = tuple[int, ...]
Box = tuple[int, int]  # (row, col), both 1-based

EMPTY: Partition = ()


def as_partition(parts) -> Partition:
    """Normalize an iterable of parts: drop trailing zeros, validate monotonicity."""
    p = tuple(map(int, parts))
    while p and p[-1] == 0:
        p = p[:-1]
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError(f"parts are not weakly decreasing: {p!r}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in {p!r}")
    return p


def part(p: Partition, i: int) -> int:
    """The i-th part (1-based), zero beyond the last row."""
    return p[i - 1] if 1 <= i <= len(p) else 0


def size(p: Partition) -> int:
    return sum(p)


def dual(p: Partition) -> Partition:
    """Conjugate partition (transpose of the diagram)."""
    # the columns p_{i+1} + 1 .. p_i have exactly i boxes
    cols, below = (), 0
    for i in range(len(p), 0, -1):
        row = p[i - 1]
        cols += (i,) * (row - below)
        below = row
    return cols


def contains(outer: Partition, inner: Partition) -> bool:
    return all(part(outer, i + 1) >= v for i, v in enumerate(inner))


def content(box: Box) -> int:
    """Content col - row of a box."""
    row, col = box
    return col - row


def removable_corners(p: Partition) -> list[Box]:
    corners = []
    for i, row in enumerate(p):
        if row > part(p, i + 2):
            corners.append((i + 1, row))
    return corners


def remove_box(p: Partition, box: Box) -> Partition:
    row = box[0]
    return as_partition(p[: row - 1] + (p[row - 1] - 1,) + p[row:])


def add_box(p: Partition, box: Box) -> Partition:
    row = box[0]
    padded = p + (0,) * (row - len(p))
    return as_partition(padded[: row - 1] + (padded[row - 1] + 1,) + padded[row:])


def res_set(p: Partition) -> set[Partition]:
    """All partitions obtained by removing one removable corner box.

    Each image is built already normalised: a row longer than the next stays
    positive, and the last row is dropped when it empties.
    """
    last = len(p) - 1
    out = set()
    for i, row in enumerate(p):
        if i == last:
            out.add(p[:i] + (row - 1,) if row > 1 else p[:i])
        elif row > p[i + 1]:
            out.add(p[:i] + (row - 1,) + p[i + 1:])
    return out


def ind_set(p: Partition) -> set[Partition]:
    """All partitions obtained by adding one addable box.

    The first row and every row shorter than the one above take a box, and a
    new row of one box goes below; each image is built already normalised.
    """
    out = {p + (1,)}
    for i, row in enumerate(p):
        if i == 0 or row < p[i - 1]:
            out.add(p[:i] + (row + 1,) + p[i + 1:])
    return out


def added_box(smaller: Partition, larger: Partition) -> Box:
    """The unique box of ``larger`` not in ``smaller``; requires |larger| = |smaller|+1."""
    if size(larger) != size(smaller) + 1 or not contains(larger, smaller):
        raise ValueError(f"{larger} does not cover {smaller}")
    for i in range(len(larger)):
        if part(larger, i + 1) != part(smaller, i + 1):
            return (i + 1, larger[i])
    raise AssertionError("unreachable")


def union_columns(p: Partition, n: int) -> Partition:
    """Add one box to each of the first n rows (missing rows count as empty)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if len(p) > n:
        raise ValueError(f"{p} has more than {n} nonzero rows")
    return tuple(part(p, i) + 1 for i in range(1, n + 1))


def lambda_t(lam: Partition, n: int, t: int) -> Partition:
    """The t-th label of the length-n chain attached to ``lam``.

    For t = 0 this is ``lam`` with one box added to each of the n rows; for
    t >= 1 the (n-t+1)-th row is dropped, the rows above keep their extra box,
    and the rows below are left unchanged.
    """
    if len(lam) > n:
        raise ValueError(f"{lam} has more than {n} rows")
    if not 0 <= t <= n:
        raise ValueError(f"t={t} out of range [0, {n}]")
    rows = [part(lam, i) for i in range(1, n + 1)]
    if t == 0:
        return as_partition([r + 1 for r in rows])
    head = [rows[i] + 1 for i in range(n - t)]
    tail = rows[n - t + 1:]
    return as_partition(head + tail)


def partitions_of(n: int):
    """Yield all partitions of n in descending lexicographic order."""
    if n < 0:
        return
    yield from _partitions_of(n, n, n, ())


def _partitions_of(n: int, rows: int, cap: int, prefix: Partition):
    """``prefix`` followed by each partition of n into at most ``rows`` parts of at most ``cap``.

    Generated on demand in descending lexicographic order; nothing is kept.
    """
    for first in range(min(n, cap), 1, -1):
        if n > first * rows:
            return  # the rows left, each at most first, cannot hold the rest
        yield from _partitions_of(n - first, rows - 1, first, prefix + (first,))
    if n <= rows:
        yield prefix + (1,) * n  # the rest in rows of one box, or nothing left


def partitions_up_to(max_size: int):
    """All partitions of size 0..max_size."""
    for n in range(max_size + 1):
        yield from partitions_of(n)


def partitions_bounded(max_rows: int, max_size: int):
    """All partitions with at most ``max_rows`` rows and size at most ``max_size``.

    In the order of :func:`partitions_up_to`, and enumerated under the row bound.
    """
    if max_rows < 0:
        return
    for n in range(max_size + 1):
        yield from _partitions_of(n, max_rows, n, ())


# ---------------------------------------------------------------------------
# interlacing and strips

def interlacing(p: Partition, above: bool = False, total: int | None = None) -> list[Partition]:
    """The partitions q that interlace p, in ascending order.

    Below p (the default) row i of q ranges over p_{i+1} <= q_i <= p_i, so
    p/q is a horizontal strip; above p it ranges over p_i <= q_i <= p_{i-1},
    so q/p is one, and the first row is bounded by ``total`` alone, which is
    then required.  With ``total`` only the q of that size are listed.  The
    rows are chosen independently, so partial sums are pruned exactly and
    every partial choice completes.  The walk is an odometer over the rows:
    each q is the previous one with its last row that can still grow raised
    by one and the rows after it reset to their least values, so a long row
    or column costs no stack and a chain of forced rows is written once per
    image.  Ascending padded rows are ascending trimmed tuples, so nothing is
    sorted; only the last row can be zero.
    """
    if above:
        if total is None:
            raise ValueError("the partitions above p need a total size")
        lows, highs = p + (0,), (total,) + p
    else:
        lows, highs = (p + (0,))[1:], p
    rows = len(lows)
    if total is not None and not sum(lows) <= total <= sum(highs):
        return []
    if not rows:
        return [()]
    lo_tail = list(accumulate(reversed(lows[1:]), initial=0))[::-1]  # sum(lows[i + 1:])
    hi_tail = list(accumulate(reversed(highs[1:]), initial=0))[::-1]
    q = [0] * rows
    left = [total or 0] * (rows + 1)  # left[i]: the boxes rows i, i+1, ... still take
    out = []
    i = 0
    while True:
        for j in range(i, rows):
            lo = lows[j] if total is None else max(lows[j], left[j] - hi_tail[j])
            q[j] = lo
            left[j + 1] = left[j] - lo
        out.append(tuple(q) if q[-1] else tuple(q[:-1]))
        i = rows - 1
        while q[i] == (highs[i] if total is None else min(highs[i], left[i] - lo_tail[i])):
            i -= 1
            if i < 0:
                return out
        q[i] += 1
        left[i + 1] -= 1
        i += 1


def add_horizontal_strips(p: Partition, m: int) -> list[Partition]:
    """All partitions obtained from p by adding m boxes, no two in one column, ascending."""
    if m < 0:
        raise ValueError("strip size must be nonnegative")
    return interlacing(p, above=True, total=size(p) + m)


def add_vertical_strips(p: Partition, m: int) -> list[Partition]:
    """All partitions obtained from p by adding m boxes, no two in one row."""
    return [dual(q) for q in add_horizontal_strips(dual(p), m)]


def remove_horizontal_strips(p: Partition, m: int) -> list[Partition]:
    """All partitions obtained from p by removing m boxes, no two in one column, descending."""
    if m < 0:
        raise ValueError("strip size must be nonnegative")
    return interlacing(p, total=size(p) - m)[::-1]


def remove_vertical_strips(p: Partition, m: int) -> list[Partition]:
    """All partitions obtained from p by removing m boxes, no two in one row."""
    return [dual(q) for q in remove_horizontal_strips(dual(p), m)]


# ---------------------------------------------------------------------------
# charged sequences

class ChargedSequence(tuple):
    """Strictly increasing even sequence equal to ``2i + 2k`` beyond its head.

    An immutable tuple ``(charge, head)``, so hashing, equality and ordering
    are the tuple's own.  The stored head is minimal: trailing head entries
    that already match the vacuum tail are trimmed, so equality of values is
    equality of fields.  Only the constructor and ``of`` check their input;
    ``insert``, ``remove`` and ``shift`` build their results from a sequence
    in canonical form with the unchecked ``_canonical``.

    The tuple API comes with the type: ``len(s)`` is 2, ``iter(s)`` yields the
    charge and then the head, and a sequence equals and hashes like its plain
    pair, so a plain ``(charge, head)`` finds the sequence's entry in a dict.
    Only ``FockVector`` rejects a plain pair as a key.
    """

    __slots__ = ()

    charge = property(itemgetter(0), doc="The charge k of the tail ``2i + 2k``.")
    head = property(itemgetter(1), doc="The entries before the tail, as a tuple.")

    def __new__(cls, charge: int, head: tuple[int, ...] = ()):
        head = tuple(head)
        for x in head:
            if x % 2 != 0:
                raise ValueError(f"odd entry {x} in {head}")
        for a, b in zip(head, head[1:]):
            if a >= b:
                raise ValueError(f"head not strictly increasing: {head}")
        m = len(head)
        if m and head[-1] >= _first_tail_value(charge, m):
            raise ValueError(f"head {head} overlaps the charge-{charge} tail")
        if m and head[-1] == 2 * m + 2 * charge:
            raise ValueError(f"head {head} is not in canonical (minimal) form")
        return tuple.__new__(cls, (charge, head))

    def __getnewargs__(self):
        return tuple(self)  # copy and pickle rebuild through the checked constructor

    def __repr__(self) -> str:
        return f"ChargedSequence(charge={self[0]!r}, head={self[1]!r})"

    @classmethod
    def of(cls, charge: int, entries) -> "ChargedSequence":
        """Build from the explicit leading values of the sequence, canonicalizing."""
        return cls(charge, _trim(charge, tuple(entries)))

    @classmethod
    def vacuum(cls, charge: int) -> "ChargedSequence":
        return cls(charge, ())

    def value(self, i: int) -> int:
        """The i-th entry, 1-based."""
        if i <= 0:
            raise IndexError(i)
        if i <= len(self.head):
            return self.head[i - 1]
        return 2 * i + 2 * self.charge

    def prefix(self, count: int) -> tuple[int, ...]:
        return tuple(self.value(i) for i in range(1, count + 1))

    @property
    def first_tail_value(self) -> int:
        return _first_tail_value(self[0], len(self[1]))

    def __contains__(self, x: int) -> bool:
        if x % 2 != 0:
            return False
        return x in self.head or x >= self.first_tail_value

    def insert(self, x: int) -> tuple[int, "ChargedSequence"] | None:
        """Insert x, returning (number of entries below x, new sequence).

        Returns None when x is already present.  The new sequence has charge
        one lower.  One bisection of the head finds x's place: every tail
        entry lies above any value that can still be inserted.
        """
        if x % 2 != 0:
            raise ValueError(f"cannot insert odd value {x}")
        charge, head = self
        m = len(head)
        n = bisect_left(head, x)
        if x >= _first_tail_value(charge, m) or (n < m and head[n] == x):
            return None
        return n, _canonical(charge - 1, head[:n] + (x,) + head[n:])

    def remove(self, x: int) -> tuple[int, "ChargedSequence"] | None:
        """Remove x, returning (1-based position of x, new sequence).

        Returns None when x is absent.  The new sequence has charge one higher.
        One bisection of the head finds x there; a tail value sits at its gap
        index, and the tail entries below it become head entries.
        """
        if x % 2 != 0:
            return None
        charge, head = self
        m = len(head)
        k = bisect_left(head, x)
        if k < m and head[k] == x:
            return k + 1, _canonical(charge + 1, head[:k] + head[k + 1:])
        tail = _first_tail_value(charge, m)
        if x < tail:
            return None
        return (x - 2 * charge) // 2, _canonical(charge + 1, head + tuple(range(tail, x, 2)))

    def shift(self, steps: int) -> "ChargedSequence":
        """Add 2*steps to every entry; charge moves by steps."""
        return _canonical(self.charge + steps, tuple(h + 2 * steps for h in self.head))

    @property
    def energy(self) -> int:
        total = sum(2 * self.charge + 2 * (i + 1) - x for i, x in enumerate(self.head))
        if total % 2:
            raise RuntimeError(f"odd doubled energy {total} for {self}")
        return total // 2

    def display(self) -> str:
        shown = self.prefix(len(self.head) + 2)
        return "(" + ",".join(str(x) for x in shown) + ",...)"


def _first_tail_value(charge: int, m: int) -> int:
    """The entry ``2i + 2k`` at ``i = m + 1``: the first tail value after an ``m``-entry head."""
    return 2 * (m + 1) + 2 * charge


def _canonical(charge: int, head: tuple[int, ...]) -> ChargedSequence:
    """The sequence with ``head`` trimmed, built without the constructor's check."""
    return tuple.__new__(ChargedSequence, (charge, _trim(charge, head)))


def _trim(charge: int, head: tuple[int, ...]) -> tuple[int, ...]:
    """``head`` without its trailing entries that already match the charge-``charge`` tail."""
    m = len(head)
    while m and head[m - 1] == 2 * m + 2 * charge:
        m -= 1
    return head[:m]


def to_sequence(p: Partition) -> ChargedSequence:
    """The charge-0 sequence ``(2j - 2*dual(p)_j)`` indexed by the columns of p."""
    d = dual(p)
    return ChargedSequence.of(0, tuple(2 * (j + 1) - 2 * d[j] for j in range(len(d))))


def from_sequence(s: ChargedSequence) -> Partition:
    """Inverse of :func:`to_sequence`; defined on charge-0 sequences only."""
    if s.charge != 0:
        raise ValueError(f"sequence has charge {s.charge}, expected 0")
    cols = tuple(j - x // 2 for j, x in enumerate(s.head, start=1))
    return dual(as_partition(cols))


def energy(values, k: int | None = None) -> int:
    """Half the total deviation from the charge-k vacuum.

    ``values`` is either a ChargedSequence (k optional, must agree when given)
    or the explicit leading values of a sequence whose remaining entries are
    the charge-k tail.  Repeated values are allowed.
    """
    if isinstance(values, ChargedSequence):
        if k is not None and k != values.charge:
            raise ValueError(f"charge mismatch: {k} != {values.charge}")
        return values.energy
    if k is None:
        raise ValueError("charge is required for explicit value lists")
    vals = list(values)
    total = sum(2 * k + 2 * (i + 1) - x for i, x in enumerate(vals))
    if total % 2 != 0:
        raise ValueError(f"odd total deviation for {vals}")
    return total // 2


def normalize(values, k: int) -> tuple[int, ChargedSequence] | None:
    """Sort an explicit prefix into a charged sequence, tracking the sign.

    Returns ``(sign, sequence)`` where sign is the parity of the sorting
    permutation, or None when any value repeats (including collisions with
    the implied tail), which annihilates a fermionic wedge.
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
