"""Partitions, charged even-integer sequences, and the bijections between them.

Partitions are plain tuples of weakly decreasing positive integers; the empty
tuple is the empty partition.  A charged sequence is a semi-infinite strictly
increasing sequence of even integers that eventually agrees with the shifted
vacuum tail ``x_i = 2i + 2k``; ``k`` is its charge.  It is stored as two bit
masks against the charge-0 vacuum {2, 4, 6, ...}, the present values up to 0
and the absent values from 2, so the Clifford generators (:func:`clifford_t`,
the one insertion and removal) and ``shift`` act by bit tests and bit flips,
with one ``bit_count`` of the entries below a value for its fermionic sign.
"""

from __future__ import annotations

from itertools import accumulate, compress


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


def addable_boxes(p: Partition) -> list[Box]:
    """The boxes addable to p, by row: the first row, each row shorter than the one above, a new row."""
    boxes = [(i + 1, row + 1) for i, row in enumerate(p) if i == 0 or row < p[i - 1]]
    boxes.append((len(p) + 1, 1))
    return boxes


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
    """All partitions of size 0..max_size; one of size k never has more than k rows."""
    return partitions_bounded(max_size, max_size)


def partitions_bounded(max_rows: int, max_size: int):
    """All partitions with at most ``max_rows`` rows and size at most ``max_size``.

    By size, each size in the order of :func:`partitions_of`, and enumerated
    under the row bound.
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

    Stored as the immutable tuple ``(P, H)`` of two bit masks against the
    charge-0 vacuum {2, 4, 6, ...}: bit b of P says -2b is present, and bit b
    of H says 2b + 2 is absent.  Each sequence has one pair, so hashing and
    equality are the tuple's own, in C; the pair is a storage format with no
    meaningful order (``FockVector`` sorts by (charge, head)).  The charge is
    ``H.bit_count() - P.bit_count()``; ``head``, ``energy`` and the repr are
    read off the masks.  Only the constructor and ``of`` check their input.
    """

    __slots__ = ()

    def __new__(cls, charge: int, head: tuple[int, ...] = ()):
        head = tuple(head)
        seq = cls.of(charge, head)
        if head and head[-1] == 2 * len(head) + 2 * charge:
            raise ValueError(f"head {head} is not in canonical (minimal) form")
        return seq

    def __getnewargs__(self):
        return self.charge, self.head  # copy and pickle rebuild through the checked constructor

    def __repr__(self) -> str:
        return f"ChargedSequence(charge={self.charge!r}, head={self.head!r})"

    @classmethod
    def of(cls, charge: int, entries) -> "ChargedSequence":
        """Build from the explicit leading values of the sequence, canonicalizing."""
        head = tuple(entries)
        for x in head:
            if x % 2 != 0:
                raise ValueError(f"odd entry {x} in {head}")
        for a, b in zip(head, head[1:]):
            if a >= b:
                raise ValueError(f"head not strictly increasing: {head}")
        tail = 2 * len(head) + 2 + 2 * charge  # the first tail value
        if head and head[-1] >= tail:
            raise ValueError(f"head {head} overlaps the charge-{charge} tail")
        # the values 2 .. tail - 2 are absent unless listed; the tail values up to 0 are present
        p = sum(1 << (-x // 2) for x in head if x <= 0) | (1 << max(1 - tail // 2, 0)) - 1
        h = (1 << max(tail // 2 - 1, 0)) - 1 ^ sum(1 << (x // 2 - 1) for x in head if x >= 2)
        return _make(cls, (p, h))

    @classmethod
    def vacuum(cls, charge: int) -> "ChargedSequence":
        return cls.of(charge, ())

    @property
    def charge(self) -> int:
        """The charge k of the tail ``2i + 2k``."""
        p, h = self
        return h.bit_count() - p.bit_count()

    @property
    def head(self) -> tuple[int, ...]:
        """The entries before the tail, as a tuple."""
        return tuple(self.present_up_to(self.first_tail_value - 2))

    def present_up_to(self, top: int) -> list[int]:
        """The present values up to ``top``, ascending, read off the masks' binary digits."""
        p, h = self
        first = max((1 - top) // 2, 0)  # P's least bit b with -2b <= top
        low = _flags(p >> first)[::-1]  # P's bits from the highest down to ``first``
        holes = _flags(~h & (1 << max(top // 2, 0)) - 1)  # H's clear bits b with 2b + 2 <= top
        last = first + len(low) - 1
        return (list(compress(range(-2 * last, -2 * first + 1, 2), low))
                + list(compress(range(2, 2 * len(holes) + 1, 2), holes)))

    def value(self, i: int) -> int:
        """The i-th entry, 1-based."""
        if i <= 0:
            raise IndexError(i)
        return self.prefix(i)[-1]

    def prefix(self, count: int) -> tuple[int, ...]:
        head, k = self.head, self.charge
        return head[:count] + tuple(2 * i + 2 * k for i in range(len(head) + 1, count + 1))

    @property
    def first_tail_value(self) -> int:
        p, h = self
        return 2 * h.bit_length() + 2 if h else 2 - 2 * (p & ~(p + 1)).bit_length()

    def __contains__(self, x: int) -> bool:
        p, h = self
        return x % 2 == 0 and (bool(p >> (-x // 2) & 1) if x <= 0 else not h >> (x // 2 - 1) & 1)

    def shift(self, steps: int) -> "ChargedSequence":
        """Add 2*steps to every entry; charge moves by steps."""
        p, h = self
        if steps > 0:
            p, h = _raise_masks(p, h, steps)
        elif steps < 0:
            h, p = _raise_masks(h, p, -steps)  # mirrored: v -> 2 - v swaps P and presence
        return _make(ChargedSequence, (p, h))

    @property
    def energy(self) -> int:
        k = self.charge
        return sum(k + i - x // 2 for i, x in enumerate(self.head, 1))


_make = tuple.__new__
_SIGN = (1, -1)  # by the parity of the entries below a value
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _flags(x: int) -> bytes:
    """The bits of x >= 0 from bit 0 up, one 0/1 byte each, for ``itertools.compress``."""
    return format(x, "b")[::-1].encode().translate(_DIGITS)


def _raise_masks(p: int, h: int, steps: int) -> tuple[int, int]:
    """The masks after adding 2 * steps > 0 to every value: -2b moves to H's bit steps - 1 - b."""
    crossing = ~p & (1 << steps) - 1
    return p >> steps, h << steps | int(format(crossing, f"0{steps}b")[::-1], 2)


def clifford_t(i: int, s: ChargedSequence) -> list:
    """Images of s under the Clifford generator t_i, as (sign, sequence) pairs.

    An even i inserts the value i; an odd i removes i + 1 and then i - 1.
    Each sign is -1 to the number of entries below the value that moves.
    The image order is a contract: where i + 1 is present, the first image of
    an odd i is its removal, which ``fock.apply_psi_star`` reads as psi*.
    This is the package's only insertion and removal of a value.
    """
    p, h = s
    if not i & 1:
        if i <= 0:  # the value i is P's bit -i/2
            b = -i >> 1
            if p >> b & 1:
                return []
            return [(_SIGN[(p >> b).bit_count() & 1], _make(ChargedSequence, (p | 1 << b, h)))]
        b = (i >> 1) - 1  # the value i is H's bit i/2 - 1
        if not h >> b & 1:
            return []
        below = p.bit_count() + b - (h & (1 << b) - 1).bit_count()
        return [(_SIGN[below & 1], _make(ChargedSequence, (p, h ^ 1 << b)))]
    out = []
    for x in (i + 1, i - 1):
        if x <= 0:  # P's bit -x/2
            b = -x >> 1
            if p >> b & 1:
                out.append((_SIGN[(p >> b + 1).bit_count() & 1], _make(ChargedSequence, (p ^ 1 << b, h))))
        elif not h >> (b := (x >> 1) - 1) & 1:  # H's bit x/2 - 1
            below = p.bit_count() + b - (h & (1 << b) - 1).bit_count()
            out.append((_SIGN[below & 1], _make(ChargedSequence, (p, h | 1 << b))))
    return out


def dual_sequence(p: Partition) -> ChargedSequence:
    """``to_sequence(dual(p))`` read off p's rows: the charge-0 sequence ``(2j - 2 p_j)``.

    The entry 2j - 2 p_j is P's bit p_j - j (an arm) or clears H's bit j - p_j - 1;
    the bits of H left set are p's legs.
    """
    present, absent = 0, (1 << len(p)) - 1  # the values 2 .. 2 len(p), absent unless an entry
    for j, row in enumerate(p, 1):
        if row >= j:
            present |= 1 << row - j
        else:
            absent ^= 1 << j - row - 1
    return _make(ChargedSequence, (present, absent))


def to_sequence(p: Partition) -> ChargedSequence:
    """The charge-0 sequence ``(2j - 2*dual(p)_j)`` indexed by the columns of p.

    The mirror v -> 2 - v of :func:`dual_sequence`: P holds p's legs and H its arms.
    """
    arms, legs = dual_sequence(p)
    return _make(ChargedSequence, (legs, arms))


def from_sequence(s: ChargedSequence) -> Partition:
    """Inverse of :func:`to_sequence`; defined on charge-0 sequences only."""
    if s.charge != 0:
        raise ValueError(f"sequence has charge {s.charge}, expected 0")
    cols = tuple(j - x // 2 for j, x in enumerate(s.head, start=1))
    return dual(as_partition(cols))
