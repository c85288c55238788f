"""The fermionic Fock space and the Clifford generator action.

Vectors are finite rational combinations of charged sequences.  The odd and
even generators act by contraction and insertion; the vertex-operator style
partial sums are evaluated over the finite index window that can act
nontrivially on the support of the input.  Every image is made from a
sequence's bit masks by ``partitions.clifford_t``, read through ``_t_key``,
or by ``shift`` (``tau``), so the operators accumulate through
``FormalSum._apply`` without checking each key again.  psi*_j is the first
image of t_{2j-1} = psi*_j + psi*_{j-1} where 2j is present.  A key hashes
and compares as its two masks, in C; terms print in the order of
``FockVector._sort_key``, by (charge, head), and print from that pair, so
each head is read off the masks once per print.  Each image carries a sign
of +-1, which ``_apply`` applies by negation.
"""

from __future__ import annotations

from .formal import FormalSum
from .partitions import ChargedSequence, clifford_t

CliffordWord = tuple[int, ...]


class FockVector(FormalSum):
    """Finite rational linear combination of charged sequences."""

    @staticmethod
    def _check_key(key):
        if not isinstance(key, ChargedSequence):
            raise TypeError(f"FockVector keys must be ChargedSequence, got {key!r}")
        return key

    @staticmethod
    def _sort_key(key):
        return key.charge, key.head

    def to_json(self):
        return self.json_terms("sequence", lambda form: {"charge": form[0], "head": list(form[1])})


def sequence_text(form) -> str:
    """A (charge, head) pair as ``(x_1,...,x_h,t,t+2,...)``, t = 2h + 2 + 2 * charge the first tail value."""
    charge, head = form
    tail = 2 * len(head) + 2 + 2 * charge
    return "(" + ",".join(str(x) for x in head + (tail, tail + 2)) + ",...)"


def vacuum(charge: int = 0) -> FockVector:
    return FockVector.basis(ChargedSequence.vacuum(charge))


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


# Images of one sequence under t_i as (sign, sequence) pairs.  Every operator
# here but the shift ``tau``, psi* included, and the Clifford sweep in
# ``suites`` read this name at run time, so it is the one place to patch the
# generator action.
_t_key = clifford_t


def apply_psi(j: int, v: FockVector) -> FockVector:
    """Insert the value 2j with the fermionic sign; zero where 2j is present: t_{2j}."""
    return v._apply(lambda key: _t_key(2 * j, key))


def apply_psi_star(j: int, v: FockVector) -> FockVector:
    """Delete the value 2j with the fermionic sign; zero where 2j is absent.

    t_{2j-1} removes 2j before 2j - 2, so where 2j is present its first image is psi*_j's.
    """
    return v._apply(lambda key: _t_key(2 * j - 1, key)[:1] if 2 * j in key else ())


def apply_t(i: int, v: FockVector) -> FockVector:
    """The Clifford generator: insertion for even i, double contraction for odd.

    Even generators lower the charge by one, odd generators raise it by one.
    An odd generator makes both contractions of a sequence in one pass.
    """
    return v._apply(lambda key: _t_key(i, key))


def apply_word(word, v: FockVector) -> FockVector:
    """Right-to-left composition of generators: the last index acts first."""
    for i in reversed(tuple(word)):
        v = apply_t(i, v)
    return v


def tau(v: FockVector, steps: int = 1) -> FockVector:
    """Shift every entry by 2*steps; the charge moves by steps."""
    return v._apply(lambda key: [(1, key.shift(steps))])


def s_bar_n(n: int, v: FockVector) -> FockVector:
    """Shifted alternating sum of odd generators with indices up to n.

    t_{2i+1} removes 2i or 2i+2, so only the indices i = x/2 - 1 and x/2 of
    a present value x can contribute.  Those with i <= n come from the values
    x <= 2n + 2, which ``present_up_to`` reads off the masks.  The sum runs
    over just these indices, in ascending order.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    top = 2 * n + 2

    def images(key):
        window = sorted({i for x in key.present_up_to(top) for i in (x // 2 - 1, x // 2) if i <= n})
        return [(_sign(i) * c, seq) for i in window for c, seq in _t_key(2 * i + 1, key)]

    return tau(v._apply(images), -1)


def s_n_op(n: int, v: FockVector) -> FockVector:
    """Shifted alternating sum of even generators with indices down to -n.

    Insertions at or beyond the tail vanish, which bounds the upper range.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def images(key):
        hi = key.first_tail_value // 2 - 1
        return [(_sign(i) * c, seq) for i in range(-n, hi + 1) for c, seq in _t_key(2 * i, key)]

    return tau(v._apply(images), 1)


def _quadratic_trunc(N: int, d: int, v: FockVector) -> FockVector:
    """Sum of t_{2i} t_{2i+d} over -N <= i <= 0 minus t_{2i+d} t_{2i} over 1 <= i <= N.

    One pass over v, with no vector per word.
    """
    if N < 1:
        raise ValueError("N must be positive")
    # (sign, outer, inner): the inner generator acts first, on each key of v
    words = [(1, 2 * i, 2 * i + d) for i in range(-N, 1)]
    words += [(-1, 2 * i + d, 2 * i) for i in range(1, N + 1)]

    def images(key):
        return [(sign * c1 * c2, image) for sign, outer, inner in words
                for c1, middle in _t_key(inner, key) for c2, image in _t_key(outer, middle)]

    return v._apply(images)


def g_q_trunc(N: int, v: FockVector) -> FockVector:
    """Truncation of the quadratic expression acting as the box-removal operator."""
    return _quadratic_trunc(N, -1, v)


def g_p_trunc(N: int, v: FockVector) -> FockVector:
    """Truncation of the quadratic expression acting as the box-addition operator."""
    return _quadratic_trunc(N, 1, v)


def stable_truncation(p) -> int:
    """A truncation order beyond which the quadratic sums act as removal/addition.

    Large enough to cover every present value below the vacuum region and
    every hole above it for the charge-0 sequence of the partition p.
    """
    rows = len(p)
    cols = p[0] if p else 0
    return rows + cols + 2
