"""Finite formal sums with exact rational coefficients.

A stored coefficient is nonzero and exact: an ``int`` when it is integral,
else a ``Fraction``, whatever numbers went in.  The operators of the paper
have integer coefficients (Clifford signs, strip multiplicities), so their
sums, signs and zero tests run on ``int``.  Every reader (``items``,
``sorted_items``, ``coefficient``, and through them the text, JSON and repr)
sees a ``Fraction``.  Terms are combined by one accumulation routine,
``_accumulate``.

The constructor, which ``basis`` and ``zero`` call, is the one checked entry
point: every key given to it first passes the subclass hook ``_check_key``.
``__add__`` and ``linear_combination`` combine only vectors of one type,
whose keys have passed it already.  The operators in ``schur`` and ``fock``
use the private ``_apply``, which skips the hook: their images come only
from primitives that return normalised keys (``res_set``, ``ind_set``, the
strip enumerators, ``partitions.clifford_t`` and ``ChargedSequence.shift``).
In ``_apply`` an image coefficient of 1 keeps the stored coefficient and one
of -1 negates it; only other values multiply.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .ratmat import format_fraction


def _exact(coeff):
    """``coeff`` as it is stored: an ``int`` when it is integral, else a ``Fraction``."""
    if type(coeff) is int:
        return coeff
    if type(coeff) is not Fraction:
        coeff = Fraction(coeff)
    return coeff.numerator if coeff.denominator == 1 else coeff


def _public(coeff) -> Fraction:
    """A stored coefficient as its readers get it."""
    return Fraction(coeff) if type(coeff) is int else coeff


def _accumulate(data: dict, key, coeff) -> None:
    """Add ``coeff * key`` into ``data``; a key whose coefficient cancels is removed.

    Each sum is stored through ``_exact``, so 1/2 + 1/2 is stored as ``1``.
    """
    if type(coeff) is not int:
        coeff = _exact(coeff)
    if key in data:
        coeff = data[key] + coeff
        if type(coeff) is not int:
            coeff = _exact(coeff)
        if not coeff:
            del data[key]
            return
    elif not coeff:
        return
    data[key] = coeff


class FormalSum:
    """A finite linear combination of hashable basis keys over the rationals.

    A coefficient is stored as an ``int`` when it is integral and as a
    ``Fraction`` otherwise, and zero coefficients are never stored, so
    equality of term dictionaries is equality of vectors (``1 == Fraction(1)``
    and their hashes agree).  Every coefficient a caller reads is a
    ``Fraction``.
    Subclasses validate or normalise keys by overriding ``_check_key``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        """The sum of ``coeff * key`` over (key, coefficient) pairs; each key passes ``_check_key``."""
        data: dict = {}
        check = self._check_key
        for key, coeff in terms:
            _accumulate(data, check(key), coeff)
        self._terms = data

    @staticmethod
    def _check_key(key):
        """Return the key to store for ``key``; raise if it is not a basis key."""
        return key

    @classmethod
    def _wrap(cls, data: dict):
        """A vector of this type over a term dictionary built by ``_accumulate``."""
        result = cls.__new__(cls)
        result._terms = data
        return result

    @classmethod
    def basis(cls, key):
        return cls([(key, 1)])

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def linear_combination(cls, scaled):
        """The sum of ``scalar * vector`` over (scalar, vector) pairs, in one pass."""
        data: dict = {}
        for scalar, vector in scaled:
            if type(vector) is not cls:
                raise TypeError(f"expected {cls.__name__}, got {type(vector).__name__}")
            for key, coeff in vector._terms.items():
                _accumulate(data, key, coeff if scalar == 1 else coeff * scalar)
        return cls._wrap(data)

    def items(self) -> list:
        """The (key, coefficient) pairs, each coefficient a ``Fraction``."""
        return [(key, _public(coeff)) for key, coeff in self._terms.items()]

    @staticmethod
    def _sort_key(key):
        """What terms are ordered by, and the form of a key that ``to_text`` and ``json_terms`` print."""
        return key

    def sorted_items(self) -> list:
        order = self._sort_key
        return sorted(self.items(), key=lambda kv: order(kv[0]))

    def _printed(self) -> list:
        """(``_sort_key`` form, coefficient) pairs in key order, each form computed once."""
        order = self._sort_key
        return sorted(((order(key), coeff) for key, coeff in self.items()), key=itemgetter(0))

    def coefficient(self, key) -> Fraction:
        return _public(self._terms.get(key, 0))

    @property
    def support(self):
        return set(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            _accumulate(out, key, coeff)
        return self._wrap(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        c = _exact(scalar)
        return self._wrap({k: _exact(c * v) for k, v in self._terms.items()} if c else {})

    def _apply(self, action):
        """Linear extension of a basis-level map whose image keys are basis keys already.

        ``action(key)`` returns an iterable of (coefficient, key) pairs, empty
        for the zero vector.  No image key passes ``_check_key``; only
        operators whose images come from normalising primitives call this.
        """
        data: dict = {}
        for key, coeff in self._terms.items():
            for c, new_key in action(key):
                term = coeff if c == 1 else -coeff if c == -1 else coeff * c
                _accumulate(data, new_key, term)
        return self._wrap(data)

    def to_text(self, display, reverse: bool = False) -> str:
        """Signed sum in key order, e.g. ``(2) - 1/2*(1,1)``; unit coefficients are omitted.

        ``display`` maps the ``_sort_key`` form of a key to its text.
        """
        if not self._terms:
            return "0"
        items = self._printed()
        pieces = []
        for form, coeff in reversed(items) if reverse else items:
            mag = abs(coeff)
            term = display(form) if mag == 1 else f"{format_fraction(mag)}*{display(form)}"
            if not pieces:
                pieces.append(f"-{term}" if coeff < 0 else term)
            else:
                pieces.append(f" - {term}" if coeff < 0 else f" + {term}")
        return "".join(pieces)

    def json_terms(self, key_name: str, key_json) -> list[dict]:
        """Terms in key order as ``{key_name: key_json(form), "coefficient": "p/q"}``.

        ``form`` is the ``_sort_key`` of a key, as ``to_text`` hands it to ``display``.
        """
        return [
            {key_name: key_json(form), "coefficient": format_fraction(c)}
            for form, c in self._printed()
        ]

    def __repr__(self):
        if not self._terms:
            return f"{type(self).__name__}(0)"
        body = " + ".join(f"{c}*{k}" for k, c in self.sorted_items())
        return f"{type(self).__name__}({body})"
