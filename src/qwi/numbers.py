"""Exact rational arithmetic, extended endpoints, and open intervals.

Every rational the library builds is a `Rat`, so nothing is ever rounded.
`Rat` is a `fractions.Fraction` subclass that compares, hashes and prints
as Fraction; its operations with a `Rat`, a `Fraction` or an `int` run on
the numerator and denominator and build the result in `_rat`, which sets
Fraction's private `_numerator` and `_denominator` slots (in every CPython
from 3.10 on) without `Fraction.__new__`'s checks.  Other operands (the
infinities, floats) take the inherited method.  Rationals enter as `Rat`
through `parse_rational`, `spread`, `PLMap`, `Conjugator.apply` and the
`interp` encoders.  A support is the tuple of its open components, each
a `QInterval`, sorted and pairwise disjoint, as `PLMap.signed_support`
builds it with their signs.  `gaps_of` is the one walk over the open gaps
between sorted points, and `spread` the one rule that places fresh points
in a gap (`pick_fresh` is its one point), for maps and WMSO
configurations alike.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence, Union


def _rat(n: int, d: int) -> "Rat":
    """n/d in lowest terms with a positive denominator, built without
    `Fraction.__new__`: every `Rat` an operation returns is made here."""
    g = gcd(n, d)
    if d <= 0:
        if not d:
            raise ZeroDivisionError(f"Rat({n}, 0)")
        g = -g
    q = object.__new__(Rat)
    q._numerator, q._denominator = n // g, d // g
    return q


def _compare(op, fallback):
    def compare(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return op(a._numerator * b._denominator, b._numerator * a._denominator)
        if t is int:
            return op(a._numerator, b * a._denominator)
        return fallback(a, b)
    return compare


class Rat(Fraction):
    """An exact rational: a `Fraction` whose operations with a `Rat`, a
    `Fraction` or an `int` return a `Rat` by integer arithmetic."""

    __slots__ = ()
    __hash__ = Fraction.__hash__  # defining __eq__ would otherwise clear it

    def __add__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            da, db = a._denominator, b._denominator
            return _rat(a._numerator * db + b._numerator * da, da * db)
        if t is int:
            return _rat(a._numerator + b * a._denominator, a._denominator)
        return Fraction.__add__(a, b)

    __radd__ = __add__

    def __sub__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            da, db = a._denominator, b._denominator
            return _rat(a._numerator * db - b._numerator * da, da * db)
        if t is int:
            return _rat(a._numerator - b * a._denominator, a._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            da, db = a._denominator, b._denominator
            return _rat(b._numerator * da - a._numerator * db, da * db)
        if t is int:
            return _rat(b * a._denominator - a._numerator, a._denominator)
        return Fraction.__rsub__(a, b)

    def __mul__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return _rat(a._numerator * b._numerator, a._denominator * b._denominator)
        if t is int:
            return _rat(a._numerator * b, a._denominator)
        return Fraction.__mul__(a, b)

    __rmul__ = __mul__

    def __truediv__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return _rat(a._numerator * b._denominator, a._denominator * b._numerator)
        if t is int:
            return _rat(a._numerator, a._denominator * b)
        return Fraction.__truediv__(a, b)

    def __rtruediv__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return _rat(b._numerator * a._denominator, b._denominator * a._numerator)
        if t is int:
            return _rat(b * a._denominator, a._numerator)
        return Fraction.__rtruediv__(a, b)

    def __neg__(a):
        return _rat(-a._numerator, a._denominator)

    def __pow__(a, b):
        if type(b) is not int:
            return Fraction.__pow__(a, b)
        if b < 0:
            return _rat(a._denominator ** -b, a._numerator ** -b)
        return _rat(a._numerator ** b, a._denominator ** b)

    def __eq__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if t is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    __lt__ = _compare(operator.lt, Fraction.__lt__)
    __le__ = _compare(operator.le, Fraction.__le__)
    __gt__ = _compare(operator.gt, Fraction.__gt__)
    __ge__ = _compare(operator.ge, Fraction.__ge__)


class _Infinity:
    """Signed infinity, comparable with Fraction/int from either side, so
    that `sorted`, `min` and `max` order extended rationals with no key."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __lt__(self, other):
        if isinstance(other, _Infinity):
            return self.sign < other.sign
        return self.sign < 0

    def __gt__(self, other):
        if isinstance(other, _Infinity):
            return self.sign > other.sign
        return self.sign > 0

    def __le__(self, other):
        return self == other or self < other

    def __ge__(self, other):
        return self == other or self > other

    def __eq__(self, other):
        return isinstance(other, _Infinity) and self.sign == other.sign

    def __hash__(self):
        return hash(("inf", self.sign))

    def __repr__(self):
        return "inf" if self.sign > 0 else "-inf"


NEG_INF = _Infinity(-1)
POS_INF = _Infinity(+1)

#: A rational endpoint extended with the two infinities.
ExtRat = Union[Rat, _Infinity]


def is_finite(x: ExtRat) -> bool:
    return not isinstance(x, _Infinity)


_RATIONAL_RE = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rational(text: str) -> Rat:
    """Parse `p/q` or integer `p` syntax, with optional sign and surrounding
    whitespace.  Decimals and exponents are refused: an exponent would let
    a short token ask for an integer of any size."""
    m = _RATIONAL_RE.fullmatch(text)
    if not m:
        raise ValueError(f"bad rational literal {text!r}: expected p/q or an integer")
    num, den = m.groups()
    try:
        return _rat(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ValueError(f"bad rational literal {text!r}: zero denominator") from None


def format_ext(x: ExtRat) -> str:
    return repr(x) if isinstance(x, _Infinity) else str(x)


@dataclass(frozen=True)
class QInterval:
    """The open set (lo, hi) ∩ ℚ.  Empty iff not lo < hi."""

    lo: ExtRat
    hi: ExtRat

    def is_empty(self) -> bool:
        return not self.lo < self.hi

    def __repr__(self):
        return f"({format_ext(self.lo)},{format_ext(self.hi)})"


FULL_LINE = QInterval(NEG_INF, POS_INF)


def gaps_of(points: Sequence[Fraction]) -> list[QInterval]:
    """The open gaps that the sorted points cut the line into, left to
    right: one more than there are points."""
    ends = [NEG_INF, *points, POS_INF]
    return [QInterval(a, b) for a, b in zip(ends, ends[1:])]


def spread(gap: QInterval, k: int) -> list[Rat]:
    """k points of a nonempty open gap, increasing and evenly spaced, so
    that each has a numerator and denominator of O(log k) bits more than
    the gap's ends: lo + (hi − lo)·j/(k + 1) for j = 1..k in a bounded gap,
    else lo + j, hi − (k + 1 − j) or j − 1."""
    if gap.is_empty():
        raise ValueError(f"empty gap {gap}")
    lo, hi = gap.lo, gap.hi
    if is_finite(lo) and is_finite(hi):
        step = Rat(hi - lo) / (k + 1)
        return [lo + step * j for j in range(1, k + 1)]
    if is_finite(lo):
        return [Rat(lo) + j for j in range(1, k + 1)]
    if is_finite(hi):
        return [Rat(hi) - (k + 1 - j) for j in range(1, k + 1)]
    return [Rat(j) for j in range(k)]


def pick_fresh(gap: QInterval) -> Rat:
    """A deterministic rational strictly inside a nonempty open interval:
    the midpoint when bounded, lo+1 / hi-1 when half-bounded, 0 for the
    line."""
    return spread(gap, 1)[0]
