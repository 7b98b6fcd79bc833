"""Exact rational arithmetic, extended endpoints, and open intervals.

Everything downstream (maps, orbitals, predicates) is built on `Fraction`,
so equality is structural and nothing is ever rounded.  A support is the
tuple of its open components, sorted and pairwise disjoint, as
`PLMap.support` builds it.  `gaps_of` is the one walk over the open gaps
between sorted points, for maps and WMSO configurations alike.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union


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
ExtRat = Union[Fraction, _Infinity]


def is_finite(x: ExtRat) -> bool:
    return not isinstance(x, _Infinity)


_RATIONAL_RE = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rational(text: str) -> Fraction:
    """Parse `p/q` or integer `p` syntax, with optional sign and surrounding
    whitespace.  Decimals and exponents are refused: an exponent would let
    a short token ask for an integer of any size."""
    m = _RATIONAL_RE.fullmatch(text)
    if not m:
        raise ValueError(f"bad rational literal {text!r}: expected p/q or an integer")
    num, den = m.groups()
    try:
        return Fraction(int(num), int(den or 1))
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

    def contains(self, q: Fraction) -> bool:
        return self.lo < q < self.hi

    def __repr__(self):
        return f"({format_ext(self.lo)},{format_ext(self.hi)})"


FULL_LINE = QInterval(NEG_INF, POS_INF)


def gaps_of(points: Sequence[Fraction], lo: ExtRat = NEG_INF,
            hi: ExtRat = POS_INF) -> list[QInterval]:
    """The open gaps that the sorted points, all strictly between lo and
    hi, cut (lo, hi) into, left to right: one more than there are points."""
    ends = [lo, *points, hi]
    return [QInterval(a, b) for a, b in zip(ends, ends[1:])]


def pick_fresh(gap: QInterval) -> Fraction:
    """A deterministic rational strictly inside a nonempty open interval.

    Midpoint when bounded, lo+1 / hi-1 when half-bounded, 0 for the line.
    """
    if gap.is_empty():
        raise ValueError(f"empty gap {gap}")
    lo, hi = gap.lo, gap.hi
    if is_finite(lo) and is_finite(hi):
        return (lo + hi) / 2
    if is_finite(lo):
        return lo + 1
    if is_finite(hi):
        return hi - 1
    return Fraction(0)
