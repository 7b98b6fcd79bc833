"""Exact rational arithmetic, extended endpoints, and open-interval sets.

Everything downstream (maps, orbitals, predicates) is built on `Fraction`,
so equality is structural and nothing is ever rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union


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

    def __neg__(self):
        return NEG_INF if self.sign > 0 else POS_INF

    def __repr__(self):
        return "inf" if self.sign > 0 else "-inf"


NEG_INF = _Infinity(-1)
POS_INF = _Infinity(+1)

#: A rational endpoint extended with the two infinities.
ExtRat = Union[Fraction, _Infinity]


def is_finite(x: ExtRat) -> bool:
    return not isinstance(x, _Infinity)


def parse_rational(text: str) -> Fraction:
    """Parse `p/q` or integer `p` syntax."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}: {exc}") from None


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


class IntervalSet:
    """A finite union of disjoint open rational intervals, canonically sorted.

    Two open intervals sharing a rational endpoint are *not* merged: the
    shared point is absent from the union, so (0,1) ∪ (1,2) stays two items.
    """

    __slots__ = ("items",)

    def __init__(self, items: Sequence[QInterval] = ()):
        self.items: tuple[QInterval, ...] = _normalize(items)

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def __bool__(self):
        return bool(self.items)

    def __eq__(self, other):
        return isinstance(other, IntervalSet) and self.items == other.items

    def __hash__(self):
        return hash(self.items)

    def __repr__(self):
        return "{" + ", ".join(map(repr, self.items)) + "}"

    def contains(self, q: Fraction) -> bool:
        return any(iv.contains(q) for iv in self.items)

    def is_empty(self) -> bool:
        return not self.items

    def sup(self) -> ExtRat:
        """Supremum of the union; NEG_INF when empty."""
        return self.items[-1].hi if self.items else NEG_INF

    def inf(self) -> ExtRat:
        """Infimum of the union; POS_INF when empty."""
        return self.items[0].lo if self.items else POS_INF

    def intersects(self, other: "IntervalSet") -> bool:
        for a in self.items:
            for b in other.items:
                if a.lo < b.hi and b.lo < a.hi:
                    return True
        return False

    def is_subset_of(self, other: "IntervalSet") -> bool:
        """Point-set containment of the two open unions."""
        for a in self.items:
            if not any(b.lo <= a.lo and a.hi <= b.hi for b in other.items):
                # a might still be covered by several b-items, but the items
                # of an IntervalSet are separated by points outside the set,
                # so a single a-item can only fit inside a single b-item.
                return False
        return True

    def is_full_line(self) -> bool:
        return self.items == (FULL_LINE,)


def _normalize(raw: Iterable[QInterval]) -> tuple[QInterval, ...]:
    ivs = sorted((iv for iv in raw if not iv.is_empty()),
                 key=lambda iv: (iv.lo, iv.hi))
    out: list[QInterval] = []
    for iv in ivs:
        if out and iv.lo < out[-1].hi:
            if iv.hi > out[-1].hi:
                out[-1] = QInterval(out[-1].lo, iv.hi)
        else:
            out.append(iv)
    return tuple(out)

