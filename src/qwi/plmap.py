"""Piecewise-linear order-automorphisms of (ℚ,<) with exact group operations.

A map is a finite list of affine pieces with positive rational slopes,
continuous at every breakpoint.  Positivity plus continuity make every such
map an order-preserving bijection of ℚ, so structural equality of canonical
forms is group-element equality.

Only this module reads the storage, `cuts` and one (slope, intercept)
piece per gap; other modules read a map through `apply`, `germ`, `cuts_in`
and `regions`, so a change of storage stays inside this file.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Sequence

from .numbers import (
    NEG_INF,
    POS_INF,
    ExtRat,
    QInterval,
    gaps_of,
    parse_rational,
    pick_fresh,
)

Piece = tuple[Fraction, Fraction]  # (slope, intercept)


class PLMapError(ValueError):
    pass


class PLMap:
    """An order-automorphism of ℚ given by `len(cuts)+1` affine pieces."""

    __slots__ = ("cuts", "pieces", "image_cuts", "_regions", "_signed", "_support",
                 "_hash")

    def __init__(self, cuts: Sequence[Fraction], pieces: Sequence[Piece]):
        cuts = tuple(c if type(c) is Fraction else Fraction(c) for c in cuts)
        pieces = tuple(
            (m if type(m) is Fraction else Fraction(m),
             c if type(c) is Fraction else Fraction(c))
            for m, c in pieces
        )
        if len(pieces) != len(cuts) + 1:
            raise PLMapError(
                f"{len(cuts)} cuts need {len(cuts) + 1} pieces, got {len(pieces)}"
            )
        for a, b in zip(cuts, cuts[1:]):
            if not a < b:
                raise PLMapError(f"cuts not strictly increasing at {a}, {b}")
        for m, _ in pieces:
            if m <= 0:
                raise PLMapError(f"non-positive slope {m} (not order-preserving)")
        images: list[Fraction] = []
        for i, b in enumerate(cuts):
            ml, cl = pieces[i]
            mr, cr = pieces[i + 1]
            y = ml * b + cl
            if y != mr * b + cr:
                raise PLMapError(f"discontinuous at cut {b}")
            images.append(y)
        # canonical form: merge equal adjacent pieces
        ccuts: list[Fraction] = []
        cimages: list[Fraction] = []
        cpieces: list[Piece] = [pieces[0]]
        for b, y, p in zip(cuts, images, pieces[1:]):
            if p == cpieces[-1]:
                continue
            ccuts.append(b)
            cimages.append(y)
            cpieces.append(p)
        self.cuts = tuple(ccuts)
        self.pieces = tuple(cpieces)
        #: the images f(b) of the cuts, kept from the continuity check
        self.image_cuts = tuple(cimages)
        self._regions: tuple[tuple[ExtRat, ExtRat, int], ...] | None = None
        self._signed: tuple[tuple[QInterval, int], ...] | None = None
        self._support: tuple[QInterval, ...] | None = None
        self._hash: int | None = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def identity() -> "PLMap":
        return PLMap((), ((Fraction(1), Fraction(0)),))

    @staticmethod
    def translation(a) -> "PLMap":
        return PLMap((), ((Fraction(1), Fraction(a)),))

    @staticmethod
    def from_slopes(anchor: Fraction, value: Fraction,
                    cuts: Sequence[Fraction], slopes: Sequence[Fraction]) -> "PLMap":
        """Build a continuous map from slopes only: passes through
        (anchor, value), with `anchor <= cuts[0]` if any cuts are given."""
        cuts = [Fraction(c) for c in cuts]
        slopes = [Fraction(s) for s in slopes]
        if len(slopes) != len(cuts) + 1:
            raise PLMapError("need one more slope than cuts")
        pieces = [(slopes[0], value - slopes[0] * anchor)]
        for b, m in zip(cuts, slopes[1:]):
            mprev, cprev = pieces[-1]
            y = mprev * b + cprev
            pieces.append((m, y - m * b))
        return PLMap(cuts, pieces)

    # -- basic queries -----------------------------------------------------

    def is_identity(self) -> bool:
        return self.pieces == ((Fraction(1), Fraction(0)),)

    def germ(self, x: ExtRat) -> Piece:
        """The affine piece in force just right of x; x may be ±∞."""
        return self.pieces[bisect_right(self.cuts, x)]

    def cuts_in(self, lo: ExtRat, hi: ExtRat) -> tuple[Fraction, ...]:
        """The cuts strictly between lo and hi, left to right."""
        cuts = self.cuts
        return cuts[bisect_right(cuts, lo):bisect_left(cuts, hi)]

    def apply(self, q: Fraction) -> Fraction:
        if type(q) is not Fraction:
            q = Fraction(q)
        m, c = self.germ(q)
        return m * q + c

    __call__ = apply

    def apply_inverse(self, q: Fraction) -> Fraction:
        if type(q) is not Fraction:
            q = Fraction(q)
        i = bisect_right(self.image_cuts, q)
        m, c = self.pieces[i]
        return (q - c) / m

    def agrees_on(self, other: "PLMap", iv: QInterval) -> bool:
        """Exact equality of self and other on the open interval `iv`: the
        cuts of both maps inside `iv` split it into stretches on which each
        map is one affine piece, and the two pieces are compared there."""
        if iv.is_empty():
            return True
        bpts = sorted({*self.cuts_in(iv.lo, iv.hi), *other.cuts_in(iv.lo, iv.hi)})
        for gap in gaps_of(bpts, iv.lo, iv.hi):
            x = pick_fresh(gap)
            if self.germ(x) != other.germ(x):
                return False
        return True

    # -- group operations --------------------------------------------------

    def compose(self, other: "PLMap") -> "PLMap":
        """self ∘ other, i.e. x ↦ self(other(x)), by one merge in O(k_f + k_g).

        With f = self and g = other, walk the cuts b of g, in the order of
        their images g(b), together with the cuts y of f.  A cut of g stays
        as it is; a cut y of f becomes g⁻¹(y) = (y − c_g)/m_g on the current
        piece (m_g, c_g) of g; where g(b) == y the two are one cut.  Between
        cuts the piece is (m_f·m_g, m_f·c_g + c_f).
        """
        gcuts, gimages, gpieces = other.cuts, other.image_cuts, other.pieces
        fcuts, fpieces = self.cuts, self.pieces
        ng, nf = len(gcuts), len(fcuts)
        i = j = 0
        cuts: list[Fraction] = []
        pieces: list[Piece] = []
        while True:
            mg, cg = gpieces[i]
            mf, cf = fpieces[j]
            pieces.append((mf * mg, mf * cg + cf))
            if i < ng and (j == nf or gimages[i] <= fcuts[j]):
                if j < nf and gimages[i] == fcuts[j]:
                    j += 1
                cuts.append(gcuts[i])
                i += 1
            elif j < nf:
                cuts.append((fcuts[j] - cg) / mg)
                j += 1
            else:
                return PLMap(cuts, pieces)

    def inverse(self) -> "PLMap":
        return PLMap(self.image_cuts, [(1 / m, -c / m) for m, c in self.pieces])

    def conjugate_by(self, g: "PLMap") -> "PLMap":
        """g ∘ self ∘ g⁻¹."""
        return g.compose(self).compose(g.inverse())

    def __pow__(self, n: int) -> "PLMap":
        """Square and multiply: for n > 0, bit_length(n) - 1 squarings and
        popcount(n) - 1 further products (f ** 1 composes nothing)."""
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return PLMap.identity()
        out: PLMap | None = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out.compose(base)
            n >>= 1
            if not n:
                return out
            base = base.compose(base)

    # -- fixed points and support ------------------------------------------

    def fixed_items(self) -> list[tuple[ExtRat, ExtRat]]:
        """All maximal closed fixed regions [lo, hi] (lo == hi for an
        isolated fixed point), left to right."""
        return [(lo, hi) for lo, hi, sign in self.regions() if not sign]

    def regions(self) -> tuple[tuple[ExtRat, ExtRat, int], ...]:
        """The line cut into fixed regions and orbitals, left to right, as
        abutting (lo, hi, sign) triples from -∞ to +∞.

        Sign 0 marks a maximal fixed region [lo, hi], closed, with lo == hi
        for an isolated fixed point.  Sign ±1 marks an orbital (lo, hi),
        open, between two fixed neighbours: the sign of f(x) - x on it.
        The walk runs once per map; later calls return the same tuple.
        """
        if self._regions is not None:
            return self._regions
        fixed: list[tuple[ExtRat, ExtRat]] = []
        for (m, c), gap in zip(self.pieces, gaps_of(self.cuts)):
            lo, hi = gap.lo, gap.hi
            if m == 1:
                if c != 0:
                    continue
            else:
                x = c / (1 - m)
                if not lo <= x <= hi:
                    continue
                lo = hi = x
            if fixed and lo <= fixed[-1][1]:
                fixed[-1] = (fixed[-1][0], max(fixed[-1][1], hi))
            else:
                fixed.append((lo, hi))
        out: list[tuple[ExtRat, ExtRat, int]] = []
        prev: ExtRat = NEG_INF
        for lo, hi in fixed + [(POS_INF, None)]:
            if prev < lo:
                x = pick_fresh(QInterval(prev, lo))
                d = self.apply(x) - x
                if d == 0:
                    raise PLMapError(f"fixed point {x} inside the orbital ({prev}, {lo})")
                out.append((prev, lo, 1 if d > 0 else -1))
            out.append((lo, hi, 0))
            prev = hi
        out.pop()  # the (POS_INF, None) sentinel
        self._regions = tuple(out)
        return self._regions

    def support(self) -> tuple[QInterval, ...]:
        """{x : f(x) != x} as its open components, left to right, built once
        per map.  The components are disjoint; two of them share an endpoint
        only where an isolated fixed point separates them."""
        if self._support is None:
            self._support = tuple(iv for iv, _ in self.signed_support())
        return self._support

    def signed_support(self) -> tuple[tuple[QInterval, int], ...]:
        """Open components of {x : f(x) != x}, left to right, each with its
        displacement sign; built once per map from its regions."""
        if self._signed is None:
            self._signed = tuple((QInterval(lo, hi), sign)
                                 for lo, hi, sign in self.regions() if sign)
        return self._signed

    # -- text format -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, PLMap)
            and self.cuts == other.cuts
            and self.pieces == other.pieces
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.cuts, self.pieces))
        return self._hash

    def __repr__(self):
        return format_pl(self)


# -- text format -----------------------------------------------------------

_PL_RE = re.compile(r"^pl\s+cuts=\[(?P<cuts>[^\]]*)\]\s+pieces=\[(?P<pieces>.*)\]\s*$")
_PAIR = r"\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*\)"
_PAIR_RE = re.compile(_PAIR)
#: the whole pieces list: pairs separated by commas and nothing else
_PIECES_RE = re.compile(rf"\s*{_PAIR}(?:\s*,\s*{_PAIR})*\s*")


def format_pl(f: PLMap) -> str:
    if f.is_identity():
        return "pl id"
    cuts = ",".join(str(c) for c in f.cuts)
    pieces = ",".join(f"({m},{c})" for m, c in f.pieces)
    return f"pl cuts=[{cuts}] pieces=[{pieces}]"


def parse_pl(text: str) -> PLMap:
    """Parse the one-line `pl ...` syntax, rejecting non-canonical input."""
    t = text.strip()
    if t == "pl id":
        return PLMap.identity()
    m = _PL_RE.match(t)
    if not m:
        raise PLMapError(f"unparseable pl map: {text!r}")
    cuts_txt = m.group("cuts").strip()
    cuts = [parse_rational(c) for c in cuts_txt.split(",")] if cuts_txt else []
    pieces_txt = m.group("pieces")
    if not _PIECES_RE.fullmatch(pieces_txt):
        raise PLMapError(f"pieces must be (m,c) pairs separated by commas: {text!r}")
    pieces = [(parse_rational(a), parse_rational(b))
              for a, b in _PAIR_RE.findall(pieces_txt)]
    for p, q in zip(pieces, pieces[1:]):
        if p == q:
            raise PLMapError(f"non-canonical input (adjacent identical pieces {p})")
    return PLMap(cuts, pieces)
