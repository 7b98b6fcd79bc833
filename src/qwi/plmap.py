"""Piecewise-linear order-automorphisms of (ℚ,<) with exact group operations.

A map is stored in breakpoint form (Brin and Squier 1985; Cannon, Floyd
and Parry 1996): its cuts xᵢ, their images yᵢ, one positive slope per gap
and `c0`, the intercept of the first piece (a map with no cuts has no
breakpoint to anchor it).  No two adjacent slopes are equal, so the
storage is canonical and structural equality is group-element equality.
Caller input goes through the one checked constructor, `PLMap(anchor,
value, cuts, slopes)`: it refuses non-increasing cuts, non-positive slopes
and a wrong slope count, walks the images from an anchor point and merges
equal adjacent slopes.  `compose`, `inverse`, `restrict` and `clip` write
their result's storage unchecked.  It is continuous and canonical by
construction: each image is read off the operands, each walk emits its
cuts in increasing order and drops a cut between equal slopes, and every
slope is a product or a reciprocal of positive slopes or one of the map's
own; a restriction adds fixed cuts beside which the map moves points, so
its slope there is not 1, and a clip keeps one slice of the storage.
`regions` reads the displacement yᵢ - xᵢ at the cuts, and `germ` one
(slope, intercept) piece, its intercept from the cut at its left end and
that cut's image, or `c0` for the first piece.  The text format prints
the pieces, and `parse_pl` alone reads them.

Only this module reads the storage, so a change of storage stays inside
this file.  What other modules read of a map is listed here and nowhere
else.  `predicates`, `patterns` and `interp` read `identity`,
`translation`, the group operations (`compose`, `inverse`, `conjugate_by`),
`restrict`, equality and hashing, `apply`, `support`, `signed_support`,
`fixed_items` and `regions`.  `conjugacy` also reads `germ`, `cuts_in` and
`clip`.
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
    Rat,
    parse_rational,
)

Piece = tuple[Rat, Rat]  # (slope, intercept)
_ONE = Rat(1)


class PLMapError(ValueError):
    pass


def _sign(d: Rat) -> int:
    n = d.numerator  # a Fraction's denominator is positive
    return (n > 0) - (n < 0)


def _rats(xs) -> list[Rat]:
    return [x if type(x) is Rat else Rat(x) for x in xs]


class PLMap:
    """An order-automorphism of ℚ in breakpoint form: `len(cuts)` cuts and
    their images, `len(cuts)+1` slopes and the first piece's intercept."""

    __slots__ = ("cuts", "image_cuts", "slopes", "c0", "_regions", "_signed",
                 "_support", "_hash")

    # -- construction ------------------------------------------------------

    def __init__(self, anchor: Fraction, value: Fraction,
                 cuts: Sequence[Fraction], slopes: Sequence[Fraction]):
        """The map with these cuts and one slope per gap whose first piece's
        line passes through (anchor, value).  Refuses non-increasing cuts,
        non-positive slopes and a wrong slope count."""
        cuts, slopes = _rats(cuts), _rats(slopes)
        if len(slopes) != len(cuts) + 1:
            raise PLMapError(
                f"{len(cuts)} cuts need {len(cuts) + 1} slopes, got {len(slopes)}")
        for a, b in zip(cuts, cuts[1:]):
            if not a < b:
                raise PLMapError(f"cuts not strictly increasing at {a}, {b}")
        for m in slopes:
            if m.numerator <= 0:
                raise PLMapError(f"non-positive slope {m} (not order-preserving)")
        m = slopes[0]
        c0 = value - m * anchor if anchor else value
        if type(c0) is not Rat:
            c0 = Rat(c0)
        # canonical form: a cut between equal slopes is no cut; each kept
        # cut's image is walked from the previous one
        xs: list[Rat] = []
        ys: list[Rat] = []
        ms = [m]
        for b, m in zip(cuts, slopes[1:]):
            if m == ms[-1]:
                continue
            ys.append(ys[-1] + ms[-1] * (b - xs[-1]) if xs else ms[0] * b + c0)
            xs.append(b)
            ms.append(m)
        self._store(tuple(xs), tuple(ys), tuple(ms), c0)

    def _store(self, cuts: tuple[Rat, ...], image_cuts: tuple[Rat, ...],
               slopes: tuple[Rat, ...], c0: Rat) -> "PLMap":
        """Assign the storage as given, with no check: the caller makes every
        value a `Rat`, the cuts increasing, the slopes positive with no two
        adjacent equal, and each image the value at its cut of the pieces
        that `c0` and the slopes fix.  Returns self."""
        self.cuts = cuts
        #: the images f(xᵢ) of the cuts
        self.image_cuts = image_cuts
        self.slopes = slopes
        #: the intercept of the first piece: its line meets x = 0 at c0
        self.c0 = c0
        self._regions: tuple[tuple[ExtRat, ExtRat, int], ...] | None = None
        self._signed: tuple[tuple[QInterval, int], ...] | None = None
        self._support: tuple[QInterval, ...] | None = None
        self._hash: int | None = None
        return self

    @staticmethod
    def identity() -> "PLMap":
        return PLMap(0, 0, (), (1,))

    @staticmethod
    def translation(a) -> "PLMap":
        return PLMap(0, a, (), (1,))

    # -- basic queries -----------------------------------------------------

    def is_identity(self) -> bool:
        return not self.cuts and self.slopes[0] == 1 and not self.c0

    def germ(self, x: ExtRat) -> Piece:
        """The affine piece in force just right of x; x may be ±∞."""
        i = bisect_right(self.cuts, x)
        return self.slopes[i], self._intercept(i)

    def cuts_in(self, lo: ExtRat, hi: ExtRat) -> tuple[Rat, ...]:
        """The cuts strictly between lo and hi, left to right."""
        cuts = self.cuts
        return cuts[bisect_right(cuts, lo):bisect_left(cuts, hi)]

    def apply(self, q: Fraction) -> Rat:
        if type(q) is not Rat:
            q = Rat(q)
        m, c = self.germ(q)
        return m * q + c

    __call__ = apply

    def apply_inverse(self, q: Fraction) -> Rat:
        if type(q) is not Rat:
            q = Rat(q)
        i = bisect_right(self.image_cuts, q)
        return (q - self._intercept(i)) / self.slopes[i]

    def _intercept(self, i: int) -> Rat:
        """Where the line of piece i meets x = 0."""
        return self.image_cuts[i - 1] - self.slopes[i] * self.cuts[i - 1] if i else self.c0

    def clip(self, lo: ExtRat, hi: ExtRat) -> "PLMap":
        """Self on [lo, hi], its end pieces extended: a slice of the storage,
        so canonical, and two maps are equal on a nonempty (lo, hi) exactly
        when their clips are.  Where hi ≤ lo it is the piece right of lo."""
        i = bisect_right(self.cuts, lo)
        j = bisect_left(self.cuts, hi, i)
        return PLMap.__new__(PLMap)._store(self.cuts[i:j], self.image_cuts[i:j],
                                           self.slopes[i:j + 1], self._intercept(i))

    # -- group operations --------------------------------------------------

    def compose(self, other: "PLMap") -> "PLMap":
        """self ∘ other, i.e. x ↦ self(other(x)), by one merge in O(k_f + k_g).

        With f = self and g = other, walk the cuts b of g, in the order of
        their images g(b), together with the cuts y of f.  A cut of g stays,
        with image f(g(b)) on f's piece at g(b); a cut y of f becomes
        g⁻¹(y) = xᵢ + (y − yᵢ)/m_g from the last cut (xᵢ, yᵢ) of g before
        it, with f's own image of y; where g(b) == y the two are one cut.
        Between cuts the slope is m_f·m_g, and a cut between equal slopes is
        dropped as the walk meets it, so the result is canonical as built.
        """
        gcuts, gimages, gslopes = other.cuts, other.image_cuts, other.slopes
        fcuts, fimages, fslopes = self.cuts, self.image_cuts, self.slopes
        ng, nf = len(gcuts), len(fcuts)
        i = j = 0
        cuts: list[Rat] = []
        images: list[Rat] = []
        slopes: list[Rat] = []
        while True:
            m = fslopes[j] * gslopes[i]
            if slopes and m == slopes[-1]:  # the last cut is no cut
                cuts.pop()
                images.pop()
            else:
                slopes.append(m)
            if i < ng and (j == nf or gimages[i] <= fcuts[j]):
                y = gimages[i]
                if j < nf and y == fcuts[j]:
                    y = fimages[j]
                    j += 1
                elif j:
                    y = fimages[j - 1] + fslopes[j] * (y - fcuts[j - 1])
                else:
                    y = fslopes[0] * y + self.c0
                cuts.append(gcuts[i])
                images.append(y)
                i += 1
            elif j < nf:
                y = fcuts[j]
                cuts.append(gcuts[i - 1] + (y - gimages[i - 1]) / gslopes[i] if i
                            else (y - other.c0) / gslopes[0])
                images.append(fimages[j])
                j += 1
            else:
                return PLMap.__new__(PLMap)._store(
                    tuple(cuts), tuple(images), tuple(slopes),
                    fslopes[0] * other.c0 + self.c0)

    def inverse(self) -> "PLMap":
        """The cuts and images swap and each slope m becomes 1/m, so adjacent
        slopes stay distinct; the first piece's line passes through (0, c0),
        so its inverse's meets x = 0 at -c0/m₀."""
        return PLMap.__new__(PLMap)._store(
            self.image_cuts, self.cuts, tuple(1 / m for m in self.slopes),
            -self.c0 / self.slopes[0])

    def conjugate_by(self, g: "PLMap") -> "PLMap":
        """g ∘ self ∘ g⁻¹."""
        return g.compose(self).compose(g.inverse())

    def restrict(self, comps: Sequence[QInterval]) -> "PLMap":
        """Self on the given support components of self (any order, repeats
        allowed) and the identity elsewhere, in one walk: the components'
        finite ends become fixed cuts.  Refuses any other interval, as an
        end that self moves would break the map there."""
        support = self.support()
        for iv in comps:
            if iv not in support:
                raise PLMapError(f"{iv} is not a support component of the map")
        xs, ys, ms = self.cuts, self.image_cuts, self.slopes
        cuts, images, slopes, c0 = [], [], [_ONE], Rat(0)
        for lo, hi in ((iv.lo, iv.hi) for iv in support if iv in comps):
            i, j = bisect_right(xs, lo), bisect_left(xs, hi)
            if cuts and cuts[-1] == lo:  # the last kept component's hi
                del cuts[-1], images[-1], slopes[-1]
            if lo is NEG_INF:
                slopes[0], c0 = ms[0], self.c0
            elif ms[i] != slopes[-1]:  # else lo lies inside one piece of self
                cuts.append(lo)
                images.append(lo)
                slopes.append(ms[i])
            cuts += xs[i:j]
            images += ys[i:j]
            slopes += ms[i + 1:j + 1]
            if hi is not POS_INF:
                cuts.append(hi)
                images.append(hi)
                slopes.append(_ONE)
        return PLMap.__new__(PLMap)._store(
            tuple(cuts), tuple(images), tuple(slopes), c0)

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

        The displacement d(x) = f(x) - x is affine on each gap, so its signs
        at -∞, at each cut (yᵢ - xᵢ) and at +∞ fix the regions: a gap with
        d = 0 at both ends is fixed, and a gap whose ends have opposite
        signs holds one fixed point.  The walk runs once per map; later
        calls return the same tuple.
        """
        if self._regions is not None:
            return self._regions
        xs, ms, c0 = self.cuts, self.slopes, self.c0
        ds = [y - x for x, y in zip(xs, self.image_cuts)]
        # on the first piece d(x) = c0 + (m - 1)x; on the last one d grows
        # from the last cut with slope m - 1
        m = ms[0]
        signs = [_sign(1 - m) if m != 1 else _sign(c0), *map(_sign, ds)]
        m = ms[-1]
        signs.append(_sign(m - 1) if m != 1 else _sign(ds[-1] if ds else c0))
        ends = (NEG_INF, *xs, POS_INF)
        out: list[tuple[ExtRat, ExtRat, int]] = []
        lo, sign = NEG_INF, signs[0]  # the region being walked
        for k in range(1, len(ends)):
            s = signs[k]
            if s and sign and s != sign:  # d changes sign inside the gap
                z = (xs[k - 2] + ds[k - 2] / (1 - ms[k - 1]) if k > 1
                     else c0 / (1 - ms[0]))
                out += [(lo, z, sign), (z, z, 0)]
                lo, sign = z, s
            elif s != sign:
                # an orbital ends at a fixed cut, or a fixed region at the
                # cut before a moved one
                end = ends[k] if sign else ends[k - 1]
                out.append((lo, end, sign))
                lo, sign = end, s
        out.append((lo, POS_INF, sign))
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

    # -- equality: the canonical (c0, cuts, slopes) determines the map -----

    def __eq__(self, other):
        return (
            isinstance(other, PLMap)
            and self.c0 == other.c0
            and self.cuts == other.cuts
            and self.slopes == other.slopes
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.c0, self.cuts, self.slopes))
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
    pieces = ",".join(f"({m},{c})" for m, c in map(f.germ, (NEG_INF, *f.cuts)))
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
            raise PLMapError(f"non-canonical input (adjacent identical pieces ({p[0]},{p[1]}))")
    if len(pieces) != len(cuts) + 1:
        raise PLMapError(f"{len(cuts)} cuts need {len(cuts) + 1} pieces, got {len(pieces)}")
    f = PLMap(0, pieces[0][1], cuts, [m for m, _ in pieces])
    for b, (ml, cl), (mr, cr) in zip(cuts, pieces, pieces[1:]):
        if ml * b + cl != mr * b + cr:
            raise PLMapError(f"discontinuous at cut {b}")
    return f
