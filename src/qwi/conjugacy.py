"""Constructive conjugacy: from two maps of one region shape, which is one
orbital pattern, to an exact conjugating automorphism.

A finite piecewise-linear conjugator rarely exists: near a fixed endpoint of
an orbital, any finitely-cut map is eventually a single affine germ, and
conjugation by it preserves the germ slope there.  Two one-bump maps with
different endpoint slopes therefore have no finitely-cut conjugator even
though their patterns agree.  The witnesses built here are still exact,
finitely presented automorphisms of ℚ: affine on fixed regions, and on each
orbital a finite stack of explicit affine windows together with two periodic
germ tails (the fundamental-domain transport h = gⁿ ∘ φ ∘ f⁻ⁿ, whose
breakpoints accumulate geometrically at the orbital ends).  Each window is
the one before it composed as g ∘ h ∘ f⁻¹ by `PLMap.compose`, with g and
f⁻¹ clipped to the intervals that the composite reads of them.

The inverse needs no code of its own: h⁻¹ = fⁿ ∘ φ⁻¹ ∘ g⁻ⁿ is the same
transport with f and g exchanged, so every segment inverts by swapping its
two sides and inverting its explicit pieces.

`verify_conjugator` trusts only the f and g it is given, never the
witness: it proves that h tiles ℚ, that the fixed regions are fixed, that
f and g are pure affine germs on each orbital's tails and equal to the
germs h stores there, and W∘F = G∘W for the window stack W as one map,
on the range that F maps into the windows, by `PLMap.compose` on F and G
clipped to what that range reads of them and equal clips of the two sides
to that range; germ purity carries the identity over the tails.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Union

from .numbers import NEG_INF, POS_INF, ExtRat, QInterval, Rat, is_finite, pick_fresh
from .plmap import PLMap

Affine = tuple[Fraction, Fraction]  # x ↦ m*x + c


def _ap(a: Affine, x: Fraction) -> Fraction:
    return a[0] * x + a[1]


def _ap_inv(a: Affine, y: Fraction) -> Fraction:
    return (y - a[1]) / a[0]


def _power(a: Affine, k: int) -> Affine:
    """a applied k times, as one affine map."""
    m, c = a
    if m == 1:
        return (m, k * c)
    mk = m ** k
    return (mk, c * (mk - 1) / (m - 1))


def _walk(germ: Affine, x: Fraction, edge: Fraction) -> tuple[int, Fraction]:
    """The fewest k steps of the increasing germ that carry x to or past
    `edge`, forward when x is below it and backward when above, and the
    point reached.  A translation's k has a closed form; any other germ
    moves geometrically, so its loop runs only logarithmically long.

    The walk ends only if the germ moves every point between x and `edge`
    up.  How far it moves y, (m − 1)·y + c, is affine in y, increasing when
    m > 1 and decreasing when m < 1, so it suffices that the germ moves up
    the lower of the two points when m > 1 and the upper when m < 1.
    Otherwise it moves x away from `edge` or has a fixed point c/(1 − m)
    between them, and ValueError is raised; so it is when a translation
    moves no point up (c ≤ 0)."""
    m, c = germ
    if m == 1:
        if c <= 0:
            raise ValueError(f"the translation by {c} moves no point up")
        k = math.ceil(abs(edge - x) / c)
        return k, x + k * c if x < edge else x - k * c
    y = min(x, edge) if m > 1 else max(x, edge)
    if _ap(germ, y) <= y:
        raise ValueError(f"the germ {m}x + {c} cannot carry {x} to {edge}")
    k = 0
    if x < edge:
        while x < edge:
            x, k = _ap(germ, x), k + 1
    else:
        while x > edge:
            x, k = _ap_inv(germ, x), k + 1
    return k, x


LocalPiece = tuple[Fraction, Fraction, Fraction, Fraction]  # lo, hi, m, c
_hi = itemgetter(1)


def _piece(pieces: list[LocalPiece], x: Fraction) -> LocalPiece:
    """The first piece whose closed domain [lo, hi] holds x.  The pieces of
    a stack are sorted and abut, so that is the first piece with hi ≥ x,
    found by bisection, provided its lo ≤ x."""
    i = bisect_left(pieces, x, key=_hi)
    if i < len(pieces) and pieces[i][0] <= x:
        return pieces[i]
    raise ValueError(f"{x} outside local window")


def _eval_local(pieces: list[LocalPiece], x: Fraction) -> Fraction:
    _, _, m, c = _piece(pieces, x)
    return m * x + c


def _inverse_pieces(pieces: list[LocalPiece]) -> list[LocalPiece]:
    """The inverse of a stack of pieces: each piece on its image, inverted."""
    return [(m * lo + c, m * hi + c, 1 / m, -c / m) for lo, hi, m, c in pieces]


class ConjugacyError(ValueError):
    pass


@dataclass
class FixedSeg:
    """h is affine on a maximal fixed region of f."""

    lo: ExtRat
    hi: ExtRat
    map: Affine

    def covers(self, q: Fraction) -> bool:
        return self.lo <= q <= self.hi

    def apply(self, q: Fraction) -> Fraction:
        return _ap(self.map, q)

    def inverse(self) -> "FixedSeg":
        """h⁻¹ on the image region [h(lo), h(hi)]."""
        m, c = self.map
        lo = self.apply(self.lo) if is_finite(self.lo) else self.lo
        hi = self.apply(self.hi) if is_finite(self.hi) else self.hi
        return FixedSeg(lo, hi, (1 / m, -c / m))


@dataclass
class OrbitalSeg:
    """h on one orbital (a,b) of f, mapped onto orbital (c,d) of g.

    F, G are f, g or their inverses so that both act upward on the orbital.
    Explicit affine windows cover [p0, F^(N+1) p0]; below p0 and above the
    top window h repeats periodically under the bottom/top germs.  Only the
    germs of F and G are stored: `verify_conjugator` reads F and G from the
    maps it is given.
    """

    a: ExtRat
    b: ExtRat
    c: ExtRat
    d: ExtRat
    p0: Fraction
    q0: Fraction
    windows: list[LocalPiece]       # pieces over [p0, F^(N+1) p0]
    top_lo: Fraction                # F^N p0: start of the top window
    alpha: Affine                   # bottom germ of F
    beta: Affine                    # bottom germ of G
    alpha_top: Affine               # top germ of F
    beta_top: Affine                # top germ of G

    def covers(self, q: Fraction) -> bool:
        return self.a < q < self.b

    def apply(self, q: Fraction) -> Fraction:
        lo, hi = self.windows[0][0], self.windows[-1][1]
        if q < lo:
            k, x = _walk(self.alpha, q, lo)
            return _ap_inv(_power(self.beta, k), _eval_local(self.windows, x))
        if q > hi:
            k, x = _walk(self.alpha_top, q, hi)
            return _ap(_power(self.beta_top, k), _eval_local(self.windows, x))
        return _eval_local(self.windows, q)

    def inverse(self) -> "OrbitalSeg":
        """h⁻¹ on the orbital (c,d) of g: the transport with the roles of
        f and g exchanged, its windows inverted piece by piece."""
        return OrbitalSeg(self.c, self.d, self.a, self.b, self.q0, self.p0,
                          _inverse_pieces(self.windows),
                          _eval_local(self.windows, self.top_lo),
                          self.beta, self.alpha, self.beta_top, self.alpha_top)


Segment = Union[FixedSeg, OrbitalSeg]


class Conjugator:
    """An exact order-automorphism of ℚ with h ∘ f ∘ h⁻¹ = g."""

    def __init__(self, segments: list[Segment]):
        self.segments = segments

    def apply(self, q: Fraction) -> Rat:
        if type(q) is not Rat:
            q = Rat(q)
        for seg in self.segments:
            if seg.covers(q):
                return seg.apply(q)
        raise ValueError(f"no segment covers {q}")

    __call__ = apply

    def inverse(self) -> "Conjugator":
        """h⁻¹, which conjugates g back to f."""
        return Conjugator([seg.inverse() for seg in self.segments])


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def conjugating_witness(f: PLMap, g: PLMap) -> Optional[Conjugator]:
    """An exact h with h∘f∘h⁻¹ = g, or None when the region shapes differ:
    each region's sign and, for a fixed region, whether it is one point.
    A conjugator keeps the shape, and for a `PLMap` equal shapes are equal
    orbital patterns, since the ends at ±∞ are the outermost and every
    other end is rational.

    The transport on an orbital builds one window per step of F until both
    sides reach the top germ, and raises ConjugacyError past `_MAX_WINDOWS`
    windows: a germ near the identity, say x ↦ x + 1/120000 on [0, 1],
    needs more than that many steps to cross the orbital."""
    regions_f, regions_g = f.regions(), g.regions()
    if [(s, lo == hi) for lo, hi, s in regions_f] != [(s, lo == hi) for lo, hi, s in regions_g]:
        return None
    # F, F⁻¹ and G act upward: f, f⁻¹, g on an up orbital, f⁻¹, f, g⁻¹ on a down one
    f_inv = f.inverse()
    up = (f, f_inv, g)
    down = (f_inv, f, g.inverse()) if any(s < 0 for _, _, s in regions_f) else None
    return Conjugator([
        _orbital_seg(*(up if sign > 0 else down), lo, hi, lo2, hi2) if sign
        else _fixed_seg(lo, hi, lo2, hi2)
        for (lo, hi, sign), (lo2, hi2, _) in zip(regions_f, regions_g)])


def _fixed_seg(lo, hi, lo2, hi2) -> FixedSeg:
    """h on a fixed region: [lo, hi] onto [lo2, hi2] affinely.  It is a
    translation, anchored at a finite end, unless both ends are finite and
    distinct (on the whole line f = g = id and h is the identity)."""
    bounded = is_finite(lo) and is_finite(hi) and lo < hi
    m = (hi2 - lo2) / (hi - lo) if bounded else Rat(1)
    x, y = (lo, lo2) if is_finite(lo) else (hi, hi2) if is_finite(hi) else (0, 0)
    return FixedSeg(lo, hi, (m, y - m * x))


def _cut_span(F: PLMap, a: ExtRat, b: ExtRat) -> tuple[Fraction, Fraction]:
    """The first and last cut of F inside (a, b), or one fresh point of
    (a, b) twice when F has no cut there."""
    inside = F.cuts_in(a, b) or (pick_fresh(QInterval(a, b)),)
    return inside[0], inside[-1]


#: The windows the transport on one orbital may build before it gives up.
_MAX_WINDOWS = 100000


def _orbital_seg(F: PLMap, F_inv: PLMap, G: PLMap, a, b, c, d) -> OrbitalSeg:
    t_f, s_f = _cut_span(F, a, b)
    t_g, s_g = _cut_span(G, c, d)
    # F is its bottom germ alpha on (a, t_f] and moves points up, so
    # F⁻¹(t_f) = alpha⁻¹(t_f); likewise for G
    alpha, beta = F.germ(a), G.germ(c)
    p0, q0 = _ap_inv(alpha, t_f), _ap_inv(beta, t_g)
    # explicit windows: transport φ upward until both sides sit in the top
    # germ.  w is h on the window [u0, u1 = F(u0)] onto [v0, v1 = G(v0)], and
    # the next window is G ∘ w ∘ F⁻¹ with G and F⁻¹ clipped to what it reads
    w = PLMap(p0, q0, (), ((t_g - q0) / (t_f - p0),))
    u0, u1, v0, v1 = p0, t_f, q0, t_g
    pieces: list[LocalPiece] = []
    for _ in range(_MAX_WINDOWS):
        ends = (u0, *w.cuts_in(u0, u1), u1)  # w's cuts all lie inside
        pieces += [(lo, hi, *w.germ(lo)) for lo, hi in zip(ends, ends[1:])]
        if u0 >= s_f and v0 >= s_g:
            return OrbitalSeg(a, b, c, d, p0, q0, _merge_local(pieces), u0,
                              alpha, beta, F.germ(s_f), G.germ(s_g))
        u2 = F.apply(u1)
        w = G.clip(v0, v1).compose(w).compose(F_inv.clip(u1, u2))
        u0, u1, v0, v1 = u1, u2, v1, G.apply(v1)
    raise ConjugacyError("orbital transport did not stabilize")


def _merge_local(pieces: list[LocalPiece]) -> list[LocalPiece]:
    out: list[LocalPiece] = []
    for lo, hi, m, c in pieces:
        if out and out[-1][2] == m and out[-1][3] == c and out[-1][1] == lo:
            out[-1] = (out[-1][0], hi, m, c)
        else:
            out.append((lo, hi, m, c))
    return out


# ---------------------------------------------------------------------------
# exact verification
# ---------------------------------------------------------------------------

def verify_conjugator(h: Conjugator, f: PLMap, g: PLMap) -> bool:
    """Exact proof that h is an order-automorphism of ℚ with h ∘ f = g ∘ h.

    Only f and g are trusted.  The segments of h are data to be checked,
    and the maps F, G that act upward on an orbital are f, g or their
    inverses (taken once, if f moves some orbital down), chosen by the
    direction f moves the orbital's p0.  Proved:

    - tiling: the segments alternate between fixed regions and orbitals
      and abut from -∞ to +∞, and so do their images;
    - fixed regions: f is the identity on each one and g on its image, so
      both sides reduce to h, which is increasing and affine there;
    - on each orbital (a, b), mapped onto (c, d): the windows are
      continuous and increasing from p0, and F moves p0 up and carries the
      top window's start top_lo to the windows' end;
    - germ purity and germ equality: every cut of F inside (a, b) lies in
      [p0, top_lo], and the pieces of F right of a and of top_lo are the
      stored germs alpha and alpha_top, which fix a finite end and at an
      infinite end keep moving points up; likewise for G on (c, d), with
      beta and beta_top, q0 = W(p0), W(top_lo) and W(end) in place of
      alpha and alpha_top, p0, top_lo and the windows' end;
    - W∘F = G∘W as maps on (p0, top_lo), W the window stack as one
      `PLMap`: F maps [p0, top_lo] into the windows, so there h∘F is W∘F
      and h is W.  Both sides are continuous, so the identity holds on the
      closed range [p0, top_lo].  The two sides compose
      F.clip(p0, top_lo) and G.clip(W(p0), W(top_lo)), which agree with F
      and G where W∘F and G∘W read them on (p0, top_lo): F at the points
      of (p0, top_lo) and G at their images under the increasing W.  The
      two sides are compared by equal clips to (p0, top_lo).

    The rest of the orbital needs no check of its own:

    1. anchor at top_lo: `_germ_side` on G's side checks that G carries
       W(top_lo) to W(end), end = F(top_lo) the windows' end, so
       W(F(top_lo)) = G(W(top_lo)) holds before the maps are compared.
       This covers a segment with top_lo = p0, whose open range is empty,
       and makes h continuous at the windows' end.
    2. below p0: on [α⁻¹(p0), p0) F is α and h is β⁻¹∘W∘α, so h∘F is W∘α
       and G∘h is G∘β⁻¹∘W∘α.  That is W∘α too as long as h(u) < q0, where
       G is β; and it is, since α(u) < F(p0) and W(F(p0)) = G(q0) = β(q0),
       which the comparison on (p0, top_lo) proves by continuity (the
       anchor, when top_lo = p0).  The same equation makes h continuous
       at p0.
    3. the tails: further down h is β⁻ᵏ∘W∘αᵏ; above top_lo F is α_top,
       G is β_top on h([top_lo, b)), and past the windows h is
       β_topᵏ∘W∘α_top⁻ᵏ.  So each step of a germ on the left is one step
       of its partner on the right, and the identity there is an instance
       of the germ recursion.  The verifier proves it for the h
       that the segment's data define; that `OrbitalSeg.apply` computes
       this h on the tails is left to the tests.

    h ∘ f⁻¹ = g⁻¹ ∘ h on an orbital is equivalent to h ∘ f = g ∘ h, so the
    identity is proved whichever way f moves it.
    """
    if not _tiles(h.segments):
        return False
    f_inv = g_inv = None
    for seg in h.segments:
        if isinstance(seg, FixedSeg):
            ok = _verify_fixed(seg, f, g)
        elif f.apply(seg.p0) > seg.p0:
            ok = _verify_orbital(seg, f, g)
        else:  # f moves the orbital down, so F and G are the inverses
            f_inv, g_inv = f_inv or f.inverse(), g_inv or g.inverse()
            ok = _verify_orbital(seg, f_inv, g_inv)
        if not ok:
            return False
    return True


def _tiles(segments: list[Segment]) -> bool:
    """Whether the segments alternate between fixed and orbital, with an
    increasing map on each fixed one, and both they and their images abut
    in order from -∞ to +∞."""
    ends: list[ExtRat] = [NEG_INF]
    images: list[ExtRat] = [NEG_INF]
    kind = None
    for seg in segments:
        if type(seg) is kind:
            return False
        kind = type(seg)
        if isinstance(seg, FixedSeg):
            if seg.map[0] <= 0:
                return False
            img = seg.inverse()
            ends += (seg.lo, seg.hi)
            images += (img.lo, img.hi)
        else:
            ends += (seg.a, seg.b)
            images += (seg.c, seg.d)
    return _abut(ends + [POS_INF]) and _abut(images + [POS_INF])


def _abut(pts: list[ExtRat]) -> bool:
    """pts = [-∞, lo₁, hi₁, …, loₙ, hiₙ, +∞]: each hi meets the next lo,
    and the points never decrease."""
    return (pts[::2] == pts[1::2]
            and all(x <= y for x, y in zip(pts, pts[1:])))


def _verify_fixed(seg: FixedSeg, f: PLMap, g: PLMap) -> bool:
    # f = id on [lo, hi] and g = id on the image, so h∘f = g∘h there; what
    # needs checking is that both really are fixed regions
    if not _fixes(f, seg.lo, seg.hi):
        return False
    img = seg.inverse()
    return _fixes(g, img.lo, img.hi)


def _fixes(f: PLMap, lo: ExtRat, hi: ExtRat) -> bool:
    """Whether f is the identity on [lo, hi], structurally: f fixes the one
    (finite) point, or f's clip to (lo, hi) equals the identity (equal
    clips), so f has no cut inside and its one piece there is x ↦ x."""
    if lo == hi:
        return is_finite(lo) and f.apply(lo) == lo
    return f.clip(lo, hi) == PLMap.identity()


def _verify_orbital(seg: OrbitalSeg, F: PLMap, G: PLMap) -> bool:
    # windows must be continuous and increasing
    prev = None
    for lo, hi, m, c in seg.windows:
        if m <= 0 or not lo < hi:
            return False
        if prev is not None and (prev[0] != lo or prev[1] != m * lo + c):
            return False
        prev = (hi, m * hi + c)
    # the window stack W as one map: G's side of the orbital is its image
    windows, p0, top_lo, end = seg.windows, seg.p0, seg.top_lo, seg.windows[-1][1]
    _, _, m0, c0 = windows[0]
    w0 = m0 * p0 + c0
    W = PLMap(p0, w0, [lo for lo, _, _, _ in windows[1:]], [m for _, _, m, _ in windows])
    w_top = W.apply(top_lo)
    if not (_germ_side(F, seg.a, seg.b, p0, windows[0][0], top_lo, end, seg.alpha, seg.alpha_top)
            and _germ_side(G, seg.c, seg.d, seg.q0, w0, w_top, W.apply(end),
                           seg.beta, seg.beta_top)):
        return False
    # the conjugation identity on [p0, top_lo], which F maps into the
    # windows: there h∘F is W∘F and h is W.  No point below p0 or past the
    # windows is read: germ purity carries the identity there (see
    # `verify_conjugator`).  A one-point range is the anchor's, not a clip's.
    return p0 == top_lo or (W.compose(F.clip(p0, top_lo)).clip(p0, top_lo)
                            == G.clip(w0, w_top).compose(W).clip(p0, top_lo))


def _germ_side(S: PLMap, a: ExtRat, b: ExtRat, p0: Fraction, lo: Fraction,
               top_lo: Fraction, hi: Fraction, alpha: Affine, alpha_top: Affine) -> bool:
    """The hypotheses of the germ recursion on one side of an orbital
    (a, b), read from S, the caller's map that should act upward there:
    the windows run from lo = p0 inside (a, b) past top_lo to hi, and S
    moves p0 up and carries top_lo to hi; every cut of S inside (a, b)
    lies in [p0, top_lo] and the pieces right of a and of top_lo are
    exactly alpha and alpha_top, so S is alpha on (a, p0] and alpha_top on
    [top_lo, b); alpha fixes a finite a, alpha_top a finite b, and at an
    infinite end the germ's slope keeps S above the identity, so S has no
    fixed point in the tails."""
    if not (a < p0 == lo <= top_lo < hi < b):
        return False
    if not (S.apply(p0) > p0 and S.apply(top_lo) == hi):
        return False
    cuts = S.cuts_in(a, b)
    if cuts and not (lo <= cuts[0] and cuts[-1] <= top_lo):
        return False
    if S.germ(a) != alpha or S.germ(top_lo) != alpha_top:
        return False
    bottom = _ap(alpha, a) == a if is_finite(a) else alpha[0] <= 1
    top = _ap(alpha_top, b) == b if is_finite(b) else alpha_top[0] >= 1
    return bottom and top
