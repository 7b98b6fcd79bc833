"""Constructive conjugacy: from isomorphic orbital patterns to an exact
conjugating automorphism.

A finite piecewise-linear conjugator rarely exists: near a fixed endpoint of
an orbital, any finitely-cut map is eventually a single affine germ, and
conjugation by it preserves the germ slope there.  Two one-bump maps with
different endpoint slopes therefore have no finitely-cut conjugator even
though their patterns agree.  The witnesses built here are still exact,
finitely presented automorphisms of ℚ: affine on fixed regions, and on each
orbital a finite stack of explicit affine windows together with two periodic
germ tails (the fundamental-domain transport h = gⁿ ∘ φ ∘ f⁻ⁿ, whose
breakpoints accumulate geometrically at the orbital ends).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .numbers import NEG_INF, POS_INF, ExtRat, QInterval, is_finite, pick_fresh
from .plmap import PLMap
from .patterns import pattern_iso, pattern_of

Affine = tuple[Fraction, Fraction]  # x ↦ m*x + c


def _ap(a: Affine, x: Fraction) -> Fraction:
    return a[0] * x + a[1]


def _ap_inv(a: Affine, y: Fraction) -> Fraction:
    return (y - a[1]) / a[0]


LocalPiece = tuple[Fraction, Fraction, Fraction, Fraction]  # lo, hi, m, c


def _eval_local(pieces: list[LocalPiece], x: Fraction) -> Fraction:
    for lo, hi, m, c in pieces:
        if lo <= x <= hi:
            return m * x + c
    raise ValueError(f"{x} outside local window")


def _invert_local(pieces: list[LocalPiece], y: Fraction) -> Fraction:
    for lo, hi, m, c in pieces:
        if m * lo + c <= y <= m * hi + c:
            return (y - c) / m
    raise ValueError(f"{y} outside local window image")


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


@dataclass
class OrbitalSeg:
    """h on one orbital (a,b) of f, mapped onto orbital (c,d) of g.

    F, G are f, g or their inverses so that both act upward on the orbital.
    Explicit affine windows cover [p0, F^(N+1) p0]; below p0 and above the
    top window h repeats periodically under the bottom/top germs.
    """

    a: ExtRat
    b: ExtRat
    c: ExtRat
    d: ExtRat
    F: PLMap
    G: PLMap
    p0: Fraction
    q0: Fraction
    windows: list[LocalPiece]       # pieces over [p0, F^(N+1) p0]
    win_lo: Fraction
    win_hi: Fraction
    top_lo: Fraction                # F^N p0: start of the top window
    alpha: Affine                   # bottom germ of F
    beta: Affine                    # bottom germ of G
    alpha_top: Affine               # top germ of F
    beta_top: Affine                # top germ of G

    def covers(self, q: Fraction) -> bool:
        return self.a < q < self.b

    def apply(self, q: Fraction) -> Fraction:
        if q < self.win_lo:
            k = 0
            x = q
            while x < self.win_lo:
                x = _ap(self.alpha, x)
                k += 1
            y = _eval_local(self.windows, x)
            for _ in range(k):
                y = _ap_inv(self.beta, y)
            return y
        if q > self.win_hi:
            k = 0
            x = q
            while x > self.win_hi:
                x = _ap_inv(self.alpha_top, x)
                k += 1
            y = _eval_local(self.windows, x)
            for _ in range(k):
                y = _ap(self.beta_top, y)
            return y
        return _eval_local(self.windows, q)

    def apply_inverse(self, v: Fraction) -> Fraction:
        vlo = _eval_local(self.windows, self.win_lo)
        vhi = _eval_local(self.windows, self.win_hi)
        if v < vlo:
            k = 0
            y = v
            while y < vlo:
                y = _ap(self.beta, y)
                k += 1
            x = _invert_local(self.windows, y)
            for _ in range(k):
                x = _ap_inv(self.alpha, x)
            return x
        if v > vhi:
            k = 0
            y = v
            while y > vhi:
                y = _ap_inv(self.beta_top, y)
                k += 1
            x = _invert_local(self.windows, y)
            for _ in range(k):
                x = _ap(self.alpha_top, x)
            return x
        return _invert_local(self.windows, v)


Segment = Union[FixedSeg, OrbitalSeg]


class Conjugator:
    """An exact order-automorphism of ℚ with h ∘ f ∘ h⁻¹ = g."""

    def __init__(self, segments: list[Segment]):
        self.segments = segments

    def apply(self, q: Fraction) -> Fraction:
        q = Fraction(q)
        for seg in self.segments:
            if seg.covers(q):
                return seg.apply(q)
        raise ValueError(f"no segment covers {q}")

    __call__ = apply

    def apply_inverse(self, v: Fraction) -> Fraction:
        v = Fraction(v)
        for seg in self.segments:
            if isinstance(seg, FixedSeg):
                m, c = seg.map
                img_lo = _ap(seg.map, seg.lo) if is_finite(seg.lo) else NEG_INF
                img_hi = _ap(seg.map, seg.hi) if is_finite(seg.hi) else POS_INF
                if img_lo <= v <= img_hi:
                    return (v - c) / m
            else:
                if seg.c < v < seg.d:
                    return seg.apply_inverse(v)
        raise ValueError(f"no segment image covers {v}")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def conjugating_witness(f: PLMap, g: PLMap) -> Optional[Conjugator]:
    """An exact h with h∘f∘h⁻¹ = g, or None when the patterns differ."""
    if not pattern_iso(pattern_of(f), pattern_of(g)):
        return None
    regions_f, regions_g = f.regions(), g.regions()
    if len(regions_f) != len(regions_g):
        raise ConjugacyError("isomorphic patterns with different region counts")
    segs: list[Segment] = []
    for rf, rg in zip(regions_f, regions_g):
        if rf[0] != rg[0] or rf[3:] != rg[3:]:
            raise ConjugacyError(f"regions {rf} and {rg} do not align under pattern iso")
        if rf[0] == "fix":
            segs.append(_fixed_seg(rf[1], rf[2], rg[1], rg[2]))
        else:
            segs.append(_orbital_seg(f, g, rf[1], rf[2], rg[1], rg[2], rf[3]))
    return Conjugator(segs)


def _fixed_seg(lo, hi, lo2, hi2) -> FixedSeg:
    if is_finite(lo) and is_finite(hi):
        if lo == hi:
            return FixedSeg(lo, hi, (Fraction(1), lo2 - lo))
        m = (hi2 - lo2) / (hi - lo)
        return FixedSeg(lo, hi, (m, lo2 - m * lo))
    if is_finite(hi):  # (-inf, hi]
        return FixedSeg(lo, hi, (Fraction(1), hi2 - hi))
    if is_finite(lo):  # [lo, inf)
        return FixedSeg(lo, hi, (Fraction(1), lo2 - lo))
    return FixedSeg(lo, hi, (Fraction(1), Fraction(0)))  # whole line: f = g = id


def _first_last_cuts(F: PLMap, a: ExtRat, b: ExtRat) -> tuple[Optional[Fraction], Optional[Fraction]]:
    inside = [cut for cut in F.cuts if a < cut < b]
    if not inside:
        return None, None
    return inside[0], inside[-1]


def _germ_at(F: PLMap, x: Fraction) -> Affine:
    """The affine piece of F just above x."""
    return F.pieces[F.piece_index(x)]


def _orbital_seg(f: PLMap, g: PLMap, a, b, c, d, parity: int) -> OrbitalSeg:
    F = f if parity > 0 else f.inverse()
    G = g if parity > 0 else g.inverse()
    t_f, s_f = _first_last_cuts(F, a, b)
    t_g, s_g = _first_last_cuts(G, c, d)
    if t_f is None:
        t_f = s_f = pick_fresh(QInterval(a, b))
    if t_g is None:
        t_g = s_g = pick_fresh(QInterval(c, d))
    p0 = F.apply_inverse(t_f)
    q0 = G.apply_inverse(t_g)
    alpha = _germ_at(F, a) if is_finite(a) else F.pieces[0]
    beta = _germ_at(G, c) if is_finite(c) else G.pieces[0]
    alpha_top = _germ_at(F, s_f)
    beta_top = _germ_at(G, s_g)
    # explicit windows: transport φ upward until both sides sit in the top germ
    phi_m = (t_g - q0) / (t_f - p0)
    window: list[LocalPiece] = [(p0, t_f, phi_m, q0 - phi_m * p0)]
    pieces = list(window)
    x_lo, x_hi = p0, t_f
    n = 0
    while not (x_lo >= s_f and _eval_local(pieces, x_lo) >= s_g):
        window = _push_window(window, F, G)
        pieces.extend(window)
        x_lo, x_hi = window[0][0], window[-1][1]
        n += 1
        if n > 100000:
            raise ConjugacyError("orbital transport did not stabilize")
    pieces = _merge_local(pieces)
    return OrbitalSeg(a, b, c, d, F, G, p0, q0, pieces,
                      pieces[0][0], pieces[-1][1], x_lo,
                      alpha, beta, alpha_top, beta_top)


def _push_window(window: list[LocalPiece], F: PLMap, G: PLMap) -> list[LocalPiece]:
    """Given h's pieces on [u0,u1], its pieces on [F(u0), F(u1)]:
    h = G ∘ h_prev ∘ F⁻¹ there."""
    u0, u1 = window[0][0], window[-1][1]
    v0, v1 = _eval_local(window, u0), _eval_local(window, u1)
    bpts = {F.apply(p[0]) for p in window} | {F.apply(u1)}
    bpts.update(F.apply(cut) for cut in F.cuts if u0 < cut < u1)
    for cg in G.cuts:
        if v0 < cg < v1:
            bpts.add(F.apply(_invert_local(window, cg)))
    xs = sorted(bpts)
    out: list[LocalPiece] = []
    for lo, hi in zip(xs, xs[1:]):
        mid = (lo + hi) / 2
        # F⁻¹ at mid
        u = F.apply_inverse(mid)
        mF, cF = F.pieces[F.piece_index(u)]
        inv = (1 / mF, -cF / mF)
        for plo, phi_, m, c in window:
            if plo <= u <= phi_:
                mid_map = (m, c)
                break
        w = m * u + c
        mG, cG = G.pieces[G.piece_index(w)]
        mm = mG * mid_map[0] * inv[0]
        cc = mG * (mid_map[0] * inv[1] + mid_map[1]) + cG
        out.append((lo, hi, mm, cc))
    return _merge_local(out)


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
    """Exact proof that h ∘ f = g ∘ h as maps of ℚ.

    On fixed regions both sides reduce to h.  On each orbital the identity
    is piecewise-affine over the explicit windows, where it is checked on a
    complete breakpoint refinement; beyond the windows it propagates by the
    germ recursion, whose hypotheses (germ purity of f and g on the tail
    regions, seam values) are checked exactly.
    """
    for seg in h.segments:
        if isinstance(seg, FixedSeg):
            if not _verify_fixed(seg, f, g):
                return False
        else:
            if not _verify_orbital(seg, h, f, g):
                return False
    return True


def _verify_fixed(seg: FixedSeg, f: PLMap, g: PLMap) -> bool:
    # f = id on [lo, hi] and g = id on the image, so h∘f = g∘h there; what
    # needs checking is that both really are fixed regions
    if not _fixes(f, seg.lo, seg.hi):
        return False
    img_lo = seg.apply(seg.lo) if is_finite(seg.lo) else NEG_INF
    img_hi = seg.apply(seg.hi) if is_finite(seg.hi) else POS_INF
    return _fixes(g, img_lo, img_hi)


def _fixes(f: PLMap, lo: ExtRat, hi: ExtRat) -> bool:
    """Whether f is the identity on [lo, hi], structurally: f fixes the one
    point, or every piece of f whose domain meets (lo, hi) is the identity."""
    if lo == hi:
        return f.apply(lo) == lo
    return all(piece == (Fraction(1), Fraction(0))
               for piece, (plo, phi) in zip(f.pieces, f.piece_domains())
               if plo < hi and lo < phi)


def _verify_orbital(seg: OrbitalSeg, h: Conjugator, f: PLMap, g: PLMap) -> bool:
    F, G = seg.F, seg.G
    # germ purity: every cut of F inside the orbital must sit inside the
    # explicit window region below the top window, so that F acts as a pure
    # affine germ on both tails; likewise for G on the image side
    for cut in F.cuts:
        if seg.a < cut < seg.b and not seg.win_lo <= cut <= seg.top_lo:
            return False
    v_lo = _eval_local(seg.windows, seg.win_lo)
    v_top = _eval_local(seg.windows, seg.top_lo)
    for cut in G.cuts:
        if seg.c < cut < seg.d and not v_lo <= cut <= v_top:
            return False
    # seam values of the anchor window
    if _eval_local(seg.windows, seg.p0) != seg.q0:
        return False
    # windows must be continuous and increasing
    prev = None
    for lo, hi, m, c in seg.windows:
        if m <= 0 or not lo < hi:
            return False
        if prev is not None and (prev[0] != lo or prev[1] != m * lo + c):
            return False
        prev = (hi, m * hi + c)
    # the conjugation identity on the explicit region, complete refinement:
    # check h(F(x)) == G(h(x)) for x in [lo_ext, top_lo] at every breakpoint
    # of either side and at the midpoints in between
    lo_ext = _ap_inv(seg.alpha, seg.win_lo)
    if not seg.a < lo_ext:
        lo_ext = seg.win_lo
    bpts = {lo_ext, seg.top_lo}
    for lo, hi, _, _ in seg.windows:
        if lo_ext <= lo <= seg.top_lo:
            bpts.add(lo)
        u = F.apply_inverse(lo)
        if lo_ext <= u <= seg.top_lo:
            bpts.add(u)
    for cut in F.cuts:
        if lo_ext < cut < seg.top_lo:
            bpts.add(cut)
    for cg in G.cuts:
        if seg.c < cg < seg.d:
            try:
                u = seg.apply_inverse(cg)
            except ValueError:
                continue
            if lo_ext < u < seg.top_lo:
                bpts.add(u)
    xs = sorted(bpts)
    probes = list(xs)
    probes += [(u + v) / 2 for u, v in zip(xs, xs[1:])]
    # a few deep zone probes on both tails
    x_dn, x_up = seg.win_lo, seg.win_hi
    for _ in range(3):
        x_dn = _ap_inv(seg.alpha, x_dn)
        x_up = _ap(seg.alpha_top, x_up)
        probes += [x_dn, x_up]
    for x in probes:
        if not seg.a < x < seg.b:
            continue
        if seg.apply(F.apply(x)) != G.apply(seg.apply(x)):
            return False
        # also the original pair (identical when parity is +)
        if h.apply(f.apply(x)) != g.apply(h.apply(x)):
            return False
    return True
