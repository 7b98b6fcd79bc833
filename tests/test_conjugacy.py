import functools
import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qwi import conjugacy
from qwi.conjugacy import (
    Conjugator, FixedSeg, OrbitalSeg, conjugating_witness, verify_conjugator)
from qwi.generators import gen_plmap_rnd, grid_maps, make_bump
from qwi.numbers import NEG_INF, POS_INF, QInterval, is_finite, pick_fresh
from qwi.patterns import pattern_iso, pattern_of
from qwi.plmap import PLMap, parse_pl

from helpers import deadline, gen_plmap

plmaps = st.builds(gen_plmap, st.integers(0, 10**6), st.integers(0, 5))


def check_pair(f, g):
    iso = pattern_iso(pattern_of(f), pattern_of(g))
    w = conjugating_witness(f, g)
    assert (w is not None) == iso
    if w is not None:
        assert verify_conjugator(w, f, g)
    return w


def test_identity_and_translations():
    e = PLMap.identity()
    assert verify_conjugator(conjugating_witness(e, e), e, e)
    t1, t5 = PLMap.translation(1), PLMap.translation(5)
    w = check_pair(t1, t5)
    # the witness really transports orbits: h(f(x)) == g(h(x))
    for x in (Fraction(0), Fraction(7, 3), Fraction(-11)):
        assert w.apply(t1.apply(x)) == t5.apply(w.apply(x))
        assert w.inverse().apply(w.apply(x)) == x


def test_opposite_parity_has_no_witness():
    t = PLMap.translation(1)
    assert conjugating_witness(t, t.inverse()) is None


def test_bounded_vs_halfline_bumps():
    b01 = make_bump(QInterval(Fraction(0), Fraction(1)))
    b23 = make_bump(QInterval(Fraction(2), Fraction(3)))
    half = make_bump(QInterval(Fraction(0), POS_INF))
    w = check_pair(b01, b23)
    assert w is not None
    assert conjugating_witness(b01, half) is None  # different boundary kinds
    check_pair(half, make_bump(QInterval(Fraction(-7), POS_INF)))
    assert conjugating_witness(b01, b01.inverse()) is None


def test_different_germ_slopes_are_still_conjugate():
    # same support, same pattern, but different derivative germs at the ends
    f = PLMap(0, 0, [0, 1, 3], [1, 2, Fraction(1, 2), 1])
    g = PLMap(0, 0, [0, 1, 4], [1, 3, Fraction(1, 3), 1])
    w = check_pair(f, g)
    assert w is not None
    x = Fraction(1, 7)
    for _ in range(6):
        assert w.apply(f.apply(x)) == g.apply(w.apply(x))
        x = f.apply(x)


def test_multi_orbital_and_mixed_parity():
    f = make_bump(QInterval(Fraction(0), Fraction(1))).compose(
        make_bump(QInterval(Fraction(2), Fraction(3)), up=False))
    g = make_bump(QInterval(Fraction(-5), Fraction(-4))).compose(
        make_bump(QInterval(Fraction(6), Fraction(7)), up=False))
    w = check_pair(f, g)
    assert w is not None
    swapped = make_bump(QInterval(Fraction(-5), Fraction(-4)), up=False).compose(
        make_bump(QInterval(Fraction(6), Fraction(7))))
    assert conjugating_witness(f, swapped) is None


def test_witness_conjugates_deep_orbit_points():
    f = make_bump(QInterval(Fraction(0), Fraction(1)))
    g = make_bump(QInterval(Fraction(0), Fraction(1)))
    h = gen_plmap(1234, 4)
    g2 = f.conjugate_by(h)
    w = check_pair(f, g2)
    x = Fraction(1, 2)
    for _ in range(12):  # walk far up and down the orbit
        assert w.apply(f.apply(x)) == g2.apply(w.apply(x))
        x = f.apply(x)
    x = Fraction(1, 2)
    for _ in range(12):
        x = f.apply_inverse(x)
        assert w.apply(f.apply(x)) == g2.apply(w.apply(x))


@given(plmaps, plmaps)
@settings(max_examples=80, deadline=None)
def test_witness_iff_pattern_iso_random_pairs(f, g):
    check_pair(f, g)


@functools.cache
def grid_witnesses():
    """(f, g, conjugating_witness(f, g), whether the orbital patterns of f
    and g are isomorphic) for all 23,409 pairs of the maps whose region
    ends lie in {0, 1, 2}."""
    grid = [(f, pattern_of(f)) for f in grid_maps((0, 1, 2))]
    return [(f, g, conjugating_witness(f, g), pattern_iso(p, q))
            for (f, p), (g, q) in product(grid, repeat=2)]


def test_witness_iff_pattern_iso_on_every_grid_pair():
    """On every grid pair, the region shapes that `conjugating_witness`
    reads give a witness exactly when the orbital patterns are isomorphic,
    and every witness verifies."""
    conjugate = 0
    for f, g, w, iso in grid_witnesses():
        assert (w is not None) == iso, (f, g)
        if w is not None:
            assert verify_conjugator(w, f, g), (f, g)
            conjugate += 1
    assert conjugate == 333


def reference_push_window(window, F, G):
    """Given h's pieces on [u0,u1], its pieces on [F(u0), F(u1)]:
    h = G ∘ h_prev ∘ F⁻¹ there, one piece per gap between the images under
    F of the breakpoints of h_prev, F and G∘h_prev, read at the gap's
    midpoint."""
    u0, u1 = window[0][0], window[-1][1]
    v0, v1 = conjugacy._eval_local(window, u0), conjugacy._eval_local(window, u1)
    bpts = {F.apply(p[0]) for p in window} | {F.apply(u1)}
    bpts.update(F.apply(cut) for cut in F.cuts_in(u0, u1))
    inv = conjugacy._inverse_pieces(window)
    bpts.update(F.apply(conjugacy._eval_local(inv, cg)) for cg in G.cuts_in(v0, v1))
    xs = sorted(bpts)
    out = []
    for lo, hi in zip(xs, xs[1:]):
        # F⁻¹ at the midpoint, then h_prev, then G
        u = F.apply_inverse((lo + hi) / 2)
        mF, cF = F.germ(u)
        _, _, m, c = conjugacy._piece(window, u)
        mG, cG = G.germ(m * u + c)
        out.append((lo, hi, mG * m / mF, mG * (c - m * cF / mF) + cG))
    return conjugacy._merge_local(out)


def reference_windows(f, g):
    """(windows, top_lo) of each orbital, built window by window with
    `reference_push_window` from φ until both sides sit in the top germ:
    the construction that `conjugating_witness` makes with `compose`."""
    out = []
    for (a, b, parity), (c, d, _) in zip(f.regions(), g.regions()):
        if not parity:
            continue
        F, G = (f, g) if parity > 0 else (f.inverse(), g.inverse())
        t_f, s_f = conjugacy._cut_span(F, a, b)
        t_g, s_g = conjugacy._cut_span(G, c, d)
        p0, q0 = F.apply_inverse(t_f), G.apply_inverse(t_g)
        phi_m = (t_g - q0) / (t_f - p0)
        window = [(p0, t_f, phi_m, q0 - phi_m * p0)]
        pieces, x_lo = list(window), p0
        while not (x_lo >= s_f and conjugacy._eval_local(pieces, x_lo) >= s_g):
            window = reference_push_window(window, F, G)
            pieces.extend(window)
            x_lo = window[0][0]
        out.append((conjugacy._merge_local(pieces), x_lo))
    return out


def test_windows_match_the_window_by_window_reference():
    """On every conjugate grid pair and every seeded pair, the windows and
    top_lo that `conjugating_witness` composes from clipped maps are those
    of the window-by-window reference."""
    grid = [(f, g, w) for f, g, w, _ in grid_witnesses() if w is not None]
    seeded = [(f, g, w) for f, g, w, _ in seeded_witnesses()]
    assert len(grid) == 333 and len(seeded) == 120
    for f, g, w in grid + seeded:
        built = [(s.windows, s.top_lo) for s in w.segments if isinstance(s, OrbitalSeg)]
        assert built == reference_windows(f, g), (f, g)


@given(plmaps, plmaps)
@settings(max_examples=60, deadline=None)
def test_constructed_conjugates_always_witnessed(f, h):
    g = f.conjugate_by(h)
    w = conjugating_witness(f, g)
    assert w is not None
    assert verify_conjugator(w, f, g)


def test_seeded_sweep():
    rnd = random.Random("conjugacy-test:0")
    for _ in range(60):
        f = gen_plmap_rnd(rnd, 5)
        g = gen_plmap_rnd(rnd, 5)
        check_pair(f, g)
        check_pair(f, f.conjugate_by(g))


def test_verifier_rejects_perturbed_windows_and_wrong_targets():
    rnd = random.Random("conjugacy-test:verifier")
    perturbed = wrong_targets = 0
    for _ in range(40):
        f = gen_plmap_rnd(rnd, 4)
        g = f.conjugate_by(gen_plmap_rnd(rnd, 4))
        other = f.conjugate_by(gen_plmap_rnd(rnd, 4))
        w = conjugating_witness(f, g)
        assert verify_conjugator(w, f, g)
        if other != g:
            assert not verify_conjugator(w, f, other)
            wrong_targets += 1
        seg = next((s for s in w.segments if getattr(s, "windows", None)), None)
        if seg is not None:
            lo, hi, m, c = seg.windows[0]
            seg.windows[0] = (lo, hi, m, c + Fraction(1, 7))
            assert not verify_conjugator(w, f, g)
            perturbed += 1
    assert perturbed >= 10 and wrong_targets >= 10


def test_verifier_rejects_moves_on_fixed_regions():
    f = make_bump(QInterval(Fraction(0), Fraction(1)))
    w = conjugating_witness(f, f)
    assert verify_conjugator(w, f, f)
    extra = make_bump(QInterval(Fraction(2), Fraction(3)))  # inside a fixed region of f
    assert not verify_conjugator(w, f.compose(extra), f)
    assert not verify_conjugator(w, f, f.compose(extra))


def test_inverse_witness_conjugates_back():
    """h⁻¹ is the transport with f and g exchanged: it verifies as a
    conjugator from g to f and undoes h deep in both germ tails."""
    rnd = random.Random("conjugacy-test:inverse")
    witnessed = 0
    for _ in range(40):
        f = gen_plmap_rnd(rnd, 5)
        h = gen_plmap_rnd(rnd, 5)
        g = f.conjugate_by(h) if rnd.random() < 0.7 else h
        w = conjugating_witness(f, g)
        if w is None:
            continue
        witnessed += 1
        inv = w.inverse()
        assert verify_conjugator(inv, g, f)
        for one, other, m in ((w, inv, f), (inv, w, g)):
            # points spread over the line, and 15 steps up and down each
            # orbital of the map that `one` transports
            xs = [Fraction(rnd.randint(-40, 40), rnd.randint(1, 7)) for _ in range(3)]
            for iv, _ in m.signed_support():
                for step in (m.apply, m.apply_inverse):
                    x = pick_fresh(iv)
                    for _ in range(15):
                        x = step(x)
                    xs.append(x)
            for x in xs:
                assert other.apply(one.apply(x)) == x
    assert witnessed >= 20


def walked(w, q):
    """h(q) by one germ step per period, the way the transport is defined."""
    seg = next(s for s in w.segments if s.covers(q))
    if not isinstance(seg, OrbitalSeg):
        return seg.apply(q)
    lo, hi = seg.windows[0][0], seg.windows[-1][1]
    x, k = q, 0
    while x < lo:
        x, k = seg.alpha[0] * x + seg.alpha[1], k + 1
    while x > hi:
        x, k = (x - seg.alpha_top[1]) / seg.alpha_top[0], k + 1
    y = next(m * x + c for a, b, m, c in seg.windows if a <= x <= b)
    for _ in range(k):
        if q < lo:
            y = (y - seg.beta[1]) / seg.beta[0]
        else:
            y = seg.beta_top[0] * y + seg.beta_top[1]
    return y


def test_orbital_tails_take_translation_germs_in_one_step(monkeypatch):
    # g's top germ is the translation x ↦ x + 22/3, so h⁻¹ far up the orbital
    # needs about 127,000 periods at depth 15
    f = parse_pl("pl cuts=[4] pieces=[(6/5,-13/5),(5/2,-39/5)]")
    g = parse_pl("pl cuts=[-1,3] pieces=[(4/3,17/3),(3/2,35/6),(1,22/3)]")
    w = check_pair(f, g)
    w_inv = w.inverse()
    for step in (f.apply, f.apply_inverse):
        x = Fraction(31, 5)
        for _ in range(13):
            assert w.apply(x) == walked(w, x)
            assert w_inv.apply(x) == walked(w_inv, x)
            x = step(x)
    x = Fraction(31, 5)
    for _ in range(15):
        x = f.apply(x)
    seg = next(s for s in w.inverse().segments if s.covers(x))
    (m, c), hi = seg.alpha_top, seg.windows[-1][1]
    k = math.ceil((x - hi) / c)
    assert m == 1 and k > 100_000
    steps = []
    for name in ("_ap", "_ap_inv"):
        real = getattr(conjugacy, name)
        monkeypatch.setattr(conjugacy, name,
                            lambda a, y, real=real: steps.append(a) or real(a, y))
    # the k periods are one closed-form step, and f's germ is applied once
    assert conjugacy._walk(seg.alpha_top, x, hi) == (k, x - k * c)
    assert steps == []
    seg.apply(x)
    assert len(steps) == 1


def one_bump_witness():
    f = make_bump(QInterval(Fraction(0), Fraction(1)))
    return f, conjugating_witness(f, f)


def two_down_bumps():
    """f moves (0, 1) and (2, 3) down and (4, 5) up; g is f conjugated by
    a translation, so a witness exists."""
    bumps = [make_bump(QInterval(Fraction(lo), Fraction(lo + 1)), up=lo == 4)
             for lo in (0, 2, 4)]
    f = functools.reduce(PLMap.compose, bumps)
    return f, f.conjugate_by(PLMap.translation(Fraction(1, 2)))


def counted_inverses(monkeypatch):
    calls = []
    real = PLMap.inverse
    monkeypatch.setattr(PLMap, "inverse", lambda self: calls.append(self) or real(self))
    return calls


def test_verifier_inverts_f_and_g_only_for_an_orbital_that_f_moves_down(monkeypatch):
    f, w = one_bump_witness()
    down = f.inverse()
    w_down = conjugating_witness(down, down)
    f2, g2 = two_down_bumps()
    w2 = conjugating_witness(f2, g2)
    calls = counted_inverses(monkeypatch)
    assert verify_conjugator(w, f, f) and calls == []
    assert verify_conjugator(w_down, down, down) and calls == [down, down]
    # two orbitals moved down: f⁻¹ and g⁻¹ once each, not once per orbital
    calls.clear()
    assert verify_conjugator(w2, f2, g2) and calls == [f2, g2]


def test_construction_inverts_f_and_g_at_most_once(monkeypatch):
    """f⁻¹ is read on every orbital and g⁻¹ on a down one; each is taken
    once per call, however many orbitals read it."""
    f, g = two_down_bumps()
    up = make_bump(QInterval(Fraction(0), Fraction(1)))
    calls = counted_inverses(monkeypatch)
    assert conjugating_witness(f, g) is not None and calls == [f, g]
    calls.clear()
    assert conjugating_witness(up, up) is not None and calls == [up]


def test_verifier_refuses_a_conjugator_that_does_not_tile():
    f, w = one_bump_witness()
    assert [type(s).__name__ for s in w.segments] == ["FixedSeg", "OrbitalSeg", "FixedSeg"]
    assert verify_conjugator(w, f, f)
    fixed_lo, orbital, fixed_hi = w.segments
    for segments in ([], [fixed_lo, fixed_hi], [orbital, fixed_hi]):
        assert not verify_conjugator(Conjugator(segments), f, f)
    # a fixed "region" on the single point -∞ abuts, but fixes no rational
    t = PLMap.translation(1)
    line = conjugating_witness(t, t).segments
    point = conjugacy.FixedSeg(NEG_INF, NEG_INF, (Fraction(1), Fraction(0)))
    assert not verify_conjugator(Conjugator([point, *line]), t, t)


def tail_bump(k, top=False):
    """A bump on (2⁻ᵏ, 3·2⁻⁽ᵏ⁺¹⁾), or on its mirror image under x ↦ 1 − x."""
    lo, hi = Fraction(1, 2**k), Fraction(3, 2**(k + 1))
    return make_bump(QInterval(1 - hi, 1 - lo) if top else QInterval(lo, hi))


@pytest.mark.parametrize("k, top", [(10, False), (20, False), (40, False), (20, True)])
def test_verifier_refuses_wrong_targets_in_the_germ_tails(k, top):
    """f∘b differs from f only inside one germ tail of the bump f's orbital,
    where no probe lands: only germ purity read from the maps given, not
    from the witness, sees the extra cuts."""
    f, w = one_bump_witness()
    wrong = f.compose(tail_bump(k, top))
    assert wrong != f
    assert not verify_conjugator(w, f, wrong)
    assert not verify_conjugator(w, wrong, f)


def test_verifier_reads_the_direction_from_f():
    # with g's direction read on its own, h∘f = g⁻¹∘h would pass for h∘f = g∘h
    f, w = one_bump_witness()
    assert not verify_conjugator(w, f, f.inverse())
    assert not verify_conjugator(w.inverse(), f.inverse(), f)


def test_verifier_refuses_an_orbital_over_a_fixed_point():
    """f = 2x + 1 below 0 and x + 1 above fixes -1.  A forged orbital segment
    over the whole line, the identity on its windows, passes every check
    but one: at -∞ the bottom germ has slope 2, so walking up from below -1
    never reaches the windows and h is not defined there."""
    f = PLMap(0, 1, [0], [2, 1])
    one, zero = Fraction(1), Fraction(0)
    h = Conjugator([OrbitalSeg(
        NEG_INF, POS_INF, NEG_INF, POS_INF, Fraction(-1, 2), Fraction(-1, 2),
        [(Fraction(-1, 2), zero, one, zero), (zero, one, one, zero)], zero,
        (Fraction(2), one), (Fraction(2), one), (one, one), (one, one))])
    assert not verify_conjugator(h, f, f)
    # nor does apply, unverified, walk forever below -1
    assert h.apply(Fraction(-3, 4)) == Fraction(-3, 4)
    with deadline(5), pytest.raises(ValueError):
        h.apply(Fraction(-2))


half, two = Fraction(1, 2), Fraction(2)


def test_verifier_accepts_a_single_window_from_a_cut_of_f():
    """f = 2x on [0, 1/3] and x/2 + 1/2 on [1/3, 1] has its one inner cut
    at 1/3.  The identity, as one window [1/3, 2/3] with top_lo = p0 = 1/3,
    conjugates f to itself, and so does the window bent at 1/2 ↦ 5/9: any
    increasing map of [1/3, 2/3] onto itself extends to one that commutes
    with f.  The range (p0, top_lo) is empty, and the verifier accepts
    both without comparing W∘f and f∘W right of 1/3, where the bent window
    makes them differ; it refuses the window moved up by 1/9."""
    f = PLMap(0, 0, [0, Fraction(1, 3), 1], [1, 2, half, 1])
    third, one, zero = Fraction(1, 3), Fraction(1), Fraction(0)
    seg = OrbitalSeg(zero, one, zero, one, third, third, [(third, 2 * third, one, zero)],
                     third, (two, zero), (two, zero), (half, half), (half, half))
    fixed = [FixedSeg(NEG_INF, zero, (one, zero)), FixedSeg(one, POS_INF, (one, zero))]
    assert verify_conjugator(Conjugator([fixed[0], seg, fixed[1]]), f, f)
    bent = Conjugator([fixed[0], replace(seg, windows=[
        (third, half, Fraction(4, 3), Fraction(-1, 9)),
        (half, 2 * third, 2 * third, Fraction(2, 9))]), fixed[1]])
    assert verify_conjugator(bent, f, f)
    for x in (Fraction(1, 7), Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(9, 10)):
        assert bent.apply(f.apply(x)) == f.apply(bent.apply(x)), x
    moved = replace(seg, windows=[(third, 2 * third, one, Fraction(1, 9))])
    assert not verify_conjugator(Conjugator([fixed[0], moved, fixed[1]]), f, f)


@pytest.mark.parametrize("germ, x, edge", [
    # the germ moves x away from the edge: down toward its fixed point 0,
    # forward, and up toward it, backward
    ((half, Fraction(0)), Fraction(1), two),
    ((two, Fraction(0)), Fraction(-1), -two),
    # a fixed point between x and the edge, at the edge, or at x
    ((half, Fraction(1)), Fraction(0), Fraction(3)),
    ((two, Fraction(0)), Fraction(1), Fraction(-1)),
    ((half, Fraction(1)), Fraction(0), two),
    ((two, -two), two, Fraction(3)),
    # a translation that moves no point up, forward and backward
    ((Fraction(1), Fraction(0)), Fraction(0), Fraction(1)),
    ((Fraction(1), Fraction(-1)), Fraction(0), Fraction(5)),
    ((Fraction(1), Fraction(-1)), Fraction(5), Fraction(0)),
])
def test_walk_refuses_a_germ_that_cannot_carry_x_to_the_edge(germ, x, edge):
    with deadline(5), pytest.raises(ValueError):
        conjugacy._walk(germ, x, edge)


def test_walk_reaches_an_edge_just_short_of_a_fixed_point():
    # x ↦ x/2 + 1 fixes 2 and climbs 0, 1, 3/2, 7/4 from below
    assert conjugacy._walk((half, Fraction(1)), Fraction(0), Fraction(7, 4)) == (3, Fraction(7, 4))
    assert conjugacy._walk((half, Fraction(1)), Fraction(7, 4), Fraction(0)) == (3, Fraction(0))


def linear_piece(pieces, x):
    for p in pieces:
        if p[0] <= x <= p[1]:
            return p
    raise ValueError(f"{x} outside local window")


def test_piece_bisection_matches_the_linear_scan():
    rnd = random.Random("conjugacy-test:piece")
    stacks = []
    for _ in range(30):
        f = gen_plmap_rnd(rnd, 5)
        w = conjugating_witness(f, f.conjugate_by(gen_plmap_rnd(rnd, 5)))
        for seg in w.segments + w.inverse().segments:
            if isinstance(seg, OrbitalSeg):
                stacks.append(seg.windows)
    assert len(stacks) >= 30 and max(map(len, stacks)) >= 10
    for pieces in stacks:
        ends = [p[0] for p in pieces] + [pieces[-1][1]]
        for i, x in enumerate(ends):
            # a shared end belongs to the piece on its left
            left = pieces[max(i - 1, 0)]
            assert conjugacy._piece(pieces, x) == linear_piece(pieces, x) == left
        for u, v in zip(ends, ends[1:]):
            x = (u + v) / 2
            assert conjugacy._piece(pieces, x) == linear_piece(pieces, x)
        for x in (ends[0] - 1, ends[-1] + 1):
            for lookup in (conjugacy._piece, linear_piece):
                with pytest.raises(ValueError):
                    lookup(pieces, x)


def upward(seg, f, g):
    """F and G, the maps f and g or their inverses that act upward on seg."""
    return (f, g) if f.apply(seg.p0) > seg.p0 else (f.inverse(), g.inverse())


def breakpoints(seg, F, G):
    """The breakpoints of h∘F and G∘h over [lo_ext, top_lo], lo_ext =
    α⁻¹(p0), sorted."""
    lo_ext = conjugacy._ap_inv(seg.alpha, seg.p0)
    bpts = {lo_ext, seg.top_lo}
    for lo, _, _, _ in seg.windows:
        if lo <= seg.top_lo:
            bpts.add(lo)
        bpts.add(F.apply_inverse(lo))
    bpts.update(F.cuts_in(lo_ext, seg.top_lo))
    bpts.update(seg.inverse().apply(cg) for cg in G.cuts_in(seg.c, seg.d))
    return sorted(bpts)


def reference_germ_side(s, S):
    """The germ-recursion hypotheses of `verify_conjugator` read from the
    segment s itself, the inverse segment on g's side: the windows run
    from p0 inside (a, b) past top_lo, S moves p0 up and carries top_lo to
    the windows' end, every cut of S inside (a, b) lies in [p0, top_lo],
    the pieces of S right of a and of top_lo are alpha and alpha_top, and
    these germs fix a finite end and keep S above the identity at an
    infinite one."""
    lo, hi = s.windows[0][0], s.windows[-1][1]
    if not (s.a < s.p0 == lo <= s.top_lo < hi < s.b):
        return False
    if not (S.apply(s.p0) > s.p0 and S.apply(s.top_lo) == hi):
        return False
    cuts = S.cuts_in(s.a, s.b)
    if cuts and not (lo <= cuts[0] and cuts[-1] <= s.top_lo):
        return False
    if S.germ(s.a) != s.alpha or S.germ(s.top_lo) != s.alpha_top:
        return False
    bottom = conjugacy._ap(s.alpha, s.a) == s.a if is_finite(s.a) else s.alpha[0] <= 1
    top = conjugacy._ap(s.alpha_top, s.b) == s.b if is_finite(s.b) else s.alpha_top[0] >= 1
    return bottom and top


def reference_orbital(seg, f, g):
    """The orbital check of `verify_conjugator` by point probes: h(F(x)) ==
    G(h(x)) at every breakpoint of either side over [lo_ext, top_lo], at the
    midpoint of every gap between them and at three deep points in each
    germ tail, each probe through `OrbitalSeg.apply`.  It keeps, as the
    reference, the two parts that germ purity makes redundant in the
    verifier: the gaps below p0 and the deep points."""
    prev = None
    for lo, hi, m, c in seg.windows:
        if m <= 0 or not lo < hi:
            return False
        if prev is not None and (prev[0] != lo or prev[1] != m * lo + c):
            return False
        prev = (hi, m * hi + c)
    F, G = upward(seg, f, g)
    if not (reference_germ_side(seg, F) and reference_germ_side(seg.inverse(), G)):
        return False
    xs = breakpoints(seg, F, G)
    probes = list(xs)
    probes += [(u + v) / 2 for u, v in zip(xs, xs[1:])]
    x_dn, x_up = seg.windows[0][0], seg.windows[-1][1]
    for _ in range(3):
        x_dn = conjugacy._ap_inv(seg.alpha, x_dn)
        x_up = conjugacy._ap(seg.alpha_top, x_up)
        probes += [x_dn, x_up]
    return all(seg.apply(F.apply(x)) == G.apply(seg.apply(x)) for x in probes)


def reference_verify(h, f, g):
    """`verify_conjugator` with the point-probing orbital check."""
    if not conjugacy._tiles(h.segments):
        return False
    return all(conjugacy._verify_fixed(seg, f, g) if isinstance(seg, FixedSeg)
               else reference_orbital(seg, f, g)
               for seg in h.segments)


def chord(seg, u):
    """The changes to seg that make h on [p0, u] the chord from a lower
    h(p0) to the unchanged h(u), u ≤ the first window's end, and move q0
    down with it, so that the inverse segment still starts at q0.  h is
    then wrong on [p0, u) alone, and what shows it there is the identity
    at p0."""
    lo, hi, m, c = seg.windows[0]
    q0 = (seg.q0 + conjugacy._ap_inv(seg.beta, seg.q0)) / 2
    m1 = (m * u + c - q0) / (u - lo)
    head = [(lo, u, m1, q0 - m1 * lo)] + ([(u, hi, m, c)] if u < hi else [])
    return {"q0": q0, "windows": head + seg.windows[1:]}


def bend(lo, hi, m, c):
    """The piece (lo, hi, m, c) as two: the left half steeper by half, the
    right half joining it back to the piece's end, so that the two are
    continuous and increasing."""
    x, m1 = (lo + hi) / 2, 3 * m / 2
    y = m * lo + c + m1 * (x - lo)
    m2 = (m * hi + c - y) / (hi - x)
    return [(lo, x, m1, y - m1 * x), (x, hi, m2, y - m2 * x)]


def tamperings(w, f, g):
    """(name, conjugator) for each tampering of each orbital segment of w
    that changes the segment."""
    for k, seg in enumerate(w.segments):
        if not isinstance(seg, OrbitalSeg):
            continue

        def swap(**changes):
            return Conjugator(w.segments[:k] + [replace(seg, **changes)] + w.segments[k + 1:])

        ws = seg.windows
        i = len(ws) // 2
        lo, hi, m, c = ws[i]
        yield "intercept", swap(windows=ws[:i] + [(lo, hi, m, c + Fraction(1, 7))] + ws[i + 1:])
        yield "split", swap(windows=ws[:i] + bend(lo, hi, m, c) + ws[i + 1:])
        if seg.alpha != seg.beta:
            yield "alpha-beta", swap(alpha=seg.beta, beta=seg.alpha)
        later = [lo for lo, _, _, _ in ws if lo > seg.top_lo]
        if later:
            yield "top_lo", swap(top_lo=later[0])
        F, G = upward(seg, f, g)
        # h wrong on [p0, u1) alone, u1 the first breakpoint of either side
        # above p0
        above = [x for x in breakpoints(seg, F, G) if x > seg.p0]
        if above:
            yield "chord", swap(**chord(seg, above[0]))
        # h wrong on (a, hi) alone, the part of the last window above
        # top_lo and above F(s), s the last window start ≤ top_lo: only h∘F
        # on (s, top_lo) reads h there
        u, hi, m, c = ws[-1]
        s = max(lo for lo, _, _, _ in ws if lo <= seg.top_lo)
        a = max(u, seg.top_lo, F.apply(s))
        if a < hi:
            head = [(u, a, m, c)] if u < a else []
            yield "top bend", swap(windows=ws[:-1] + head + bend(a, hi, m, c))


@functools.cache
def seeded_witnesses():
    """120 seeded (f, g, w, other): w conjugates f to g and has an orbital
    segment, and other is another conjugate of f."""
    rnd = random.Random("conjugacy-test:reference")
    out = []
    while len(out) < 120:
        f = gen_plmap_rnd(rnd, 5)
        g = f.conjugate_by(gen_plmap_rnd(rnd, 5))
        w = conjugating_witness(f, g)
        if any(isinstance(s, OrbitalSeg) for s in w.segments):
            out.append((f, g, w, f.conjugate_by(gen_plmap_rnd(rnd, 5))))
    return out


def test_verifier_agrees_with_the_point_probes():
    """On seeded witnesses and on each tampering of them, the comparison
    of W∘F with G∘W as maps gives the point probes' verdict, and refuses
    every tampered witness and every wrong target."""
    refused = {}
    for f, g, w, other in seeded_witnesses():
        assert verify_conjugator(w, f, g) and reference_verify(w, f, g)
        cases = [(name, t, g) for name, t in tamperings(w, f, g)]
        if other != g:
            cases.append(("wrong target", w, other))
        for name, t, target in cases:
            assert not reference_verify(t, f, target), name
            assert not verify_conjugator(t, f, target), name
            refused[name] = refused.get(name, 0) + 1
    assert min(refused.values()) >= 30 and len(refused) == 7, refused


def test_verifier_refuses_every_tampering_of_the_grid_witnesses():
    """Both verifiers refuse each tampering of each grid witness that has
    an orbital segment, which is every one but the identity's."""
    refused, witnesses = {}, 0
    for f, g, w, _ in grid_witnesses():
        if w is None or not any(isinstance(s, OrbitalSeg) for s in w.segments):
            continue
        witnesses += 1
        for name, t in tamperings(w, f, g):
            assert not verify_conjugator(t, f, g), (name, f, g)
            assert not reference_verify(t, f, g), (name, f, g)
            refused[name] = refused.get(name, 0) + 1
    # one of each per orbital segment, and alpha-beta where the germs differ
    assert witnesses == 332
    assert refused == {"intercept": 744, "split": 744, "chord": 744, "top bend": 744,
                       "alpha-beta": 272}


@pytest.mark.parametrize("text, gaps", [
    # [p0, top_lo] = [-2/3, 0] is a single gap
    ("pl cuts=[-2,0,2] pieces=[(1,0),(3/2,1),(1/2,1),(1,0)]", 1),
    # the gaps are [-2/5, 0) and [0, 1)
    ("pl cuts=[-2,0,1,2] pieces=[(1,0),(5/4,1/2),(1,1/2),(1/2,1),(1,0)]", 2),
], ids=["one-gap", "two-gaps"])
def test_verifier_refuses_a_chord_on_the_first_gap_up_to_0(text, gaps):
    """The chord changes h on the first gap [p0, 0) alone and keeps h(0)
    and h(top_lo), so W∘F and G∘W differ left of 0 alone, in their slopes
    and values there, not in their values at 0 or at top_lo.  Both
    verifiers refuse it."""
    f = parse_pl(text)
    w = conjugating_witness(f, f)
    fixed_lo, seg, fixed_hi = w.segments
    xs = [x for x in breakpoints(seg, f, f) if x >= seg.p0]
    assert len(xs) == gaps + 1 and xs[1] == 0
    assert verify_conjugator(w, f, f) and reference_verify(w, f, f)
    t = Conjugator([fixed_lo, replace(seg, **chord(seg, xs[1])), fixed_hi])
    assert not verify_conjugator(t, f, f)
    assert not reference_verify(t, f, f)


def test_walk_and_power_match_the_germ_step_by_step():
    """On seeded germs, translations and slopes above and below 1, walking
    forward and backward: `_walk` takes the fewest germ steps that carry x
    to or past the edge, and `_power` applies the germ that many times."""
    rnd = random.Random("conjugacy-test:walk")
    seen = set()
    for _ in range(300):
        kind = rnd.choice(("translation", "above 1", "below 1"))
        d = [Fraction(rnd.randint(1, 200), rnd.randint(1, 9)) for _ in range(2)]
        if kind == "translation":
            germ = (Fraction(1), Fraction(rnd.randint(1, 30), rnd.randint(1, 7)))
            x, edge = d
        else:
            # points on the side of the fixed point z where the germ moves up
            m = Fraction(rnd.randint(11, 40), 10) if kind == "above 1" else Fraction(rnd.randint(1, 9), 10)
            z = Fraction(rnd.randint(-20, 20), rnd.randint(1, 5))
            germ, sign = (m, z * (1 - m)), 1 if m > 1 else -1
            x, edge = z + sign * d[0], z + sign * d[1]
        if x == edge:
            continue
        forward = x < edge
        seen.add((kind, forward))
        y, k = x, 0
        while y < edge if forward else y > edge:
            y = conjugacy._ap(germ, y) if forward else conjugacy._ap_inv(germ, y)
            k += 1
        assert conjugacy._walk(germ, x, edge) == (k, y)
        for j in (0, 1, 2, k):
            power, z = conjugacy._power(germ, j), x
            for _ in range(j):
                z = conjugacy._ap(germ, z)
            assert conjugacy._ap(power, x) == z
    assert len(seen) == 6


def test_orbital_tails_follow_the_germ_recursion():
    """On each orbital of the seeded witnesses, at x_j = α⁻ʲ(p0) and y_j =
    α_topʲ(windows' end), j = 1..3, and halfway to the next of them, h read
    through `Conjugator.apply` is the transport computed one germ step at a
    time, and h∘F = G∘h: the part of the identity that `verify_conjugator`
    proves from germ purity for the h the segment defines."""
    probes = 0
    for f, g, w, _ in seeded_witnesses():
        for seg in w.segments:
            if not isinstance(seg, OrbitalSeg):
                continue
            F, G = upward(seg, f, g)
            x, y = seg.p0, seg.windows[-1][1]
            for _ in range(3):
                x_next = conjugacy._ap_inv(seg.alpha, x)
                y_next = conjugacy._ap(seg.alpha_top, y)
                for q in (x_next, (x + x_next) / 2, y_next, (y + y_next) / 2):
                    assert w.apply(q) == walked(w, q)
                    assert w.apply(F.apply(q)) == G.apply(w.apply(q))
                    probes += 1
                x, y = x_next, y_next
    assert probes >= 120 * 12
