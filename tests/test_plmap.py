import hashlib
import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qwi.generators import gen_plmap_rnd, grid_maps, make_bump
from qwi.numbers import NEG_INF, POS_INF, QInterval, Rat, gaps_of, is_finite, pick_fresh
from qwi.plmap import PLMap, PLMapError, format_pl, parse_pl
from qwi.predicates import comp_sem

from helpers import gen_plmap

rationals = st.fractions(max_denominator=20)
seeds = st.integers(0, 10**6)


def maps(draw_seed, complexity=5):
    return gen_plmap(draw_seed, complexity)


plmaps = st.builds(gen_plmap, seeds, st.integers(0, 6))

# G_SHARED maps its cuts -1 and 1/2 onto the cuts 0 and 1 of F_SHARED, and
# H_SHARED maps its one cut 0 onto 1, so F_SHARED after either of them takes
# the merge's shared-cut branch.
F_SHARED = parse_pl("pl cuts=[0,1] pieces=[(1,0),(2,0),(1,1)]")
G_SHARED = parse_pl("pl cuts=[-1,1/2] pieces=[(1,1),(2/3,2/3),(1,1/2)]")
H_SHARED = parse_pl("pl cuts=[0] pieces=[(1,1),(2,1)]")


def reference_pieces(f: PLMap) -> tuple[tuple[Rat, Rat], ...]:
    """The (slope, intercept) of each gap, derived from the breakpoint
    storage all at once: the piece table that `germ`, `apply`,
    `apply_inverse` and `format_pl` each read one piece of."""
    ms = f.slopes
    return ((ms[0], f.c0), *(
        (m, y - m * x) for x, y, m in zip(f.cuts, f.image_cuts, ms[1:])))


def test_constructor_rejects_bad_data():
    for text, message in [
        ("pl cuts=[0] pieces=[(1,0)]", "1 cuts need 2 pieces, got 1"),
        ("pl cuts=[1,0] pieces=[(1,0),(2,-1),(1,0)]", "cuts not strictly increasing"),
        ("pl cuts=[] pieces=[(-1,0)]", "non-positive slope"),
        ("pl cuts=[0] pieces=[(1,0),(1,1)]", "discontinuous at cut 0"),
    ]:
        with pytest.raises(PLMapError, match=message):
            parse_pl(text)


def test_constructor_merges_redundant_cuts():
    f = PLMap(0, 2, (0, 1), (1, 1, 1))
    assert f == PLMap.translation(2)
    assert f.cuts == ()


def test_basic_examples():
    t = PLMap.translation(Fraction(3, 2))
    assert t.apply(Fraction(1, 2)) == 2
    assert t.apply_inverse(Fraction(2)) == Fraction(1, 2)
    d = PLMap(0, 0, (0,), (1, 2))
    assert d.apply(Fraction(-1)) == -1
    assert d.apply(Fraction(3)) == 6
    assert d.apply_inverse(Fraction(6)) == 3


@given(plmaps, rationals)
def test_apply_inverse_inverts(f, q):
    assert f.apply_inverse(f.apply(q)) == q
    assert f.apply(f.apply_inverse(q)) == q


@given(plmaps, rationals, rationals)
def test_apply_is_strictly_increasing(f, a, b):
    if a < b:
        assert f.apply(a) < f.apply(b)


@given(plmaps, plmaps, rationals)
@example(F_SHARED, G_SHARED, Fraction(0))
@example(F_SHARED, H_SHARED, Fraction(0))
@example(F_SHARED, F_SHARED.inverse(), Fraction(0))
@example(G_SHARED, G_SHARED.inverse(), Fraction(0))
def test_compose_is_pointwise(f, g, q):
    h = f.compose(g)
    # every cut of either map and of the product, the midpoints between
    # them and a point beyond each end
    pts = sorted({q, *f.cuts, *g.cuts, *(g.apply_inverse(y) for y in f.cuts)})
    pts += [(a + b) / 2 for a, b in zip(pts, pts[1:])] + [pts[0] - 1, pts[-1] + 1]
    for x in pts:
        assert h.apply(x) == f.apply(g.apply(x))
    assert parse_pl(format_pl(h)) == h


@given(plmaps, plmaps, plmaps)
@settings(max_examples=40)
@example(F_SHARED, G_SHARED, H_SHARED)
@example(G_SHARED, H_SHARED, F_SHARED)
def test_group_laws(f, g, h):
    e = PLMap.identity()
    assert f.compose(g).compose(h) == f.compose(g.compose(h))
    assert f.compose(e) == f == e.compose(f)
    assert f.compose(f.inverse()) == e == f.inverse().compose(f)
    assert f.compose(g).inverse() == g.inverse().compose(f.inverse())


@given(plmaps, plmaps)
@settings(max_examples=40)
def test_conjugate(f, g):
    assert f.conjugate_by(g) == g.compose(f).compose(g.inverse())
    assert f.conjugate_by(PLMap.identity()) == f


def test_fixed_structure_examples():
    assert PLMap.identity().fixed_items() == [(NEG_INF, POS_INF)]
    assert PLMap.translation(1).fixed_items() == []
    d = PLMap(0, 0, (), (2,))
    assert d.fixed_items() == [(Fraction(0), Fraction(0))]
    # identity on (-inf, 0], doubling past 0
    f = PLMap(0, 0, (0,), (1, 2))
    assert f.fixed_items() == [(NEG_INF, Fraction(0))]


@given(plmaps, rationals)
def test_support_characterizes_movement(f, q):
    support = f.support()
    assert any(iv.contains(q) for iv in support) == (f.apply(q) != q)
    # nonempty components, left to right, pairwise disjoint
    assert all(not iv.is_empty() for iv in support)
    assert all(u.hi <= v.lo for u, v in zip(support, support[1:]))


ext_ends = st.one_of(rationals, st.just(NEG_INF), st.just(POS_INF))


@given(plmaps, ext_ends, ext_ends, rationals, rationals)
@example(F_SHARED, Fraction(0), Fraction(1), Fraction(1), Fraction(2))
@example(F_SHARED, NEG_INF, Fraction(0), Fraction(-1), Fraction(0))
def test_agrees_on_sees_a_bump(f, j0, j1, i0, i1):
    """f and f after a bump on J have equal clips to a nonempty interval
    exactly when it lies apart from J."""
    J = QInterval(min(j0, j1), max(j0, j1))
    if J.is_empty():
        return
    lo, hi = min(i0, i1), max(i0, i1)
    moved = f.compose(make_bump(J))
    if lo < hi:
        apart = hi <= J.lo or J.hi <= lo
        assert (f.clip(lo, hi) == moved.clip(lo, hi)) == apart
        assert (moved.clip(lo, hi) == f.clip(lo, hi)) == apart
        assert f.clip(lo, hi) == f.clip(lo, hi)
    if is_finite(J.lo):
        assert f.clip(NEG_INF, J.lo) == moved.clip(NEG_INF, J.lo)


def test_agrees_on_compares_the_slopes_after_shared_cuts():
    # same cuts and same first piece; the slopes after the cut at 0 differ
    f = PLMap(0, 0, [0, 1], [1, 2, 1])
    g = PLMap(0, 0, [0, 1], [1, 3, 1])
    assert f.clip(NEG_INF, Fraction(0)) == g.clip(NEG_INF, Fraction(0))
    for lo, hi in ((Fraction(-1), Fraction(1, 2)), (NEG_INF, POS_INF),
                   (Fraction(0), Fraction(1))):
        assert f.clip(lo, hi) != g.clip(lo, hi) and g.clip(lo, hi) != f.clip(lo, hi)


def reference_agrees_on(f: PLMap, g: PLMap, iv: QInterval) -> bool:
    """Equality on iv through the pieces: the same cuts inside iv, the same
    piece at its left end and the same slopes after each of those cuts."""
    if iv.is_empty():
        return True
    lo, hi = iv.lo, iv.hi
    cuts = f.cuts_in(lo, hi)
    if cuts != g.cuts_in(lo, hi) or f.germ(lo) != g.germ(lo):
        return False
    i, j, n = bisect_right(f.cuts, lo), bisect_right(g.cuts, lo), len(cuts)
    return f.slopes[i:i + n + 1] == g.slopes[j:j + n + 1]


def resloped(f: PLMap) -> PLMap:
    """f with its last slope doubled: the same cuts, a different last gap."""
    return PLMap(0, f.apply(0), f.cuts, [*f.slopes[:-1], 2 * f.slopes[-1]])


@given(plmaps, plmaps, rationals, rationals)
@example(F_SHARED, G_SHARED, Fraction(-1), Fraction(1, 2))
@example(PLMap.identity(), PLMap.translation(1), Fraction(0), Fraction(1))
def test_agrees_on_reads_the_storage_as_the_pieces_do(f, h, q, r):
    """On pairs that agree, differ by a constant, share their cuts but not
    their slopes, or are composed as the verifier composes them (h∘f and
    g∘h for g = h∘f∘h⁻¹, also with a bump after g∘h), over intervals with
    ends at ±∞, at cuts of either map and between them, with and without
    a cut inside: equal clips give the verdict of the pieces on a nonempty
    interval, and where hi ≤ lo equal clips are equal pieces right of lo."""
    g = f.conjugate_by(h)
    pairs = [(f, f), (f, h), (f, PLMap.translation(1).compose(f)), (f, resloped(f)),
             (f.compose(h), h.compose(f)), (f.compose(h), f.compose(resloped(h))),
             (h.compose(f), g.compose(h))]
    if q != r:
        bump = make_bump(QInterval(min(q, r), max(q, r)))
        pairs.append((h.compose(f), g.compose(h).compose(bump)))
    for g0, g1 in pairs:
        ends = sorted({NEG_INF, POS_INF, q, r, *g0.cuts, *g1.cuts})
        for lo in ends:
            for hi in ends:
                iv = QInterval(lo, hi)
                same = g0.clip(lo, hi) == g1.clip(lo, hi)
                assert same == (g1.clip(lo, hi) == g0.clip(lo, hi)), (g0, g1, iv)
                if iv.is_empty():
                    assert same == (g0.germ(lo) == g1.germ(lo)), (g0, g1, iv)
                else:
                    assert same == reference_agrees_on(g0, g1, iv), (g0, g1, iv)
                    assert same == reference_agrees_on(g1, g0, iv), (g0, g1, iv)


@given(plmaps)
def test_signed_support_signs(f):
    for iv, sign in f.signed_support():
        x = pick_fresh(iv)
        assert (f.apply(x) - x > 0) == (sign == 1)


def displacement_signs(f: PLMap) -> set[int]:
    """Signs (-1, 0, +1) attained by f(x) - x over all of ℚ, read off the
    pieces without the region walk: the reference for `comp_sem`."""
    signs: set[int] = set()
    ends = [NEG_INF, *f.cuts, POS_INF]
    for (m, c), lo, hi in zip(reference_pieces(f), ends, ends[1:]):
        # d(x) = (m-1)x + c is affine; its sign range on [lo, hi] is
        # determined by the (limit) values at the two ends.
        for end in (lo, hi):
            if is_finite(end):
                d = (m - 1) * end + c
                signs.add(0 if d == 0 else (1 if d > 0 else -1))
            else:
                s = m - 1 if m != 1 else c
                if end is NEG_INF:
                    s = -s if m != 1 else c
                if s == 0:
                    signs.add(0)
                else:
                    signs.add(1 if s > 0 else -1)
        if m != 1:
            x = c / (1 - m)
            if lo <= x <= hi:
                signs.add(0)
    return signs


@given(plmaps)
def test_displacement_signs(f):
    signs = displacement_signs(f)
    assert signs <= {-1, 0, 1}
    assert (0 in signs) == bool(f.fixed_items()) or f.is_identity()
    assert ({1, -1} & signs) == {s for _, s in f.signed_support()}
    # comp_sem reads the cached region walk; the piece scan is independent
    assert comp_sem(f) == (not ({1, -1} <= signs))


@given(plmaps)
def test_format_parse_roundtrip(f):
    assert parse_pl(format_pl(f)) == f


@given(plmaps)
@example(F_SHARED)
def test_image_cut_cache_is_invisible(f):
    images = tuple(f.apply(b) for b in f.cuts)
    assert f.image_cuts == images  # walked by the constructor
    inv = f.inverse()
    assert inv.cuts == images and inv.image_cuts == f.cuts
    for b, y in zip(f.cuts, images):
        assert f.apply_inverse(y) == b
        assert inv.apply_inverse(b) == y
    for m in (f, inv):
        fresh = parse_pl(format_pl(m))
        assert m == fresh and fresh == m
        assert hash(m) == hash(fresh)


@given(plmaps, plmaps)
@example(F_SHARED, G_SHARED)
def test_region_cache_is_invisible(f, g):
    def fresh(m):
        return parse_pl(format_pl(m))

    walked = f.regions()
    assert type(walked) is tuple and walked == fresh(f).regions()
    assert f.regions() is walked  # walked once, then shared
    signed, support = f.signed_support(), f.support()
    assert type(signed) is tuple and signed == fresh(f).signed_support()
    assert support == fresh(f).support()
    assert f.signed_support() is signed and f.support() is support
    f.compose(g), g.compose(f), f.inverse()  # use f
    assert f.regions() == fresh(f).regions() == walked
    assert f.signed_support() == fresh(f).signed_support() == signed
    assert f.support() == fresh(f).support() == support
    assert f.fixed_items() == fresh(f).fixed_items()
    assert f == fresh(f) and fresh(f) == f
    assert hash(f) == hash(fresh(f))


@given(plmaps, rationals)
@example(F_SHARED, Fraction(1, 2))
def test_cuts_in_is_the_cuts_strictly_inside(f, q):
    # lo and hi range over the map's own cuts, a random rational and ±∞,
    # in every order, so lo >= hi is covered too
    ends = [NEG_INF, POS_INF, q, *f.cuts]
    for lo in ends:
        for hi in ends:
            assert f.cuts_in(lo, hi) == tuple(c for c in f.cuts if lo < c < hi)


@given(plmaps, rationals)
@example(F_SHARED, Fraction(1, 2))
def test_germ_is_the_piece_right_of_x(f, q):
    mids = [(a + b) / 2 for a, b in zip(f.cuts, f.cuts[1:])]
    for x in [NEG_INF, POS_INF, q, *f.cuts, *mids]:
        assert f.germ(x) == reference_pieces(f)[sum(1 for c in f.cuts if c <= x)]


@given(plmaps)
@example(F_SHARED)
@example(PLMap.identity())
@example(make_bump(QInterval(Fraction(0), POS_INF)))
def test_regions_tile_the_line(f):
    regions = f.regions()
    assert regions[0][0] is NEG_INF and regions[-1][1] is POS_INF
    for (_, hi, sign), (lo, _, next_sign) in zip(regions, regions[1:]):
        assert hi == lo
        assert (sign == 0) != (next_sign == 0)  # fixed regions and orbitals alternate
    for lo, hi, sign in regions:
        assert sign in (-1, 0, 1) and (lo < hi if sign else lo <= hi)
    assert [(lo, hi) for lo, hi, sign in regions if not sign] == f.fixed_items()
    assert tuple((QInterval(lo, hi), sign)
                 for lo, hi, sign in regions if sign) == f.signed_support()


def test_parse_rejects_noncanonical():
    assert parse_pl("pl id") == PLMap.identity()
    with pytest.raises((PLMapError, ValueError)):
        parse_pl("pl cuts=[0] pieces=[(1,0)]")
    with pytest.raises((PLMapError, ValueError)):
        parse_pl("nonsense")


@pytest.mark.parametrize("pieces", ["(1,0) junk (2,0)", "(1,0)(2,0)", "(1,0),,(2,0)",
                                    "(1,0),(2,0),", "", "(1,0) (2,0)"])
def test_parse_rejects_text_between_pieces(pieces):
    with pytest.raises(PLMapError):
        parse_pl(f"pl cuts=[0] pieces=[{pieces}]")


def test_parse_allows_spaces_around_pieces():
    want = parse_pl("pl cuts=[0] pieces=[(1,0),(2,0)]")
    assert parse_pl("pl cuts=[0] pieces=[ ( 1 , 0 ) , (2,0) ]") == want


def test_hash_is_computed_once():
    f = parse_pl(format_pl(F_SHARED))
    assert f._hash is None
    h = hash(f)
    assert f._hash == h == hash((f.c0, f.cuts, f.slopes)) == hash(F_SHARED)
    assert hash(f) == h


@given(seeds, st.integers(0, 8))
@settings(max_examples=60)
def test_generator_is_deterministic_and_canonical(seed, complexity):
    f = gen_plmap(seed, complexity)
    assert f == gen_plmap(seed, complexity)
    assert len(f.cuts) <= complexity + 2
    # the constructor re-canonicalizes: building from raw data is a no-op
    assert PLMap(0, f.c0, f.cuts, f.slopes) == f


def test_make_bump_shapes():
    up = make_bump(QInterval(Fraction(0), Fraction(1)))
    (iv, sign), = up.signed_support()
    assert iv == QInterval(Fraction(0), Fraction(1)) and sign == 1
    down = make_bump(QInterval(Fraction(0), Fraction(1)), up=False)
    (iv, sign), = down.signed_support()
    assert iv == QInterval(Fraction(0), Fraction(1)) and sign == -1
    half = make_bump(QInterval(NEG_INF, Fraction(2)))
    (iv, _), = half.signed_support()
    assert iv == QInterval(NEG_INF, Fraction(2))
    assert make_bump(QInterval(NEG_INF, POS_INF)) == PLMap.translation(1)


@pytest.mark.parametrize("grid, count", [((0, 1), 41), ((0, 1, 2), 153)])
def test_grid_maps_list_each_map_of_the_grid_once(grid, count):
    """Each map is listed once and is canonical, and every finite end of
    its regions lies in the grid; the counts pin that none is missing."""
    maps = grid_maps(grid)
    assert len(maps) == len(set(maps)) == count
    for f in maps:
        assert_canonical(f)
        assert {e for lo, hi, _ in f.regions() for e in (lo, hi) if is_finite(e)} <= set(grid)


# -- the breakpoint storage against references written here ------------------

#: sha256 of the text of gen_plmap(s, 8) for s in 0..299, one map a line, as
#: the piece-storage implementation printed it
FORMAT_SHA256 = "2c60c500041f170d7a0fcd1376ab40812593ec550d04c499ed088ae2f47c8b83"


def ref_apply(f: PLMap, x: Fraction) -> Fraction:
    """f(x) read off the breakpoints: from the last cut at or left of x
    along its slope, or along the first piece's line through (0, c0)."""
    left = [(b, y) for b, y in zip(f.cuts, f.image_cuts) if b <= x]
    if not left:
        return f.c0 + f.slopes[0] * x
    b, y = left[-1]
    return y + f.slopes[len(left)] * (x - b)


def ref_apply_inverse(f: PLMap, y: Fraction) -> Fraction:
    left = [(b, v) for b, v in zip(f.cuts, f.image_cuts) if v <= y]
    if not left:
        return (y - f.c0) / f.slopes[0]
    b, v = left[-1]
    return b + (y - v) / f.slopes[len(left)]


def ref_regions(f: PLMap):
    """The region walk of the piece storage: fixed points from each piece
    (m, c), orbital signs from f(x) - x at one fresh point of each orbital."""
    fixed = []
    ends = [NEG_INF, *f.cuts, POS_INF]
    for (m, c), lo, hi in zip(reference_pieces(f), ends, ends[1:]):
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
    out, prev = [], NEG_INF
    for lo, hi in fixed + [(POS_INF, None)]:
        if prev < lo:
            x = pick_fresh(QInterval(prev, lo))
            d = ref_apply(f, x) - x
            assert d != 0
            out.append((prev, lo, 1 if d > 0 else -1))
        out.append((lo, hi, 0))
        prev = hi
    return tuple(out[:-1])


def probes(*point_sets):
    """The points, a point inside each gap between them and one beyond
    each end."""
    pts = sorted(set().union(*point_sets)) or [Fraction(0)]
    return pts + [(a + b) / 2 for a, b in zip(pts, pts[1:])] + [pts[0] - 1, pts[-1] + 1]


def assert_canonical(f: PLMap):
    assert all(type(x) is Rat for x in (f.c0, *f.cuts, *f.image_cuts, *f.slopes))
    assert len(f.slopes) == len(f.cuts) + 1 == len(f.image_cuts) + 1
    assert all(a < b for a, b in zip(f.cuts, f.cuts[1:]))
    assert all(m > 0 for m in f.slopes)
    assert all(a != b for a, b in zip(f.slopes, f.slopes[1:]))
    assert f.image_cuts == tuple(ref_apply(f, b) for b in f.cuts)
    assert [f.germ(x) for x in (NEG_INF, *f.cuts)] == list(reference_pieces(f))
    assert parse_pl(format_pl(f)) == f


def test_breakpoint_storage_on_seeded_triples():
    rnd = random.Random("breakpoint storage")
    for _ in range(300):
        f, g, h = (gen_plmap_rnd(rnd, 8) for _ in range(3))
        for m in (f, g, h):
            assert_canonical(m)
        fg = f.compose(g)
        assert_canonical(fg)
        pts = probes(fg.cuts, g.cuts, {ref_apply_inverse(g, y) for y in f.cuts})
        for x in pts:
            assert ref_apply(fg, x) == ref_apply(f, ref_apply(g, x)) == fg.apply(x)
        inv = h.inverse()
        assert_canonical(inv)
        assert inv.cuts == h.image_cuts and inv.image_cuts == h.cuts
        for y in probes(inv.cuts):
            assert ref_apply(inv, y) == ref_apply_inverse(h, y) == h.apply_inverse(y)
        conj = f.conjugate_by(g)
        assert_canonical(conj)
        pts = probes(conj.cuts, g.image_cuts, {ref_apply(g, b) for b in f.cuts},
                     {ref_apply(g, ref_apply_inverse(f, b)) for b in g.cuts})
        for y in pts:
            assert ref_apply(conj, y) == ref_apply(g, ref_apply(f, ref_apply_inverse(g, y)))
        for m in (f, g, h, fg, inv, conj):
            assert m.regions() == ref_regions(m)


def storage(f: PLMap):
    return f.cuts, f.image_cuts, f.slopes, f.c0


def test_group_operations_store_what_the_checked_constructor_builds():
    # compose and inverse write their storage unchecked; the constructor
    # rebuilds it from c0, cuts and slopes alone, merging any cut between
    # equal slopes and walking every image again
    rnd = random.Random("unchecked storage")
    e, t = PLMap.identity(), PLMap.translation(Fraction(-3, 2))
    pairs = [(F_SHARED, G_SHARED), (F_SHARED, H_SHARED)]
    for m in (F_SHARED, G_SHARED, H_SHARED, t, e):
        pairs += [(m, e), (e, m), (m, t), (t, m)]
    for _ in range(200):
        f, g, h = (gen_plmap_rnd(rnd, 8) for _ in range(3))
        pairs += [(f, g), (g, h), (f.compose(g), h)]
    for f, g in pairs:
        for h in (f.compose(g), f.inverse(), f.conjugate_by(g), g.conjugate_by(f)):
            assert_canonical(h)
            assert storage(PLMap(0, h.c0, h.cuts, h.slopes)) == storage(h)
        for h in (f.compose(f.inverse()), f.inverse().compose(f)):
            assert h.is_identity() and storage(h) == storage(e)
            assert_canonical(h)


def reference_restriction(y: PLMap, comps) -> PLMap:
    """The restriction built from pieces: y's germ at a fresh point of every
    gap that a kept component holds, the identity's elsewhere, through the
    checked constructor."""
    xs = sorted({b for iv in comps for b in (iv.lo, iv.hi, *y.cuts_in(iv.lo, iv.hi))
                 if is_finite(b)})
    germs = [y.germ(x) if any(iv.contains(x) for iv in comps) else (1, 0)
             for x in map(pick_fresh, gaps_of(xs))]
    return PLMap(0, germs[0][1], xs, [m for m, _ in germs])


# Y_MEET moves (0, 5) up and (5, 8) down; the isolated fixed point 5 lies
# inside its piece on [1, 7], so restricting to both orbitals merges there.
Y_MEET = PLMap(0, 0, [0, 1, 7, 8], [1, 3, Fraction(1, 2), 2, 1])
DOUBLING = PLMap(0, 0, [], [2])  # moves (-inf, 0) and (0, inf)


def test_restriction_stores_what_the_pieces_build():
    rnd = random.Random("restriction storage")
    up, down = Y_MEET.support()
    left, right = DOUBLING.support()
    cases = [
        (Y_MEET, [up, down]),                # meeting inside one piece of y
        (Y_MEET, [down, up, down, up]),      # unsorted, with repeats
        (Y_MEET, [up]), (Y_MEET, [down]),
        (DOUBLING, [left]), (DOUBLING, [right]),  # unbounded on either side
        (DOUBLING, [right, left]),
    ]
    meets = 0
    for _ in range(300):
        y = gen_plmap_rnd(rnd, 8)
        comps = list(y.support())
        cases += [(y, []), (y, comps)]
        kept = [iv for iv in comps if rnd.random() < 0.5]
        kept += rnd.sample(kept, len(kept) // 2)
        rnd.shuffle(kept)
        cases.append((y, kept))
        meets += any(a.hi == b.lo and a.hi not in y.cuts and a in kept and b in kept
                     for a, b in zip(comps, comps[1:]))
    assert meets > 10
    for y, comps in cases:
        x = y.restrict(comps)
        assert_canonical(x)
        assert storage(x) == storage(reference_restriction(y, comps))
        if not comps:
            assert storage(x) == storage(PLMap.identity())
        if set(comps) == set(y.support()):
            assert storage(x) == storage(y)


@given(plmaps, rationals, rationals)
@example(F_SHARED, Fraction(0), Fraction(1))
@example(PLMap.identity(), Fraction(0), Fraction(1))
def test_clip_is_the_map_on_the_interval(f, q, r):
    """Over every interval whose ends lie at ±∞, at f's cuts or at two
    more points, some holding no cut of f: the clip equals f inside,
    has f's values at the finite ends, has no cut outside, and stores what
    the checked constructor builds from its cuts and slopes.  At a single
    point it is f's piece right of it."""
    ends = sorted({NEG_INF, POS_INF, q, r, *f.cuts})
    for k, lo in enumerate(ends):
        for hi in ends[k + 1:]:
            c = f.clip(lo, hi)
            assert reference_agrees_on(c, f, QInterval(lo, hi)), (f, lo, hi)
            assert all(c.apply(x) == f.apply(x) for x in (lo, hi) if is_finite(x))
            assert all(lo < x < hi for x in c.cuts)
            assert_canonical(c)
            assert storage(PLMap(0, c.c0, c.cuts, c.slopes)) == storage(c)
    for x in ends[1:-1]:
        c = f.clip(x, x)
        assert c.cuts == () and reference_pieces(c) == (f.germ(x),)


def test_each_reader_of_a_piece_matches_the_reference_table():
    """germ, apply, apply_inverse and format_pl read one piece at a time
    off the storage; on seeded maps and maps without cuts each equals the
    piece table built all at once: the germs at -∞ and at every cut, the
    values at the cuts, between them and beyond both ends, the preimages
    of those values and the printed pieces."""
    rnd = random.Random("piece readers")
    no_cuts = [PLMap.identity(), PLMap.translation(Fraction(-3, 2)),
               PLMap(1, 2, (), (Fraction(5, 3),))]
    for f in [*(gen_plmap_rnd(rnd, 8) for _ in range(300)), *no_cuts]:
        pieces = reference_pieces(f)
        assert tuple(f.germ(x) for x in (NEG_INF, *f.cuts)) == pieces
        for x in probes(f.cuts):
            m, c = pieces[sum(1 for b in f.cuts if b <= x)]
            assert f.apply(x) == m * x + c
            assert f.apply_inverse(m * x + c) == x
        printed = ",".join(f"({m},{c})" for m, c in pieces)
        assert format_pl(f) == ("pl id" if f.is_identity() else
                                f"pl cuts=[{','.join(map(str, f.cuts))}] pieces=[{printed}]")


def test_text_format_is_unchanged():
    text = "\n".join(format_pl(gen_plmap(s, 8)) for s in range(300))
    assert hashlib.sha256(text.encode()).hexdigest() == FORMAT_SHA256


@pytest.mark.parametrize("cuts, slopes", [
    ([1, 0], [1, 2, 1]),      # cuts out of order
    ([0, 0], [1, 2, 1]),      # a repeated cut
    ([0], [1, 0]),            # a zero slope
    ([0], [-1, 1]),           # a negative slope
    ([0], [1]),               # too few slopes
    ([], [1, 2]),             # too many slopes
])
def test_constructor_refuses_bad_cuts_or_slopes(cuts, slopes):
    with pytest.raises(PLMapError):
        PLMap(0, 0, cuts, slopes)


@pytest.mark.parametrize("text", [
    "pl cuts=[0] pieces=[(1,0),(1,1)]",          # a jump at 0
    "pl cuts=[0] pieces=[(1,0),(2,1)]",          # a jump between slopes
    "pl cuts=[0] pieces=[(2,0),(2,0)]",          # adjacent equal pieces
    "pl cuts=[0,1] pieces=[(1,0),(2,0),(2,0)]",  # equal pieces after a cut
])
def test_parse_refuses_discontinuous_or_noncanonical_text(text):
    with pytest.raises(PLMapError):
        parse_pl(text)
