import copy
import gc
import hashlib
import pickle
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qwi.generators import make_bump
from qwi.numbers import NEG_INF, POS_INF, QInterval
from qwi.plmap import PLMap
from qwi import patterns, suites
from qwi.patterns import (
    EMPTY, IRRATIONAL, MAX_ONLY, MIN_AND_MAX, MIN_ONLY, MINUS_INF,
    NO_MIN_NO_MAX, PLUS_INF, RATIONAL, SINGLETON,
    Fixed, Moving, OrbitalPattern, PatternError,
    canonical_pattern, classify_cofinal, enumerate_cores, enumerate_patterns,
    enumerate_tail_words, fixed_kind, format_pattern, has_inf_orbitals,
    inf_formula_holds, lemma21_decompose, make_pattern, mirror_pattern,
    pattern_is_valid, pattern_iso, pattern_of,
)

from helpers import gen_plmap

plmaps = st.builds(gen_plmap, st.integers(0, 10**6), st.integers(0, 6))


def remove_moving(blocks, i):
    """Pattern blocks after the i-th block (a Moving one) becomes fixed:
    its points merge with the neighbouring fixed regions into one region."""
    if not isinstance(blocks[i], Moving):
        raise PatternError(f"block {i} is {blocks[i]}, not a moving block")
    left = blocks[i - 1] if i > 0 else None
    right = blocks[i + 1] if i + 1 < len(blocks) else None
    has_min = left.has_min if isinstance(left, Fixed) else False
    has_max = right.has_max if isinstance(right, Fixed) else False
    merged = Fixed(fixed_kind(has_min, has_max))
    lo = i - 1 if left is not None else i
    hi = i + 2 if right is not None else i + 1
    return tuple(blocks[:lo]) + (merged,) + tuple(blocks[hi:])


def test_blocks_are_interned():
    """A block's constructor returns the one object for its fields, and a
    copy or a pickle round trip returns it again."""
    for b in BLOCKS:
        again = Moving(b.parity, b.left, b.right) if isinstance(b, Moving) else Fixed(b.kind)
        assert again is b
        assert copy.copy(b) is b and copy.deepcopy(b) is b
        assert pickle.loads(pickle.dumps(b)) is b
    with pytest.raises(AttributeError):
        BLOCKS[0].parity = -1


def test_enumeration_shares_the_24_blocks():
    out = list(enumerate_patterns(5, 3))
    blocks = [o for o in gc.get_objects() if isinstance(o, (Moving, Fixed))]
    assert len(out) == 19677
    assert sorted(type(b).__name__ for b in blocks) == ["Fixed"] * 6 + ["Moving"] * 18


def test_facing_table_is_the_facing_rule():
    for a in BLOCKS:
        for b in BLOCKS:
            assert (b in patterns._FACING[a]) == patterns._adjacent_ok(a, b), (a, b)


def test_block_validation():
    for _ in range(2):  # a refused block is not kept, so it is refused again
        with pytest.raises(PatternError):
            Moving(0, MINUS_INF, PLUS_INF)
        with pytest.raises(PatternError):
            Moving(1, PLUS_INF, RATIONAL)
        with pytest.raises(PatternError):
            Moving(1, RATIONAL, MINUS_INF)
        with pytest.raises(PatternError):
            Fixed("bogus")
    assert (len(Moving._made), len(Fixed._made)) == (18, 6)


def test_adjacency_rules():
    # a rational orbital endpoint must be an endpoint *of* the fixed region
    make_pattern([Moving(1, MINUS_INF, RATIONAL), Fixed(MIN_ONLY)])
    with pytest.raises(PatternError):
        make_pattern([Moving(1, MINUS_INF, RATIONAL), Fixed(NO_MIN_NO_MAX)])
    make_pattern([Moving(1, MINUS_INF, IRRATIONAL), Fixed(NO_MIN_NO_MAX)])
    with pytest.raises(PatternError):
        make_pattern([Moving(1, MINUS_INF, IRRATIONAL), Fixed(MIN_ONLY)])
    # two orbitals abut only across a fixed region (EMPTY for an irrational cut)
    with pytest.raises(PatternError):
        make_pattern([Moving(1, MINUS_INF, IRRATIONAL),
                      Moving(1, IRRATIONAL, PLUS_INF)])
    make_pattern([Moving(1, MINUS_INF, IRRATIONAL), Fixed(EMPTY),
                  Moving(1, IRRATIONAL, PLUS_INF)])


def test_edge_rules():
    with pytest.raises(PatternError):
        make_pattern([Moving(1, RATIONAL, PLUS_INF)])  # nothing left of it
    with pytest.raises(PatternError):
        make_pattern([Fixed(MIN_AND_MAX)])  # a closed region cannot reach both ends
    make_pattern([Fixed(NO_MIN_NO_MAX)])  # the identity pattern


def test_pattern_of_examples():
    ident = pattern_of(PLMap.identity())
    assert ident == make_pattern([Fixed(NO_MIN_NO_MAX)])
    trans = pattern_of(PLMap.translation(1))
    assert trans == make_pattern([Moving(1, MINUS_INF, PLUS_INF)])
    bump = pattern_of(make_bump(QInterval(Fraction(0), Fraction(1))))
    assert bump == make_pattern([Fixed(MAX_ONLY), Moving(1, RATIONAL, RATIONAL),
                                 Fixed(MIN_ONLY)])
    half = pattern_of(make_bump(QInterval(Fraction(0), POS_INF)))
    assert half == make_pattern([Fixed(MAX_ONLY), Moving(1, RATIONAL, PLUS_INF)])


def test_remove_moving_rejects_a_fixed_block():
    blocks = (Fixed(NO_MIN_NO_MAX), Moving(1, IRRATIONAL, PLUS_INF))
    assert remove_moving(blocks, 1) == (Fixed(NO_MIN_NO_MAX),)
    with pytest.raises(PatternError):
        remove_moving(blocks, 0)


def test_orbitals_of():
    f = make_bump(QInterval(Fraction(0), Fraction(1))).compose(
        make_bump(QInterval(Fraction(2), Fraction(3)), up=False))
    assert f.signed_support() == (
        (QInterval(Fraction(0), Fraction(1)), 1),
        (QInterval(Fraction(2), Fraction(3)), -1),
    )


@given(plmaps, plmaps)
@settings(max_examples=60)
def test_conjugate_maps_have_isomorphic_patterns(f, g):
    assert pattern_iso(pattern_of(f), pattern_of(f.conjugate_by(g)))


@given(plmaps)
def test_canonical_pattern_idempotent(f):
    p = pattern_of(f)
    assert canonical_pattern(canonical_pattern(p)) == canonical_pattern(p)
    assert pattern_iso(p, p)


def test_tail_canonicalization():
    w = (Moving(1, IRRATIONAL, IRRATIONAL), Fixed(EMPTY))
    doubled = make_pattern([Fixed(NO_MIN_NO_MAX)], right_tail=w + w)
    single = make_pattern([Fixed(NO_MIN_NO_MAX)], right_tail=w)
    assert pattern_iso(doubled, single)
    # a copy of the period absorbed into the core is still the same order
    shifted = make_pattern([Fixed(NO_MIN_NO_MAX)] + list(w), right_tail=w)
    assert pattern_iso(shifted, single)


def test_all_fixed_tail_collapses():
    with_tail = make_pattern([Moving(1, MINUS_INF, RATIONAL)],
                             right_tail=[Fixed(MIN_ONLY)])
    plain = make_pattern([Moving(1, MINUS_INF, RATIONAL), Fixed(MIN_ONLY)])
    assert pattern_iso(with_tail, plain)


def test_mirror_is_involutive_on_samples():
    for f in [PLMap.translation(2), make_bump(QInterval(Fraction(0), Fraction(1)))]:
        p = pattern_of(f)
        assert pattern_iso(mirror_pattern(mirror_pattern(p)), p)
    assert pattern_iso(mirror_pattern(pattern_of(make_bump(QInterval(Fraction(0), POS_INF)))),
                       pattern_of(make_bump(QInterval(NEG_INF, Fraction(0)))))


def test_mirror_is_an_involution_on_enumerated_patterns():
    for p in enumerate_patterns(4, 2):
        assert mirror_pattern(mirror_pattern(p)) == p, format_pattern(p)


def test_classify_cofinal_examples():
    right_rat = pattern_of(make_bump(QInterval(Fraction(0), POS_INF)))
    assert classify_cofinal(right_rat) == (1, "right", "rational")
    left_rat = pattern_of(make_bump(QInterval(NEG_INF, Fraction(0)), up=False))
    assert classify_cofinal(left_rat) == (-1, "left", "rational")
    irr = make_pattern([Fixed(NO_MIN_NO_MAX), Moving(1, IRRATIONAL, PLUS_INF)])
    assert classify_cofinal(irr) == (1, "right", "irrational")
    assert classify_cofinal(pattern_of(PLMap.translation(1))) is None
    assert classify_cofinal(pattern_of(PLMap.identity())) is None


def test_classify_cofinal_is_exhaustive_and_eightfold():
    ids = set()
    for p in enumerate_patterns(3, 2):
        cls = classify_cofinal(canonical_pattern(p))
        if cls is not None:
            ids.add(cls)
    assert len(ids) == 8
    assert ids == {(par, side, kind)
                   for par in (1, -1)
                   for side in ("left", "right")
                   for kind in ("rational", "irrational")}


def test_has_inf_orbitals():
    assert not has_inf_orbitals(pattern_of(PLMap.translation(1)))
    w = (Moving(1, IRRATIONAL, IRRATIONAL), Fixed(EMPTY))
    assert has_inf_orbitals(make_pattern([Fixed(NO_MIN_NO_MAX)], right_tail=w))


BLOCKS = [Moving(s, lo, hi) for s in (1, -1) for lo in (MINUS_INF, RATIONAL, IRRATIONAL)
          for hi in (PLUS_INF, RATIONAL, IRRATIONAL)] + [
    Fixed(k) for k in (EMPTY, SINGLETON, NO_MIN_NO_MAX, MIN_ONLY, MAX_ONLY, MIN_AND_MAX)]


INTERIOR = [b for b in BLOCKS if patterns._interior_ok(b)]


@st.composite
def words(draw, pool, sizes, first=lambda b: True, last=lambda b, word: True):
    """A word over `pool` in which each block is consistent with the one
    before it.  The first block satisfies `first`, and the last satisfies
    `last(block, word so far)` wherever some block can."""
    word = []
    n = draw(st.sampled_from(sizes))
    for i in range(n):
        options = [b for b in pool
                   if (patterns._adjacent_ok(word[-1], b) if word else first(b))]
        if i == n - 1:
            options = [b for b in options if last(b, word)] or options
        if not options:
            break
        word.append(draw(st.sampled_from(options)))
    return tuple(word)


@st.composite
def tailed_patterns(draw):
    """Patterns with a left tail, a right tail or both; most are valid."""
    adj = patterns._adjacent_ok
    tail = words(INTERIOR, [2, 4], last=lambda b, word: adj(b, word[0]))
    rt = draw(tail) if draw(st.booleans()) else None
    lt = draw(tail) if rt is None or draw(st.booleans()) else None
    core = draw(words(
        BLOCKS, [0, 1, 2, 3],
        first=lambda b: adj(lt[-1], b) if lt else patterns._left_edge_ok(b),
        last=lambda b, word: adj(b, rt[0]) if rt else patterns._right_edge_ok(b)))
    return OrbitalPattern(lt, core, rt)


def _mirror_law(p):
    """Mirroring keeps validity, commutes with canonical form up to
    isomorphism, and swaps the side of a cofinal class."""
    m = mirror_pattern(p)
    assert pattern_is_valid(m), format_pattern(p)
    assert pattern_iso(mirror_pattern(canonical_pattern(p)), m), format_pattern(p)
    cls = classify_cofinal(p)
    flip = {"left": "right", "right": "left"}
    assert classify_cofinal(m) == (cls and (cls[0], flip[cls[1]], cls[2])), format_pattern(p)


def test_mirror_law_on_every_enumerated_pattern():
    for p in enumerate_patterns(5, 3):
        _mirror_law(p)


@given(tailed_patterns().filter(pattern_is_valid))
@settings(max_examples=300)
def test_mirror_law_on_drawn_tailed_patterns(p):
    _mirror_law(p)


def test_two_tails_with_no_core_meet_at_one_seam():
    m, n = Moving(1, IRRATIONAL, IRRATIONAL), Moving(-1, IRRATIONAL, IRRATIONAL)
    f = Fixed(NO_MIN_NO_MAX)
    # both denote the ℤ-indexed alternation … M F M F …
    assert pattern_iso(make_pattern([], [m, f], [m, f]), make_pattern([], [f, m], [f, m]))
    # … M F M F | N F N F …, the second with its seam one block further left
    assert pattern_iso(make_pattern([], [m, f], [n, f]), make_pattern([], [f, m], [f, n]))
    assert not pattern_iso(make_pattern([], [m, f], [n, f]), make_pattern([], [m, f], [m, f]))


def test_tail_shift_keeps_the_fixed_points_of_the_tail():
    """When each period of the tail holds one orbital, the restriction g
    keeps them all, so g is p itself: a singleton fixed region stays a
    point."""
    p = make_pattern([Fixed(MAX_ONLY)],
                     right_tail=[Moving(1, RATIONAL, RATIONAL), Fixed(SINGLETON)])
    g1, g2, g = lemma21_decompose(p)
    assert g == p
    assert g2 == make_pattern([Fixed(MAX_ONLY)], right_tail=p.right_tail)
    assert lemma21_decompose(mirror_pattern(p))[2] == mirror_pattern(p)


def test_inf_formula_holds_on_every_tail_of_up_to_four_blocks():
    """A four-block tail word can repeat its first orbital's class with
    different regions between; the restriction keeps one orbital a period.
    48 of the 52 tails have a period of two orbitals, which the lemma suites
    at (5, 3) never meet, so Lemma 2.1's restriction and shift are checked
    on them here too."""
    tails = [p for w in enumerate_tail_words(4)
             if pattern_is_valid(p := OrbitalPattern(None, (), w)) and has_inf_orbitals(p)]
    assert len(tails) == 52
    for p in tails + list(map(mirror_pattern, tails)):
        assert inf_formula_holds(p), format_pattern(p)
        assert suites._lemma21_failure(p) is None


def test_empty_tail_word_is_refused():
    core = (Fixed(NO_MIN_NO_MAX),)
    for lt, rt in (((), None), (None, ())):
        with pytest.raises(PatternError, match="empty"):
            make_pattern(core, lt, rt)
        assert not pattern_is_valid(OrbitalPattern(lt, core, rt))


def test_enumeration_yields_valid_unique_canonical_patterns():
    seen = set()
    n = 0
    for p in enumerate_patterns(2, 1):
        n += 1
        seen.add(format_pattern(canonical_pattern(p)))
    assert n > 0
    assert len(seen) <= n


def _triple_loop(core_max, tail_max):
    """The enumeration as a plain filter over every (left tail, core,
    right tail) triple, then over every tail-only pair."""
    tails = [None] + list(enumerate_tail_words(tail_max))
    out = [p for core in enumerate_cores(core_max) for lt in tails for rt in tails
           if pattern_is_valid(p := OrbitalPattern(lt, core, rt))]
    out += [p for lt in tails for rt in tails if lt is not None or rt is not None
            if pattern_is_valid(p := OrbitalPattern(lt, (), rt))]
    return out


@pytest.mark.parametrize("core_max,tail_max", [(2, 1), (3, 2), (4, 2)])
def test_seam_product_matches_the_triple_loop(core_max, tail_max, monkeypatch):
    calls = [0]

    def counting(p):
        calls[0] += 1
        return pattern_is_valid(p)

    monkeypatch.setattr(patterns, "pattern_is_valid", counting)
    assert list(enumerate_patterns(core_max, tail_max)) == _triple_loop(core_max, tail_max)
    # each core filters each side's tails once; only the tail-only pairs
    # are filtered as pairs
    tails = 1 + len(list(enumerate_tail_words(tail_max)))
    cores = len(list(enumerate_cores(core_max)))
    assert calls[0] <= cores * 2 * tails + tails ** 2


def test_lemma21_on_every_omega_class_with_tails_of_up_to_four_blocks(monkeypatch):
    """Every ω-class of `enumerate_patterns(1, 4)`: 15,906 of the 17,358
    decompose a tail whose period holds two orbitals, which the lemma
    suites at (5, 3) never meet.  Both public readings agree with the
    uncached Lemma 2.1, and its table misses once per (side, tail word)."""
    table = patterns._lemma21
    table.cache_clear()
    classes = list(filter(has_inf_orbitals, suites._canonical_patterns(1, 4)))
    keys = set()
    two = 0
    for c in classes:
        key = ("right", c.right_tail) if c.right_tail is not None else ("left", c.left_tail)
        keys.add(key)
        two += sum(isinstance(b, Moving) for b in key[1]) == 2
        assert suites._lemma21_failure(c) is None, format_pattern(c)
        assert inf_formula_holds(c), format_pattern(c)
        assert (lemma21_decompose(c), inf_formula_holds(c)) == table.__wrapped__(*key)
    assert (len(classes), two, len(keys)) == (17358, 15906, 432)
    info = table.cache_info()
    assert info.misses == len(keys) and info.currsize <= info.maxsize == patterns._LEMMA21_BOUND
    # A mirror that rebuilds every fixed region from its ends, so that
    # F(single) reads as F(minmax) and F(empty) as F(open), fills the table
    # for the left tails.  The check reverses left tails with its own code,
    # so it refuses the mutant's entries while the mutant is still in place.
    # Where a region merges with its neighbours the ends are all that count,
    # so the mutant changes 4 entries, and the check refuses those 4.
    mirror = patterns._mirror_block
    left = [c for c in classes if c.right_tail is None]
    try:
        with monkeypatch.context() as m:
            m.setattr(patterns, "_mirror_block", lambda b: Fixed(fixed_kind(b.has_max, b.has_min))
                      if isinstance(b, Fixed) else mirror(b))
            table.cache_clear()
            caught = [c for c in left if suites._lemma21_failure(c) is not None]
        wrong = [c for c in left if lemma21_decompose(c) != table.__wrapped__("left", c.left_tail)[0]]
    finally:
        table.cache_clear()
    assert len(wrong) == 4 and caught == wrong


@pytest.mark.parametrize("core_max,tail_max", [(3, 2), (4, 2), (5, 3)])
def test_partners_are_filtered_once_per_end_pair(core_max, tail_max, monkeypatch):
    calls = [0]

    def counting(p):
        calls[0] += 1
        return pattern_is_valid(p)

    monkeypatch.setattr(patterns, "pattern_is_valid", counting)
    for _ in enumerate_patterns(core_max, tail_max):
        pass
    # each side's tails once per pair of core end blocks, then every
    # tail-only pair but (None, None)
    tails = 1 + len(list(enumerate_tail_words(tail_max)))
    ends = {(core[0], core[-1]) for core in enumerate_cores(core_max)}
    assert calls[0] == 2 * tails * len(ends) + tails ** 2 - 1


def test_census_sequence_is_pinned():
    """The exact sequence of `enumerate_patterns(5, 3)`, which the
    benchmark's census reads task by task."""
    out = list(enumerate_patterns(5, 3))
    text = "\n".join(map(format_pattern, out)) + "\n"
    assert len(out) == 19677
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0a58bf550f856bf2bbfc67f37215980acc07aa3c2b0bcd8724f2d099793f12d4")


def test_no_finite_restriction_is_isomorphic_to_itself_minus_an_orbital():
    """The restriction search behind `inf` on tail-free patterns: keep a set
    of orbitals, drop one more, compare.  It finds no isomorphic pair."""
    finite = {format_pattern(c): c for c in map(canonical_pattern, enumerate_patterns(4, 2))
              if c.left_tail is None and c.right_tail is None}
    assert finite
    for c in finite.values():
        mov = [i for i, b in enumerate(c.core) if isinstance(b, Moving)]
        for k in range(1, len(mov) + 1):
            for keep in combinations(mov, k):
                y = c.core
                for i in reversed([i for i in mov if i not in keep]):
                    y = remove_moving(y, i)
                for i, b in enumerate(y):
                    if isinstance(b, Moving):
                        assert not pattern_iso(make_pattern(y), make_pattern(remove_moving(y, i)))
        assert inf_formula_holds(c) is False, format_pattern(c)
