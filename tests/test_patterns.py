from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qwi.generators import gen_plmap, make_bump
from qwi.numbers import NEG_INF, POS_INF, QInterval
from qwi.plmap import PLMap
from qwi.patterns import (
    EMPTY, IRRATIONAL, MAX_ONLY, MIN_AND_MAX, MIN_ONLY, MINUS_INF,
    NO_MIN_NO_MAX, PLUS_INF, RATIONAL, SINGLETON,
    Fixed, Moving, PatternError,
    canonical_pattern, classify_cofinal, enumerate_patterns, format_pattern,
    has_inf_orbitals, make_pattern, mirror_pattern, parse_pattern,
    pattern_iso, pattern_of, remove_moving,
)

plmaps = st.builds(gen_plmap, st.integers(0, 10**6), st.integers(0, 6))


def test_block_validation():
    with pytest.raises(PatternError):
        Moving(0, MINUS_INF, PLUS_INF)
    with pytest.raises(PatternError):
        Moving(1, PLUS_INF, RATIONAL)
    with pytest.raises(PatternError):
        Fixed("bogus")


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


@given(plmaps)
def test_format_parse_roundtrip(f):
    p = pattern_of(f)
    assert parse_pattern(format_pattern(p)) == p


def test_parse_pattern_with_tails():
    text = format_pattern(make_pattern(
        [Fixed(NO_MIN_NO_MAX)],
        right_tail=(Moving(1, IRRATIONAL, IRRATIONAL), Fixed(EMPTY))))
    assert parse_pattern(text) is not None
    with pytest.raises((PatternError, ValueError)):
        parse_pattern("garbage")


def test_enumeration_yields_valid_unique_canonical_patterns():
    seen = set()
    n = 0
    for p in enumerate_patterns(2, 1):
        n += 1
        seen.add(format_pattern(canonical_pattern(p)))
    assert n > 0
    assert len(seen) <= n
