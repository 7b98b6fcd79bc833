from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qwi.numbers import (
    FULL_LINE, NEG_INF, POS_INF, IntervalSet, QInterval, format_ext,
    is_finite, parse_rational, pick_fresh,
)

rationals = st.fractions(max_denominator=50)


def test_infinity_order():
    assert NEG_INF < Fraction(-10**9) < POS_INF
    assert not NEG_INF < NEG_INF
    assert not POS_INF < POS_INF
    assert NEG_INF < POS_INF
    assert not is_finite(NEG_INF)
    assert is_finite(Fraction(0))


ext_rationals = st.one_of(rationals, st.integers(-50, 50),
                          st.sampled_from([NEG_INF, POS_INF]))


@given(st.lists(ext_rationals, max_size=12))
def test_extended_rationals_sort_without_a_key(xs):
    # the (sign, value) key that the order used to need
    def key(x):
        return (x.sign, 0) if x is NEG_INF or x is POS_INF else (0, x)

    assert [key(x) for x in sorted(xs)] == sorted(map(key, xs))
    if xs:
        assert key(max(xs)) == max(map(key, xs))
        assert key(min(xs)) == min(map(key, xs))


@given(rationals)
def test_rational_parse_format_roundtrip(q):
    assert parse_rational(str(q)) == q


def test_parse_ext():
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("q")


def test_format_ext():
    assert format_ext(POS_INF) == "inf"
    assert format_ext(NEG_INF) == "-inf"
    assert format_ext(Fraction(-1, 2)) == "-1/2"


@given(rationals, rationals)
def test_pick_fresh_in_gap(a, b):
    lo, hi = min(a, b), max(a, b)
    for gap in (QInterval(NEG_INF, lo), QInterval(hi, POS_INF), FULL_LINE):
        assert gap.contains(pick_fresh(gap))
    if lo < hi:
        gap = QInterval(lo, hi)
        assert gap.contains(pick_fresh(gap))


def test_pick_fresh_empty_gap():
    with pytest.raises(ValueError):
        pick_fresh(QInterval(Fraction(1), Fraction(1)))


def test_interval_basics():
    iv = QInterval(Fraction(0), Fraction(1))
    assert not iv.contains(Fraction(0))
    assert not iv.contains(Fraction(1))
    assert iv.contains(Fraction(1, 2))
    assert QInterval(Fraction(2), Fraction(1)).is_empty()


def test_interval_set_keeps_shared_endpoints_apart():
    s = IntervalSet([QInterval(Fraction(0), Fraction(1)),
                     QInterval(Fraction(1), Fraction(2))])
    assert len(s) == 2
    assert not s.contains(Fraction(1))
    assert s.contains(Fraction(1, 2)) and s.contains(Fraction(3, 2))


def test_interval_set_merges_overlaps():
    s = IntervalSet([QInterval(Fraction(0), Fraction(2)),
                     QInterval(Fraction(1), Fraction(3)),
                     QInterval(Fraction(10), Fraction(9))])
    assert s.items == (QInterval(Fraction(0), Fraction(3)),)


def test_interval_set_extrema():
    empty = IntervalSet()
    assert empty.is_empty()
    assert empty.sup() is NEG_INF and empty.inf() is POS_INF
    s = IntervalSet([QInterval(Fraction(0), Fraction(1)),
                     QInterval(Fraction(2), POS_INF)])
    assert s.inf() == Fraction(0) and s.sup() is POS_INF


def test_interval_set_relations():
    a = IntervalSet([QInterval(Fraction(0), Fraction(1))])
    b = IntervalSet([QInterval(Fraction(0), Fraction(2))])
    c = IntervalSet([QInterval(Fraction(1), Fraction(2))])
    assert a.is_subset_of(b) and not b.is_subset_of(a)
    assert a.intersects(b) and not a.intersects(c)
    assert IntervalSet([FULL_LINE]).is_full_line()
    assert not b.is_full_line()


@given(st.lists(st.tuples(rationals, rationals), max_size=6))
def test_interval_set_normal_form(pairs):
    ivs = [QInterval(min(a, b), max(a, b)) for a, b in pairs]
    s = IntervalSet(ivs)
    # sorted, disjoint, nonempty items; idempotent normalization
    for iv in s:
        assert not iv.is_empty()
    for x, y in zip(s.items, s.items[1:]):
        assert x.hi <= y.lo
    assert IntervalSet(s.items) == s
    # membership agrees with the raw union away from endpoints
    for iv in ivs:
        if not iv.is_empty():
            assert s.contains(pick_fresh(iv))
