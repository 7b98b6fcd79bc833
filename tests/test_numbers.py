from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qwi.generators import make_bump
from qwi.numbers import (
    FULL_LINE, NEG_INF, POS_INF, QInterval, format_ext,
    gaps_of, is_finite, parse_rational, pick_fresh,
)
from qwi.plmap import PLMap
from qwi.predicates import apart_sem, cont_sem, coterm_sem, disj_sem

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


@pytest.mark.parametrize("text", ["1e5", "1.5", "1_000", "1 / 2", "1/-2", "/2", ""])
def test_parse_rational_takes_only_integers_and_fractions(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_parse_rational_syntax():
    assert parse_rational(" -3/4 ") == Fraction(-3, 4)
    assert parse_rational("+2") == 2
    assert parse_rational("6/4") == Fraction(3, 2)


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


def test_gaps_of_cuts_its_ends_at_the_points():
    one, two = Fraction(1), Fraction(2)
    assert gaps_of([one, two], Fraction(0), Fraction(3)) == [
        QInterval(Fraction(0), one), QInterval(one, two), QInterval(two, Fraction(3))]
    assert gaps_of([], NEG_INF, one) == [QInterval(NEG_INF, one)]
    assert gaps_of([one]) == [QInterval(NEG_INF, one), QInterval(one, POS_INF)]


def test_pick_fresh_empty_gap():
    with pytest.raises(ValueError):
        pick_fresh(QInterval(Fraction(1), Fraction(1)))


def test_interval_basics():
    iv = QInterval(Fraction(0), Fraction(1))
    assert not iv.contains(Fraction(0))
    assert not iv.contains(Fraction(1))
    assert iv.contains(Fraction(1, 2))
    assert QInterval(Fraction(2), Fraction(1)).is_empty()


# A support is the tuple of its open components, so the relations between
# interval sets are read through the oracles on bumps.

def bump(lo, hi):
    return make_bump(QInterval(lo, hi))


def test_interval_set_keeps_shared_endpoints_apart():
    left, right = bump(Fraction(0), Fraction(1)), bump(Fraction(1), Fraction(2))
    both = left.compose(right)
    assert both.support() == (QInterval(Fraction(0), Fraction(1)),
                              QInterval(Fraction(1), Fraction(2)))
    assert both.apply(Fraction(1)) == 1
    assert disj_sem(left, right)
    assert not disj_sem(both, left) and not disj_sem(both, right)


def test_interval_set_extrema():
    ident = PLMap.identity()
    assert ident.support() == ()
    assert apart_sem(ident, ident) and apart_sem(ident, PLMap.translation(1))
    low, high = bump(Fraction(0), Fraction(1)), bump(Fraction(2), POS_INF)
    assert apart_sem(low, high) and apart_sem(high, low)
    assert not apart_sem(low.compose(high), bump(Fraction(1, 2), Fraction(3, 2)))
    # the extrema of a support are its first and last components' ends
    spread = low.compose(bump(Fraction(4), Fraction(5)))
    assert not apart_sem(spread, bump(Fraction(2), Fraction(3)))
    assert apart_sem(spread, bump(Fraction(5), Fraction(6)))


def test_interval_set_relations():
    a = bump(Fraction(0), Fraction(1))
    b = bump(Fraction(0), Fraction(2))
    c = bump(Fraction(1), Fraction(2))
    assert cont_sem(a, b) and not cont_sem(b, a)
    assert not disj_sem(a, b) and disj_sem(a, c)
    assert coterm_sem(PLMap.translation(1))
    assert not coterm_sem(b)
