import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qwi.conjugacy import conjugating_witness
from qwi.generators import gen_plmap_rnd, make_bump
from qwi.numbers import (
    FULL_LINE, NEG_INF, POS_INF, QInterval, Rat, format_ext,
    gaps_of, is_finite, parse_rational, pick_fresh, spread,
)
from qwi.plmap import PLMap
from qwi.predicates import apart_sem, cont_sem, coterm_sem, disj_sem

from helpers import contains

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
        assert contains(gap, pick_fresh(gap))
    if lo < hi:
        gap = QInterval(lo, hi)
        assert contains(gap, pick_fresh(gap))


def test_pick_fresh_is_the_midpoint_a_step_in_or_zero():
    half = Fraction(1, 2)
    assert pick_fresh(QInterval(half, 3 * half)) == 1
    assert pick_fresh(QInterval(half, POS_INF)) == 3 * half
    assert pick_fresh(QInterval(NEG_INF, half)) == -half
    assert pick_fresh(FULL_LINE) == 0
    assert spread(FULL_LINE, 3) == [0, 1, 2]


def test_gaps_of_cuts_its_ends_at_the_points():
    one, two = Fraction(1), Fraction(2)
    assert gaps_of([one, two]) == [
        QInterval(NEG_INF, one), QInterval(one, two), QInterval(two, POS_INF)]
    assert gaps_of([]) == [QInterval(NEG_INF, POS_INF)]
    assert gaps_of([one]) == [QInterval(NEG_INF, one), QInterval(one, POS_INF)]


def test_pick_fresh_empty_gap():
    with pytest.raises(ValueError):
        pick_fresh(QInterval(Fraction(1), Fraction(1)))


def test_interval_basics():
    iv = QInterval(Fraction(0), Fraction(1))
    assert not contains(iv, Fraction(0))
    assert not contains(iv, Fraction(1))
    assert contains(iv, Fraction(1, 2))
    assert QInterval(Fraction(2), Fraction(1)).is_empty()


# A support is the tuple of its open components, so the relations between
# interval sets are read through the oracles on bumps.

def bump(lo, hi):
    return make_bump(QInterval(lo, hi))


def test_interval_set_keeps_shared_endpoints_apart():
    left, right = bump(Fraction(0), Fraction(1)), bump(Fraction(1), Fraction(2))
    both = left.compose(right)
    assert [iv for iv, _ in both.signed_support()] == [QInterval(Fraction(0), Fraction(1)),
                                                      QInterval(Fraction(1), Fraction(2))]
    assert both.apply(Fraction(1)) == 1
    assert disj_sem(left, right)
    assert not disj_sem(both, left) and not disj_sem(both, right)


def test_interval_set_extrema():
    ident = PLMap.identity()
    assert ident.signed_support() == ()
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


# `Rat` against `fractions.Fraction`: every operation that `Rat` computes on
# its own must give Fraction's value, in lowest terms, and a `Rat`.

def _operands(seed: int, n: int = 60) -> list:
    """Seeded `Rat`, `Fraction` and `int` operands: zero, negatives, large
    numerators and denominators."""
    rnd = random.Random(seed)
    out = [Rat(0), Fraction(0), 0, 1, -1, Rat(-7, 3), Fraction(10**30 + 1, 7)]
    while len(out) < n:
        num = rnd.choice([rnd.randint(-9, 9), rnd.randint(-10**25, 10**25)])
        den = rnd.choice([1, rnd.randint(1, 12), rnd.randint(1, 10**20)])
        out.append(rnd.choice([Rat, Fraction, lambda p, q: p // q])(num, den))
    return out


def _same(got, want) -> bool:
    """Equal value in lowest terms, equal hash, and a `Rat`; read through
    `numerator`/`denominator`, not through `Rat.__eq__`."""
    return (type(got) is Rat and hash(got) == hash(want)
            and (got.numerator, got.denominator) == (want.numerator, want.denominator))


def _fraction(x):
    return Fraction(x) if isinstance(x, Fraction) else x


ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]
COMPARISONS = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt,
               operator.ge]


@pytest.mark.parametrize("seed", [0, 1])
def test_rat_arithmetic_matches_fraction_in_both_orders(seed):
    xs = _operands(seed)
    rats = [x for x in xs if type(x) is Rat]
    for a in rats:
        for b in xs:
            fa, fb = Fraction(a), _fraction(b)
            for op in ARITHMETIC:
                for x, y, fx, fy in ((a, b, fa, fb), (b, a, fb, fa)):
                    if op is operator.truediv and not fy:
                        with pytest.raises(ZeroDivisionError):
                            op(x, y)
                        continue
                    assert _same(op(x, y), op(fx, fy)), (op, x, y)
            for op in COMPARISONS:
                assert op(a, b) is op(fa, fb), (op, a, b)
                assert op(b, a) is op(fb, fa), (op, b, a)
        assert _same(-a, -Fraction(a))
        for k in range(-3, 4):
            if not a and k < 0:
                with pytest.raises(ZeroDivisionError):
                    a ** k
            else:
                assert _same(a ** k, Fraction(a) ** k), (a, k)


def test_rat_orders_against_the_infinities_from_both_sides():
    for q in (Rat(0), Rat(-10**30, 7), Rat(5, 3)):
        assert NEG_INF < q < POS_INF and POS_INF > q > NEG_INF
        assert q > NEG_INF and q < POS_INF and NEG_INF <= q <= POS_INF
        assert q >= NEG_INF and q <= POS_INF
        assert not q < NEG_INF and not q > POS_INF and not POS_INF < q
        assert q != POS_INF and NEG_INF != q and not q == NEG_INF


def test_rat_is_a_fraction_with_fractions_text_and_hash():
    q = Rat(6, -4)
    assert isinstance(q, Fraction) and str(q) == "-3/2"
    assert q == Fraction(-3, 2) and hash(q) == hash(Fraction(-3, 2))
    assert {Fraction(-3, 2): 1}[q] == 1 and Rat(4, 2) == 2 and hash(Rat(4, 2)) == hash(2)
    with pytest.raises(ZeroDivisionError):
        Rat(1, 3) / 0
    assert Rat(1, 2) + 0.25 == 0.75 and 0.25 + Rat(1, 2) == 0.75  # floats fall back


def _all_rats(f: PLMap) -> bool:
    return all(type(x) is Rat for x in (f.c0, *f.cuts, *f.image_cuts, *f.slopes))


def test_maps_and_conjugators_compute_in_rat():
    """The rationals of the group operations stay `Rat`, also on a map
    built from `Fraction` and `int` values."""
    rnd = random.Random(0)
    given = PLMap(0, Fraction(1), [Fraction(-1), 2], [Fraction(1, 2), 1, 3])
    assert _all_rats(given)
    for _ in range(40):
        f, g = gen_plmap_rnd(rnd, 5), rnd.choice([gen_plmap_rnd(rnd, 5), given])
        for h in (f, f.compose(g), f.inverse(), f.conjugate_by(g)):
            assert _all_rats(h), h
        w = conjugating_witness(f, f.conjugate_by(g))
        w_inv = w.inverse()
        for x in (Fraction(1, 3), 2, Rat(-5, 2)):
            assert type(f.apply(x)) is Rat and type(f.apply_inverse(x)) is Rat
            assert type(w.apply(x)) is Rat and type(w_inv.apply(x)) is Rat
    one = Fraction(1)
    for gap in (FULL_LINE, QInterval(one, POS_INF), QInterval(NEG_INF, one),
                QInterval(Fraction(0), one)):
        assert type(pick_fresh(gap)) is Rat
    assert type(parse_rational("3")) is Rat and type(parse_rational("-6/4")) is Rat
