"""Acceptance gate: the end-to-end properties the package promises, at the
scales they are promised at.  Every check is exact — no float tolerances."""

import random
import time
from fractions import Fraction
from itertools import combinations, product

from qwi import predicates as P
from qwi.conjugacy import conjugating_witness, verify_conjugator
from qwi.corpus import load_corpus
from qwi.formulas import parse_wmso, qdepth
from qwi.generators import gen_plmap_rnd
from qwi.interp import (
    encode_finite_set, encode_finite_set_alt, encode_rational, pullback_eval,
    translate,
)
from qwi.numbers import NEG_INF, POS_INF
from qwi.patterns import (
    canonical_pattern, classify_cofinal, enumerate_patterns, format_pattern,
    has_inf_orbitals, inf_formula_holds, lemma21_decompose, pattern_iso,
    pattern_of,
)
from qwi.plmap import PLMap
from qwi.wmso import EMPTY, brute_eval, decide


def test_criterion_1_group_calculus_at_scale():
    """Group laws, support covariance under conjugation, and restriction
    witnesses hold exactly on 10^4 seeded maps of complexity <= 8, < 60 s."""
    t0 = time.monotonic()
    rnd = random.Random("acceptance:group-calculus")
    maps = [gen_plmap_rnd(rnd, 8) for _ in range(10_000)]
    ident = PLMap.identity()
    for i in range(0, len(maps) - 2, 3):
        f, g, h = maps[i], maps[i + 1], maps[i + 2]
        assert f.compose(g).compose(h) == f.compose(g.compose(h))
        assert f.compose(f.inverse()) == ident
        assert f.compose(ident) == f == ident.compose(f)
        assert f.compose(g).inverse() == g.inverse().compose(f.inverse())
    for i, f in enumerate(maps):
        g = maps[(i + 1) % len(maps)]
        conj = f.conjugate_by(g)
        want = sorted(
            (g.apply(iv.lo) if iv.lo is not NEG_INF else NEG_INF,
             g.apply(iv.hi) if iv.hi is not POS_INF else POS_INF, s)
            for iv, s in f.signed_support())
        got = sorted((iv.lo, iv.hi, s) for iv, s in conj.signed_support())
        assert want == got
        comps = [iv for iv, _ in f.signed_support()]
        if comps:
            keep = comps[::2]
            x = P.restrict_map(f, keep)
            z = P.restr_witness(x, f)
            assert z is not None
            assert P.disj_sem(x, z) and x.compose(z) == f
    assert time.monotonic() - t0 < 60


def test_criterion_2_conjugacy_criterion_with_verified_witnesses():
    """On 10^3 random pairs, a conjugating witness exists iff the orbital
    patterns are isomorphic, and every returned witness verifies exactly."""
    rnd = random.Random("acceptance:conjugacy")
    for i in range(1000):
        f = gen_plmap_rnd(rnd, 5)
        if i % 2 == 0:
            g = f.conjugate_by(gen_plmap_rnd(rnd, 5))
        else:
            g = gen_plmap_rnd(rnd, 5)
        iso = pattern_iso(pattern_of(f), pattern_of(g))
        w = conjugating_witness(f, g)
        assert (w is not None) == iso, (f, g)
        if w is not None:
            assert verify_conjugator(w, f, g), (f, g)


def test_criterion_3_exactly_eight_cofinal_classes():
    """Exhaustive enumeration of cofinal patterns yields exactly 8 class ids."""
    ids = set()
    for p in enumerate_patterns(3, 2):
        cls = classify_cofinal(canonical_pattern(p))
        if cls is not None:
            ids.add(cls)
    assert ids == {(par, side, kind)
                   for par in (1, -1)
                   for side in ("left", "right")
                   for kind in ("rational", "irrational")}
    assert len(ids) == 8


def _canonical_universe(core_max, tail_max):
    seen = {}
    for p in enumerate_patterns(core_max, tail_max):
        c = canonical_pattern(p)
        seen.setdefault(format_pattern(c), c)
    return list(seen.values())


def test_criterion_4_inf_formula_matches_orbital_count():
    """The pattern-level inf formula agrees with having infinitely many
    orbitals, exhaustively for cores <= 5 and tail words <= 3 blocks."""
    universe = _canonical_universe(5, 3)
    truths = set()
    for c in universe:
        want = has_inf_orbitals(c)
        truths.add(want)
        assert inf_formula_holds(c) == want, format_pattern(c)
    assert truths == {True, False}


def test_criterion_5_tail_patterns_decompose():
    """Every pattern with infinitely many orbitals in the same enumeration
    splits as an orbital times a remainder isomorphic to the whole."""
    universe = _canonical_universe(5, 3)
    n = 0
    for c in universe:
        if not has_inf_orbitals(c):
            continue
        n += 1
        res = lemma21_decompose(c)
        assert res is not None, format_pattern(c)
        g1, g2, g = res
        assert pattern_iso(g, g2), format_pattern(c)
    assert n > 0


def test_criterion_6_encoding_fidelity():
    """All 64 subsets of {-2,-1,0,1/2,1,2} and a 12-point pool: encodings
    are finrational, membership matches set membership for both encoder
    variants and both point sides, and sameset matches set equality."""
    base = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2),
            Fraction(1), Fraction(2)]
    pool = base + [Fraction(-3), Fraction(-1, 2), Fraction(1, 4),
                   Fraction(3, 2), Fraction(3), Fraction(5)]
    assert len(pool) == 12
    subsets = [frozenset(c) for r in range(len(base) + 1)
               for c in combinations(base, r)]
    assert len(subsets) == 64
    encoded = {}
    for S in subsets:
        for enc in (encode_finite_set, encode_finite_set_alt):
            g = enc(S)
            encoded[(S, enc)] = g
            assert P.finrational_sem(g)
            for q, side in product(pool, ("left", "right")):
                assert P.member_sem(encode_rational(q, side), g) == (q in S)
    for S1, S2 in product(subsets[:16], subsets[:16]):
        assert P.sameset_sem(encoded[(S1, encode_finite_set)],
                             encoded[(S2, encode_finite_set_alt)]) == (S1 == S2)
    for S in subsets:
        assert P.sameset_sem(encoded[(S, encode_finite_set)],
                             encoded[(S, encode_finite_set_alt)])


def test_criterion_7_interpretation_roundtrip_on_corpus():
    """Direct truth equals the pullback of the compiled sentence for every
    corpus sentence, under both orientations, in < 10 minutes."""
    t0 = time.monotonic()
    entries = load_corpus()
    assert len(entries) >= 20
    for truth, text, note in entries:
        phi = parse_wmso(text)
        psi = translate(phi)
        direct = decide(phi)
        assert direct == truth, (text, note)
        for side in ("right", "left"):
            assert pullback_eval(psi, orientation=side) == direct, (text, side)
    assert time.monotonic() - t0 < 600


def test_criterion_8_engine_ground_truth():
    """The automaton and the brute-force subset enumerator, over a 7-point
    pool, both give the recorded truth value of every corpus sentence."""
    pool = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2),
            Fraction(1), Fraction(3), Fraction(2)]
    entries = load_corpus()
    for truth, text, note in entries:
        phi = parse_wmso(text)
        assert decide(phi) == truth, text
        assert brute_eval(phi, EMPTY, pool) == truth, text
    assert max(qdepth(parse_wmso(text)) for _, text, _ in entries) >= 4


def test_criterion_9_macro_discrepancy_finding():
    """The literal cont macro degenerates on a dense-support element (with
    an explicit counterexample pair), while the literal coterm, cof and
    oppsupport macros agree with their oracles on 10^3 seeded instances."""
    x, y, lit, sem = P.cont_degeneracy_example()
    assert lit is True and sem is False
    assert P.finrational_sem(y)  # dense support is what makes it vacuous
    assert not P.cont_sem(x, y)
    for macro in ("coterm", "cof", "oppsupport"):
        assert P.discrepancy_search(macro, trials=1000, seed=0) == []
    assert P.discrepancy_search("cont", trials=200, seed=0) != []
