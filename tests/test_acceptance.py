"""Acceptance gate: the end-to-end properties the package promises, at the
scales they are promised at.  Every check is exact — no float tolerances.

Each criterion that has a `qwi verify` suite runs that suite at the
criterion's scale and asserts that it reports no failure, so a check is
written once, in `qwi.suites`, and the gate and the CLI run the same code."""

import time
from fractions import Fraction
from itertools import combinations, product

from qwi import predicates as P
from qwi.corpus import load_corpus
from qwi.formulas import parse_wmso, quantifier_rank
from qwi.interp import encode_finite_set, encode_rational
from qwi.suites import run_suite

from helpers import encode_finite_set_alt


def _passes(name, cases=None):
    report, = run_suite(name, seed=0, cases=cases)
    assert report.ok, report.render()
    return report


def test_criterion_1_group_calculus_at_scale():
    """Group laws, support covariance under conjugation, and restriction
    witnesses hold exactly on 10^4 seeded maps of complexity <= 8, < 60 s."""
    t0 = time.monotonic()
    _passes("group-laws", cases=3334)  # three maps per case
    assert time.monotonic() - t0 < 60


def test_criterion_2_conjugacy_criterion_with_verified_witnesses():
    """On 10^3 random pairs, a conjugating witness exists iff the orbital
    patterns are isomorphic, every pair built by conjugation gets one, and
    every returned witness verifies exactly."""
    _passes("orbitals", cases=1000)


def test_criterion_3_exactly_eight_cofinal_classes():
    """Exhaustive enumeration of cofinal patterns yields exactly 8 class ids."""
    _passes("classes8")


def test_criterion_4_inf_formula_matches_orbital_count():
    """The pattern-level inf formula agrees with having infinitely many
    orbitals, exhaustively for cores <= 5 and tail words <= 3 blocks."""
    assert _passes("lemma22").notes == [
        "5773 classes: 523 finite, 5250 with ω-many orbitals"]


def test_criterion_5_tail_patterns_decompose():
    """Every pattern with infinitely many orbitals in the same enumeration
    splits as an orbital times a remainder isomorphic to the whole."""
    assert _passes("lemma21").cases == 5250


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
    assert _passes("roundtrip").cases >= 20
    assert time.monotonic() - t0 < 600


def test_criterion_8_engine_ground_truth():
    """The automaton and the brute-force reference, whose set quantifiers
    try 2^r − 1 fresh points per gap for a body of quantifier rank r, both
    give the recorded truth value of every corpus sentence."""
    _passes("wmso")
    assert max(quantifier_rank(parse_wmso(text)) for _, text, _ in load_corpus()) >= 4


def test_criterion_9_macro_discrepancy_finding():
    """The literal cont macro degenerates on a dense-support element (with
    an explicit counterexample pair) and on 3,288 of the 23,409 pairs of
    the {0, 1, 2} grid, while the literal coterm and cof macros agree with
    their oracles on all 153 grid maps and the literal oppsupport, sameset
    and codesame macros on all 23,409 grid pairs."""
    x, y, lit, sem = P.cont_degeneracy_example()
    assert lit is True and sem is False
    assert P.finrational_sem(y)  # dense support is what makes it vacuous
    assert not P.cont_sem(x, y)
    report = _passes("discrepancy")
    assert report.cases == 1 + 2 * 153 + 4 * 23409
    notes = report.notes
    assert any("expected finding" in n for n in notes)
    assert "cont: literal diverges from oracle on 3288/23409 grid pairs (expected, documented)" in notes
    for macro in ("coterm", "cof"):
        assert f"{macro}: literal and oracle agree on all 153 grid tuples" in notes
    for macro in ("oppsupport", "sameset", "codesame"):
        assert f"{macro}: literal and oracle agree on all 23409 grid tuples" in notes
