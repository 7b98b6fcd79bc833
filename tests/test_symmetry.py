"""Symmetry laws at map level: conjugation by the reversal ρ(x) = −x, an
automorphism of Aut(ℚ,<) that is not inner, and by a random map h.

ρfρ is built in one constructor call: its cuts are the negated cuts of f
in reverse order, its slopes those of f in reverse order, and its first
piece's line passes through (−a, −f(a)) for the last cut a of f (or 0).
"""

import random
from fractions import Fraction
from itertools import product

from qwi import predicates as P
from qwi.conjugacy import conjugating_witness, verify_conjugator
from qwi.formulas import ATOM_ARITY
from qwi.generators import gen_plmap_rnd, grid_maps
from qwi.patterns import Moving, OrbitalPattern, mirror_pattern, pattern_of
from qwi.plmap import PLMap


def reverse(f: PLMap) -> PLMap:
    """ρfρ, the map x ↦ −f(−x)."""
    a = f.cuts[-1] if f.cuts else Fraction(0)
    return PLMap(-a, -f(a), [-x for x in reversed(f.cuts)], reversed(f.slopes))


def flip_parities(p: OrbitalPattern) -> OrbitalPattern:
    def flip(word):
        return None if word is None else tuple(
            Moving(-b.parity, b.left, b.right) if isinstance(b, Moving) else b for b in word)

    return OrbitalPattern(flip(p.left_tail), flip(p.core), flip(p.right_tail))


def test_reversal_is_an_involution_with_the_mirrored_pattern():
    rnd = random.Random("symmetry:maps")
    for _ in range(300):
        f = gen_plmap_rnd(rnd, 6)
        r = reverse(f)
        assert reverse(r) == f
        pts = {*f.cuts, *(-b for b in r.cuts), *(Fraction(k, 3) for k in range(-40, 41, 7))}
        for x in pts:
            assert r(x) == -f(-x), (f, x)
        assert pattern_of(r) == mirror_pattern(flip_parities(pattern_of(f))), f


def test_reversal_keeps_conjugacy_and_its_witnesses():
    rnd = random.Random("symmetry:pairs")
    witnessed = 0
    for k in range(200):
        f = gen_plmap_rnd(rnd, 5)
        g = f.conjugate_by(gen_plmap_rnd(rnd, 5)) if k % 2 else gen_plmap_rnd(rnd, 5)
        w = conjugating_witness(f, g)
        rf, rg = reverse(f), reverse(g)
        rw = conjugating_witness(rf, rg)
        assert (w is None) == (rw is None), (f, g)
        if w is not None:
            witnessed += 1
            assert verify_conjugator(w, f, g) and verify_conjugator(rw, rf, rg)
    assert witnessed >= 100


def _moved(maps):
    """Each map with its reversal and its conjugate by one h that takes 0
    and 1 off the grid."""
    h = PLMap(0, Fraction(1, 3), [Fraction(1, 2)], [2, Fraction(1, 3)])
    return [(a, reverse(a), a.conjugate_by(h)) for a in maps]


def _codes(grid):
    """The maps of the grid that code a point or a finite set, where
    codesame, oppsupport and sameset hold: 16 for {0, 1}, 28 for {0, 1, 2}."""
    return [f for f in grid_maps(grid) if P.cof_sem(f) or P.finrational_sem(f)]


def _drawn_moves():
    """Every pair of the codes of the {0, 1, 2} grid (784 pairs), each map
    moved as in `_grid_moves`, then 300 seeded pairs, each map with its
    reversal and its conjugate by a map drawn for that pair."""
    yield from product(_moved(_codes((0, 1, 2))), repeat=2)
    rnd = random.Random("symmetry:oracles")
    for _ in range(300):
        pair = [gen_plmap_rnd(rnd, 4) for _ in "fg"]
        h = gen_plmap_rnd(rnd, 4)
        yield [(a, reverse(a), a.conjugate_by(h)) for a in pair]


def _grid_moves():
    """Every pair of the 41 maps of the {0, 1} grid (1,681 pairs), each map
    moved once (see `_moved`)."""
    return product(_moved(grid_maps()), repeat=2)


def test_every_oracle_is_invariant_under_reversal_and_conjugation():
    """Each predicate is defined in the group language, so every automorphism
    of the group keeps it: ρ, and conjugation by any h."""
    for moves in (_drawn_moves(), _grid_moves()):
        held = dict.fromkeys(P.ORACLES, 0)
        for pair in moves:
            for name, oracle in P.ORACLES.items():
                args, reversed_args, conjugated = zip(*pair[:ATOM_ARITY[name]])
                value = oracle(*args)
                assert oracle(*reversed_args) == value, (name, args)
                assert oracle(*conjugated) == value, (name, args, conjugated)
                held[name] += value
        assert min(held.values()) >= 15, held


def test_every_literal_macro_is_invariant_under_reversal_and_conjugation():
    """The schema of a literal macro, read with its quantifiers over the
    macro's witnesses, keeps its value when the arguments are moved: on
    every tuple of the codes of the {0, 1} grid, moved as in `_grid_moves`,
    and on 60 seeded tuples, moved by a map drawn for each."""
    held = dict.fromkeys(P.LITERAL_MACROS, 0)
    moved = _moved(_codes((0, 1)))
    for macro in P.LITERAL_MACROS:
        for tup in product(moved, repeat=ATOM_ARITY[macro]):
            args, reversed_args, conjugated = zip(*tup)
            value = P.literal(macro, args)
            assert P.literal(macro, reversed_args) == value, (macro, args)
            assert P.literal(macro, conjugated) == value, (macro, args)
            held[macro] += value
    rnd = random.Random("symmetry:literals")
    for _ in range(60):
        h = gen_plmap_rnd(rnd, 4)
        for macro in P.LITERAL_MACROS:
            args = [gen_plmap_rnd(rnd, 4) for _ in range(ATOM_ARITY[macro])]
            value = P.literal(macro, args)
            for move in (reverse, lambda a: a.conjugate_by(h)):
                assert P.literal(macro, [*map(move, args)]) == value, (macro, args)
            held[macro] += value
    assert min(held.values()) >= 5, held
