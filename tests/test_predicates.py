import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from qwi import predicates as P
from qwi.formulas import ATOM_ARITY, MACROS, GAtom, parse_group
from qwi.generators import gen_plmap_rnd, grid_maps, make_bump
from qwi.numbers import NEG_INF, POS_INF, QInterval
from qwi.plmap import PLMap, PLMapError

from helpers import gen_plmap

plmaps = st.builds(gen_plmap, st.integers(0, 10**6), st.integers(0, 6))


def bump(a, b, up=True):
    return make_bump(QInterval(Fraction(a), Fraction(b)), up=up)


def test_comp():
    assert P.comp_sem(PLMap.identity())
    assert P.comp_sem(PLMap.translation(-3))
    assert P.comp_sem(bump(0, 1))
    doubling = PLMap(0, 0, (), (2,))
    assert not P.comp_sem(doubling)  # below 0 it moves down, above 0 up
    mixed = bump(0, 1).compose(bump(2, 3, up=False))
    assert not P.comp_sem(mixed)


def test_apart_and_disj():
    a, b = bump(0, 1), bump(2, 3)
    assert P.apart_sem(a, b) and P.disj_sem(a, b)
    c = bump(0, 3)
    assert not P.apart_sem(a, c) and not P.disj_sem(a, c)
    # sharing only the boundary point keeps supports disjoint
    d = bump(1, 2)
    assert P.apart_sem(a, d) and P.disj_sem(a, d)
    e = PLMap.identity()
    assert P.apart_sem(a, e) and P.disj_sem(a, e)


def test_bump_and_orbital():
    assert P.bump_sem(bump(0, 1))
    assert P.bump_sem(PLMap.translation(1))
    assert not P.bump_sem(PLMap.identity())
    two = bump(0, 1).compose(bump(2, 3))
    assert not P.bump_sem(two)
    assert P.orbital_sem(bump(0, 1), two)
    assert P.orbital_sem(bump(2, 3), two)
    assert not P.orbital_sem(bump(0, 1), bump(2, 3))
    assert not P.orbital_sem(two, two)


def test_restr_and_witness():
    y = bump(0, 1).compose(bump(2, 3, up=False))
    x = bump(0, 1)
    assert P.restr_sem(x, y)
    z = P.restr_witness(x, y)
    assert z == bump(2, 3, up=False)
    assert P.disj_sem(x, z) and x.compose(z) == y
    assert P.restr_sem(y, y) and P.restr_sem(PLMap.identity(), y)
    assert P.restr_witness(y, y) == PLMap.identity()
    # moving only half of one orbital is not a restriction
    assert not P.restr_sem(bump(0, Fraction(1, 2)), y)
    assert P.restr_witness(bump(0, Fraction(1, 2)), y) is None


def test_cont():
    y = bump(0, 3)
    assert P.cont_sem(bump(1, 2), y)  # smaller support inside one component
    assert P.cont_sem(PLMap.identity(), y)
    assert not P.cont_sem(PLMap.translation(1), y)


def test_coterm_cof_codesame():
    assert P.coterm_sem(PLMap.translation(1))
    assert not P.coterm_sem(bump(0, 1))
    right = make_bump(QInterval(Fraction(2), POS_INF))
    left = make_bump(QInterval(NEG_INF, Fraction(2)), up=False)
    assert P.cof_sem(right) and P.cof_sem(left)
    assert not P.cof_sem(PLMap.translation(1))
    assert not P.cof_sem(bump(0, 1))
    assert P.cof_endpoint(right) == 2 == P.cof_endpoint(left)
    assert P.codesame_sem(right, left)
    assert not P.codesame_sem(right, make_bump(QInterval(Fraction(3), POS_INF)))
    with pytest.raises(ValueError):
        P.cof_endpoint(bump(0, 1))


def test_oppsupport():
    right = make_bump(QInterval(Fraction(0), POS_INF))
    left = make_bump(QInterval(NEG_INF, Fraction(0)))
    assert P.oppsupport_sem(right, left)
    assert not P.oppsupport_sem(right, right)
    shifted = make_bump(QInterval(NEG_INF, Fraction(1)))
    assert not P.oppsupport_sem(right, shifted)


def test_finrational_and_sameset():
    from qwi.interp import encode_finite_set
    f = encode_finite_set([Fraction(0), Fraction(1)])
    assert P.finrational_sem(f)
    assert P.fixed_point_set(f) == (Fraction(0), Fraction(1))
    assert P.finrational_sem(PLMap.translation(1))  # encodes the empty set
    assert P.fixed_point_set(PLMap.translation(1)) == ()
    assert not P.finrational_sem(bump(0, 1))  # fixed intervals, not points
    g = encode_finite_set([Fraction(1), Fraction(0)])
    assert P.sameset_sem(f, g)
    assert not P.sameset_sem(f, encode_finite_set([Fraction(0)]))


def test_member():
    from qwi.interp import encode_finite_set, encode_rational
    S = [Fraction(-1), Fraction(1, 2)]
    g = encode_finite_set(S)
    for q in [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(3)]:
        for side in ("left", "right"):
            assert P.member_sem(encode_rational(q, side), g) == (q in S)
    with pytest.raises(ValueError):
        P.member_sem(PLMap.translation(1), g)  # not a cofinal bump
    with pytest.raises(ValueError):
        P.member_sem(encode_rational(Fraction(0)), bump(0, 1))


def test_codesame_schema_read_literally_decides_membership():
    """On criterion 6's grid, the codesame schema of MACROS read literally
    at (f, g·f·g⁻¹) agrees with codesame_sem and with set membership: both
    supports are half-lines, so the literal cont is not vacuous.  Across
    point codes on either side it holds exactly for equal points."""
    from qwi.interp import encode_finite_set, encode_finite_set_alt, encode_rational
    base = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2),
            Fraction(1), Fraction(2)]
    pool = base + [Fraction(-3), Fraction(-1, 2), Fraction(1, 4),
                   Fraction(3, 2), Fraction(3), Fraction(5)]
    cases = 0
    for r in range(len(base) + 1):
        for S in combinations(base, r):
            for enc in (encode_finite_set, encode_finite_set_alt):
                g = enc(S)
                g_inv = g.inverse()
                for q, side in product(pool, ("left", "right")):
                    f = encode_rational(q, side)
                    conj = g.compose(f).compose(g_inv)
                    lit = P.literal("codesame", (f, conj))
                    assert lit == P.codesame_sem(f, conj) == (q in S), (S, q, side)
                    cases += 1
    assert cases == 3072
    codes = [(q, encode_rational(q, side)) for q, side in product(pool, ("left", "right"))]
    for (p, f), (q, h) in product(codes, codes):
        lit = P.literal("codesame", (f, h))
        assert lit == P.codesame_sem(f, h) == (p == q), (f, h)


def test_sameset_schema_read_literally_defines_sameset():
    """Read through its schema, sameset compares the fixed points of two
    finite-set codes, on every pair of codes of the subsets of {-1, 0, 1}
    under both encoders and of two point codes."""
    from qwi.interp import encode_finite_set, encode_finite_set_alt, encode_rational
    zero, one = Fraction(0), Fraction(1)
    assert not P.literal("sameset", (encode_finite_set([zero]), encode_finite_set([one])))
    assert not P.literal("sameset", (encode_finite_set([]),
                                     encode_finite_set([zero, one, Fraction(2)])))
    codes = [enc(S) for r in range(4) for S in combinations((-one, zero, one), r)
             for enc in (encode_finite_set, encode_finite_set_alt)]
    codes += [encode_rational(zero), encode_rational(one, "left")]
    held = 0
    for f, g in product(codes, codes):
        assert P.literal("sameset", (f, g)) == P.sameset_sem(f, g), (f, g)
        held += P.sameset_sem(f, g)
    assert len(codes) ** 2 == 324 and held == 32


def _within_joined(x: PLMap, y: PLMap) -> bool:
    """supp x lies in supp y with its isolated fixed points added: in the
    components of supp y joined where two of them share an endpoint."""
    joined: list[QInterval] = []
    for iv in y.support():
        if joined and joined[-1].hi == iv.lo:
            iv = QInterval(joined.pop().lo, iv.hi)
        joined.append(iv)
    return all(any(v.lo <= u.lo and u.hi <= v.hi for v in joined) for u in x.support())


def test_cont_literal_is_containment_in_the_joined_support():
    """The literal cont(x, y) holds exactly when supp x lies in supp y
    joined across y's isolated fixed points; so it differs from the oracle
    exactly when, besides, x moves one of those points."""
    rnd = random.Random("cont:joined")
    differ = 0
    for _ in range(300):
        x, y = gen_plmap_rnd(rnd, 4), gen_plmap_rnd(rnd, 4)
        within = _within_joined(x, y)
        assert P.literal("cont", (x, y)) == within, (x, y)
        isolated = [lo for lo, hi in y.fixed_items() if lo == hi]
        moves_one = any(x.apply(q) != q for q in isolated)
        assert (within and not P.cont_sem(x, y)) == (within and moves_one), (x, y)
        differ += within and moves_one
    assert differ >= 10, differ


GRID = grid_maps()


class _GridLiteral(P._Literal):
    """The literal reading whose outermost quantifier ranges over every grid
    map besides the macro's witnesses; nested reads are the library's."""

    def bind(self, phi):
        env, witnesses = super().bind(phi)
        return env, [*witnesses, *GRID]


@pytest.mark.parametrize("macro", P.LITERAL_MACROS)
def test_literal_reads_the_oracle_on_every_grid_configuration(macro):
    """On every tuple of the 41 maps whose region ends lie in {0, 1}, the
    literal reading equals the oracle (for cont, containment in the joined
    support, which differs from the oracle on 192 pairs), and adding every
    grid map to the witnesses changes no reading: no map of the grid finds
    what the witnesses miss."""
    assert len(GRID) == 41
    differ = 0
    for args in product(GRID, repeat=ATOM_ARITY[macro]):
        lit = P.literal(macro, args)
        sem = P.ORACLES[macro](*args)
        assert lit == (_within_joined(*args) if macro == "cont" else sem), args
        assert _GridLiteral(macro, args, {}).read() == lit, args
        differ += lit != sem
    assert differ == (192 if macro == "cont" else 0)


def _equal_on(x: PLMap, y: PLMap, iv: QInterval) -> bool:
    """x = y on the nonempty open interval iv: equal clips to it."""
    return x.clip(iv.lo, iv.hi) == y.clip(iv.lo, iv.hi)


def _restr_by_pieces(x: PLMap, y: PLMap) -> bool:
    """restr(x, y) read piece by piece: x moves nothing outside supp y, and
    on each support component of y it agrees with y or with the identity."""
    return P.cont_sem(x, y) and all(
        _equal_on(x, y, iv) or _equal_on(x, PLMap.identity(), iv) for iv in y.support())


def _orbital_by_pieces(x: PLMap, y: PLMap) -> bool:
    """orbital(x, y) read piece by piece: x is a bump whose support is a
    support component of y, on which it agrees with y."""
    if not P.bump_sem(x):
        return False
    (iv,) = x.support()
    return iv in y.support() and _equal_on(x, y, iv)


def test_restr_and_orbital_through_the_group_agree_with_the_pieces():
    """restr_sem and orbital_sem, read through z = x⁻¹·y, agree with the
    piece-by-piece readings on every pair of grid maps and on seeded pairs,
    four in ten of whose x's are built by `restrict_map`; restr_witness is
    the restriction of y to the components that x fixes, or None."""
    rnd = random.Random("restr:pieces")
    pairs = list(product(GRID, GRID))
    for _ in range(600):
        y, roll = gen_plmap_rnd(rnd, 4), rnd.random()
        if roll < 0.4:
            x = P.restrict_map(y, [iv for iv in y.support() if rnd.random() < 0.5])
        else:
            x = y if roll < 0.6 else gen_plmap_rnd(rnd, 4)
        pairs.append((x, y))
    held = orbitals = 0
    for x, y in pairs:
        want = _restr_by_pieces(x, y)
        assert P.restr_sem(x, y) == want, (x, y)
        assert P.orbital_sem(x, y) == _orbital_by_pieces(x, y), (x, y)
        z = P.restr_witness(x, y)
        if want:
            fixed = [iv for iv in y.support() if _equal_on(x, PLMap.identity(), iv)]
            assert z == P.restrict_map(y, fixed), (x, y)
        else:
            assert z is None, (x, y)
        held += want
        orbitals += P.orbital_sem(x, y)
    assert held >= 500 and orbitals >= 200, (held, orbitals)


@given(plmaps)
@settings(max_examples=60)
def test_restriction_of_random_maps(y):
    comps = [iv for iv, _ in y.signed_support()]
    for iv in comps:
        x = P.restrict_map(y, [iv])
        assert P.orbital_sem(x, y)
        z = P.restr_witness(x, y)
        assert z is not None and x.compose(z) == y


@pytest.mark.parametrize("iv", [QInterval(Fraction(0), Fraction(1)),
                                QInterval(Fraction(1), Fraction(2)),
                                QInterval(NEG_INF, Fraction(1)),
                                QInterval(Fraction(-1), Fraction(3))])
def test_restrict_map_refuses_what_is_not_a_support_component(iv):
    y = make_bump(QInterval(Fraction(0), Fraction(2)))
    with pytest.raises(PLMapError, match="not a support component"):
        P.restrict_map(y, [iv])
    assert P.restrict_map(y, [QInterval(Fraction(0), Fraction(2))]) == y


def _grid_divergence(macro: str) -> int:
    """How many tuples of the {0, 1} grid the literal reading of `macro`
    and its oracle disagree on."""
    return sum(P.literal(macro, args) != P.ORACLES[macro](*args)
               for args in product(GRID, repeat=ATOM_ARITY[macro]))


def test_cont_literal_degenerates_on_dense_support():
    x, y, lit, sem = P.cont_degeneracy_example()
    assert lit and not sem
    assert P.finrational_sem(y)  # dense support: nothing is disjoint from y
    assert _grid_divergence("cont"), "expected the literal cont macro to diverge somewhere"


@pytest.mark.parametrize("macro, schema, searched", [
    ("coterm", "bump(x)", "coterm"),
    ("cof", "bump(x) & ~coterm(x)", "cof"),
    ("cont", "disj(x,y)", "codesame"),  # read where codesame's schema uses it
])
def test_literal_reader_follows_the_schemas(monkeypatch, macro, schema, searched):
    """An edited schema is what gets compared with the oracle."""
    assert _grid_divergence(searched) == 0
    monkeypatch.setitem(MACROS, macro, (MACROS[macro][0], parse_group(schema)))
    assert _grid_divergence(searched)


def _atom_names(node) -> set[str]:
    if isinstance(node, GAtom):
        return {node.name}
    return set().union(*(_atom_names(c) for c in vars(node).values() if not isinstance(c, str)))


@pytest.mark.parametrize("macro", P.LITERAL_MACROS)
def test_literal_schemas_use_oracles_and_literal_macros(macro):
    for name in _atom_names(MACROS[macro][1]):
        assert name in P.ORACLES or name in P.LITERAL_MACROS, name


def test_discrepancy_search_rejects_unknown_macro():
    with pytest.raises(ValueError):
        P.discrepancy_search("bump")
