"""Semantic oracles for the group-language predicates.

Each `*_sem` function implements the intended meaning of a predicate over
executable maps, decided exactly from support/fixed-point structure, or
for `restr` and `orbital` from z = x⁻¹·y.  `literal` reads the schema of a
macro in `formulas.MACROS` over the macro's complete witnesses, so it
reads the schema's truth in Aut(ℚ,<), and `discrepancy_search` compares
that reading against the oracle on every map, or pair of maps, whose
region ends lie in {0, 1, 2}: the two layers are deliberately distinct.
A z disjoint from y moves only inside the interior of Fix(y), so the
literal cont(x, y) holds exactly when supp x lies in supp y joined across
y's isolated fixed points, and differs from `cont_sem` when x moves one.

`GroupEvaluator` is the evaluator of group formulas over maps: one memoised
walk of group terms, which `literal` and the pull-back of `interp` share.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .numbers import FULL_LINE, POS_INF, QInterval, is_finite
from .plmap import PLMap, PLMapError
from .formulas import MACROS, Evaluator, Formula, GVar, Inv, Mul, One, Term, TermEq
from .generators import grid_maps, make_bump

#: `restrict_map(y, comps)`: y on the given support components, 1 elsewhere
restrict_map = PLMap.restrict


# ---------------------------------------------------------------------------
# predicate oracles
# ---------------------------------------------------------------------------

def comp_sem(f: PLMap) -> bool:
    """f is comparable with the identity: f(x) >= x everywhere or <= everywhere."""
    return len({s for _, s in f.signed_support()}) < 2


def apart_sem(f: PLMap, g: PLMap) -> bool:
    """The supports lie entirely on opposite sides (vacuous if one is empty)."""
    sf, sg = f.signed_support(), g.signed_support()
    if not sf or not sg:
        return True
    return sf[-1][0].hi <= sg[0][0].lo or sg[-1][0].hi <= sf[0][0].lo


def disj_sem(f: PLMap, g: PLMap) -> bool:
    sg = g.signed_support()
    for u, _ in f.signed_support():
        for v, _ in sg:
            if u.lo < v.hi and v.lo < u.hi:
                return False
    return True


def bump_sem(f: PLMap) -> bool:
    return len(f.signed_support()) == 1


def orbital_sem(x: PLMap, y: PLMap) -> bool:
    """x is a single orbital of y: a bump that is a restriction of y, so
    equal to y on one support component of y and the identity elsewhere."""
    return bump_sem(x) and restr_sem(x, y)


def restr_sem(x: PLMap, y: PLMap) -> bool:
    """x is a restriction of y: on each support component of y, x is either
    equal to y or the identity, and x moves nothing outside supp(y).  It
    holds exactly when the schema's one candidate witness is one."""
    return restr_witness(x, y) is not None


def restr_witness(x: PLMap, y: PLMap) -> Optional[PLMap]:
    """z with disj(x, z) and x·z = y, or None when restr(x, y) fails.

    The schema `Ez (disj(x,z) & y = x*z)` has one candidate, z = x⁻¹·y.
    If x is y or the identity on each support component of y, and the
    identity outside, then z is the identity where x is y and y elsewhere,
    so z is disjoint from x.  Conversely, if z is disjoint from x, each
    fixes the other's support pointwise, so y = x·z is x on supp x, z on
    supp z and the identity elsewhere.  Where supp x and supp z abut, the
    end is fixed by y; so each support component of y lies in supp x,
    where x is y, or in supp z, where x is the identity."""
    z = x.inverse().compose(y)
    return z if disj_sem(x, z) else None


def cont_sem(x: PLMap, y: PLMap) -> bool:
    """Point-set containment supp(x) ⊆ supp(y): points outside supp y
    separate its components, so a component of supp x must lie in one.
    The literal schema joins supp y across y's isolated fixed points (see
    the module docstring); a cofinal y has none, so the two agree on it,
    and compiled sentences give cont only cofinal elements."""
    sy = y.signed_support()
    for u, _ in x.signed_support():
        for v, _ in sy:
            if v.lo <= u.lo and u.hi <= v.hi:
                break
        else:
            return False
    return True


def coterm_sem(f: PLMap) -> bool:
    return [iv for iv, _ in f.signed_support()] == [FULL_LINE]


def _cofinal_support(f: PLMap) -> Optional[QInterval]:
    """The one support component of f when f is cofinal, else None.  The
    cofinal oracles below read f's signed support only through this."""
    comps = f.signed_support()
    if len(comps) != 1:
        return None
    iv = comps[0][0]
    return iv if is_finite(iv.lo) != is_finite(iv.hi) else None


def _endpoint(iv: QInterval) -> Fraction:
    """The finite end of a half-bounded interval."""
    return iv.lo if is_finite(iv.lo) else iv.hi


def cof_sem(f: PLMap) -> bool:
    """A bump whose support is bounded on exactly one side."""
    return _cofinal_support(f) is not None


def codesame_sem(f: PLMap, g: PLMap) -> bool:
    """Both cofinal, encoding the same endpoint (either side)."""
    ivf, ivg = _cofinal_support(f), _cofinal_support(g)
    return ivf is not None and ivg is not None and _endpoint(ivf) == _endpoint(ivg)


def oppsupport_sem(f: PLMap, g: PLMap) -> bool:
    """Supports are exactly (-inf, a) and (a, inf) for one common a."""
    ivf, ivg = _cofinal_support(f), _cofinal_support(g)
    if ivf is None or ivg is None or is_finite(ivf.lo) == is_finite(ivg.lo):
        return False
    return _endpoint(ivf) == _endpoint(ivg)


def rational_sem(f: PLMap) -> bool:
    """Cofinal with rational endpoint — on executable maps every endpoint is
    rational, so this coincides with cof_sem; the irrational side of the
    distinction lives at pattern level (classify_cofinal)."""
    return cof_sem(f)


def finrational_sem(f: PLMap) -> bool:
    """Comparable with the identity, dense support, finitely many (hence all
    rational) fixed points.  Such an element encodes its fixed-point set,
    possibly empty."""
    return comp_sem(f) and all(lo == hi for lo, hi, sign in f.regions() if not sign)


def fixed_point_set(f: PLMap) -> tuple[Fraction, ...]:
    fixed = [(lo, hi) for lo, hi, sign in f.regions() if not sign]
    if any(lo != hi for lo, hi in fixed):
        raise ValueError("fixed set is not finite")
    return tuple(lo for lo, _ in fixed)


def sameset_sem(f: PLMap, g: PLMap) -> bool:
    if not (finrational_sem(f) and finrational_sem(g)):
        return False
    return fixed_point_set(f) == fixed_point_set(g)


#: The oracle of every predicate of the group language that has one.
ORACLES = {
    "comp": comp_sem, "apart": apart_sem, "bump": bump_sem,
    "orbital": orbital_sem, "disj": disj_sem, "restr": restr_sem,
    "cont": cont_sem, "coterm": coterm_sem, "cof": cof_sem,
    "codesame": codesame_sem, "oppsupport": oppsupport_sem,
    "rational": rational_sem, "finrational": finrational_sem,
    "sameset": sameset_sem,
}


def member_sem(f: PLMap, g: PLMap) -> bool:
    """The rational q encoded by f belongs to the finite set encoded by g.

    This is membership by conjugation, the atom `translate` emits for x ∈ X:
    g·f·g⁻¹ is cofinal with support g(supp f), whose endpoint is g(q), so it
    codes the same point as f exactly when g fixes q.
    """
    if not rational_sem(f):
        raise ValueError("first argument must encode a rational (cofinal bump)")
    if not finrational_sem(g):
        raise ValueError("second argument must encode a finite set")
    return codesame_sem(f, g.compose(f).compose(g.inverse()))


# ---------------------------------------------------------------------------
# group formulas over maps
# ---------------------------------------------------------------------------

class GroupEvaluator(Evaluator):
    """An evaluator whose variables denote maps.  `term` reads a group term
    through the subclass's `element(name)`, which gives the map a variable
    is bound to.

    Every product and inverse that `term` builds is kept in `coded` for the
    evaluator's lifetime, keyed by its factors or its argument, and so is
    whatever a subclass builds through `code(key, make, *args)`: a value
    met again is the same map, and its support is walked once."""

    def __init__(self, coded: dict[tuple, PLMap]):
        self.coded = coded

    def code(self, key: tuple, make, *args) -> PLMap:
        f = self.coded.get(key)
        if f is None:
            f = self.coded[key] = make(*args)
        return f

    def term(self, t: Term) -> PLMap:
        if isinstance(t, GVar):
            return self.element(t.name)
        if isinstance(t, Mul):
            a, b = self.term(t.t), self.term(t.u)
            return self.code(("mul", a, b), a.compose, b)
        if isinstance(t, Inv):
            a = self.term(t.t)
            return self.code(("inv", a), a.inverse)
        if isinstance(t, One):
            return self.code(("one",), PLMap.identity)
        raise ValueError(f"bad term {t!r}")


# ---------------------------------------------------------------------------
# literal macros and the discrepancy finder
# ---------------------------------------------------------------------------

def _gap_bumps(y: PLMap) -> list[PLMap]:
    """A bump on the interior of each fixed region of y."""
    return [make_bump(QInterval(lo, hi)) for lo, hi, sign in y.regions()
            if not sign and lo < hi]


def _translation_past(x: PLMap) -> list[PLMap]:
    """A translation that moves a bounded support of x off itself."""
    s = x.signed_support()
    if s and is_finite(s[0][0].lo) and is_finite(s[-1][0].hi):
        return [PLMap.translation(s[-1][0].hi - s[0][0].lo + 1)]
    return []


def _bump_between(x: PLMap, y: PLMap) -> list[PLMap]:
    """A bump on the gap between the supports of x and y, which are both
    nonempty: the oppsupport schema reads its quantifier only after
    cof(x) & cof(y)."""
    sx, sy = x.signed_support(), y.signed_support()
    gap = QInterval(min(sx[-1][0].hi, sy[-1][0].hi), max(sx[0][0].lo, sy[0][0].lo))
    return [] if gap.is_empty() else [make_bump(gap)]


def _fixed_point_codes(*maps: PLMap) -> list[PLMap]:
    """The right-side code, a bump on (q, ∞), of each point q that `maps` fix."""
    return [make_bump(QInterval(q, POS_INF)) for f in maps for q in fixed_point_set(f)]


#: The witnesses that the quantifier of each literal macro's schema ranges
#: over, built from its parameters.  Each list is complete: when some
#: element of Aut(ℚ,<) satisfies the ∃ or falsifies the ∀, given the
#: conjuncts before it, a listed one does, and each is a PL map.
_WITNESSES = {
    # A z disjoint from y moves only inside the interior of Fix(y) (Rubin,
    # Trans. AMS 312, 1989); if it meets x, so does the bump on a component.
    "cont": lambda e: _gap_bumps(e["y"]),
    # A z ≠ 1 disjoint from x needs a component of the interior of Fix(x)
    # to move, and the bump on any such component is one.
    "coterm": lambda e: _gap_bumps(e["x"]),
    # The bump x has one support interval; a conjugate w(supp x) misses it
    # only when it is bounded, and then the translation past it does.
    "cof": lambda e: _translation_past(e["x"]),
    # Disjoint cofinal x and y have supports (-∞, a) and (b, ∞), a ≤ b; a z
    # disjoint from both moves only inside (a, b), as the bump between does.
    "oppsupport": lambda e: _bump_between(e["x"], e["y"]),
    # For a cofinal z ending at q, codesame(z, x·z·x⁻¹) holds iff x fixes q;
    # so only a point fixed by just one of x and y breaks the equivalence.
    "sameset": lambda e: _fixed_point_codes(e["x"], e["y"]),
}

#: The macros whose `MACROS` schemas `literal` reads; codesame's schema has
#: no quantifier of its own.
LITERAL_MACROS = (*_WITNESSES, "codesame")


class _Literal(GroupEvaluator):
    """Reads the schema of one literal macro at `args`.  The quantifier
    ranges over the macro's witnesses, an equation of terms is decided by
    map equality, a literal macro met as an atom is read in turn with the
    same `coded`, and every other atom by its oracle."""

    def __init__(self, macro: str, args: Sequence[PLMap], coded: dict[tuple, PLMap]):
        super().__init__(coded)
        params, self.schema = MACROS[macro]
        self.macro, self.env = macro, dict(zip(params, args))

    def read(self) -> bool:
        return self.run(self.schema)

    def element(self, name: str) -> PLMap:
        return self.env[name]

    def atom(self, phi: Formula) -> bool:
        if isinstance(phi, TermEq):
            return self.term(phi.t) == self.term(phi.u)
        args = [self.term(a) for a in phi.args]
        if phi.name in LITERAL_MACROS:
            return _Literal(phi.name, args, self.coded).read()
        return ORACLES[phi.name](*args)

    def bind(self, phi: Formula):
        return self.env, _WITNESSES[self.macro](self.env)


def literal(macro: str, args: Sequence[PLMap]) -> bool:
    """The schema `MACROS[macro]` of a literal macro read at `args`, its
    quantifiers ranging over the macro's complete witnesses, so its truth
    in Aut(ℚ,<)."""
    return _Literal(macro, args, {}).read()


#: The grid whose every map, or pair of maps, `discrepancy_search` reads.
DISCREPANCY_GRID = (0, 1, 2)


def discrepancy_search(macro: str) -> list[tuple]:
    """Compare the schema of a literal macro, read by `literal`, against its
    oracle on every map, or pair of maps, of `grid_maps(DISCREPANCY_GRID)`
    (153 maps, 23,409 pairs), built on each call, not at import.  Returns
    (inputs..., literal_value, oracle_value) wherever the two disagree.
    The grid holds the rare truths: four cofinal elements ending at each
    grid point, one per side and direction, and two codes of each subset.
    The cont macro is expected to diverge where x moves an isolated fixed
    point of y and meets no fixed interval of y (see the module
    docstring): on 3,288 pairs."""
    if macro not in LITERAL_MACROS:
        raise ValueError(f"unknown macro {macro!r}; expected one of {sorted(LITERAL_MACROS)}")
    found = []
    for args in product(grid_maps(DISCREPANCY_GRID), repeat=len(MACROS[macro][0])):
        lit, sem = literal(macro, args), ORACLES[macro](*args)
        if lit != sem:
            found.append((*args, lit, sem))
    return found


def cont_degeneracy_example() -> tuple[PLMap, PLMap, bool, bool]:
    """The canonical divergence: y with dense support and isolated fixed
    points {0, 1}, joined across which supp y is the whole line, and x a
    translation, which moves both.  Returns x, y and the two readings,
    which the caller checks (lit true, sem false)."""
    y = PLMap(0, 0, (0, Fraction(1, 3), 1), (Fraction(1, 2), 2, Fraction(1, 2), 2))
    x = PLMap.translation(1)
    return x, y, literal("cont", (x, y)), cont_sem(x, y)
