"""Interpretation of the monadic second-order theory of (ℚ,<) in the
first-order theory of its automorphism group.

Rationals are coded by cofinal bumps (the finite support endpoint is the
value; the two one-sided codings of the same value are identified by
codesame), finite sets by positive dense-support elements whose fixed-point
set is the value.  `translate` compiles a formula structurally.  Membership
is conjugation: g_X fixes the point coded by f_x exactly when g_X·f_x·g_X⁻¹,
whose support is g_X(supp f_x), codes the same point, so x ∈ X becomes the
one atom codesame(f_x, g_X·f_x·g_X⁻¹).  The order atom needs an orientation
parameter p — the group cannot distinguish (ℚ,<) from (ℚ,>), so the compiled
sentence is prefixed ∃p(cof(p) ∧ …) and x < y becomes strict support
containment between codesame-representatives lying on p's side.

Every quantifier of a compiled sentence has one shape: ∃v(G ∧ body) or
∀v(G → body), where the guard G is a single atom that mentions v.  The
guard says what v ranges over, and there are four kinds: cof(p) the
orientation, rational(f_x) and finrational(g_X) the coded points and sets,
and codesame(l, f_x) a representative of a point.  The shape is plain
syntax, so it survives `print_group` and `parse_group`.  A WMSO quantifier
stays the quantifier it is, relativised to the guard that its variable's
sort picks (`_coding`; Hodges, *Model Theory*, CUP 1993, interpretations).

`pullback_eval` takes exactly what `translate` emits, before or after
`print_group` and `parse_group`: ψ, if compiling the decompilation of its
body gives ψ back.  It runs a `predicates.GroupEvaluator` that reads the
guard of each quantifier to pick the candidates and decides every atom by
the semantic oracles.  A point ranges over the landmarks plus one fresh point
per gap.  A set ranges over one set per reachable end state of the
automaton (`wmso.automaton`) of the quantifier's body, decompiled back to
the order formula over its own names by the exact inverse of the compiler,
with the landmarks read in the direction of the orientation parameter.
Each family is complete for the order side.  The point candidates share
no enumerator with `wmso.decide`, but the set candidates are read off the
automaton that `decide` runs too, so for a set quantifier the round-trip
does not check the group side against an independent decision procedure.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import Iterator, Optional

from .numbers import NEG_INF, POS_INF, QInterval, Rat, gaps_of, is_finite, pick_fresh
from .plmap import PLMap
from .formulas import (
    _BINARY, QUANTIFIERS, And, EqPt, Exists, Forall, Formula, FormulaError,
    GAtom, GVar, Iff, Implies, Inv, Less, Mem, Mul, Not, Or, free_vars,
    instantiate, is_set_var, parse_group, rebuild, relation_vars,
)
from .generators import make_bump
from . import predicates as P
from .wmso import (
    Assignment, Dfa, automaton, decide, landmark_word, point_candidates,
)


class InterpError(ValueError):
    pass


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------

def encode_rational(q: Fraction, side: str = "right") -> PLMap:
    """The bump on (q, ∞) for side "right", on (-∞, q) for side "left"."""
    q = Rat(q)
    if side == "right":
        return make_bump(QInterval(q, POS_INF))
    if side == "left":
        return make_bump(QInterval(NEG_INF, q))
    raise InterpError(f"side must be left or right, got {side!r}")


def encode_finite_set(S) -> PLMap:
    """Positive element fixing exactly S: a slope-1/2 ray below, on each
    gap (a, b) a bump of slope 2 up to a + (b − a)/3 and 1/2 after it, and
    a slope-2 ray above; ∅ ↦ x+1."""
    pts = sorted(set(Rat(a) for a in S))
    if not pts:
        return PLMap.translation(1)
    cuts, slopes = [pts[0]], [Rat(1, 2)]
    for a, b in zip(pts, pts[1:]):
        cuts += [a + (b - a) / 3, b]
        slopes += [Rat(2), Rat(1, 2)]
    slopes.append(Rat(2))
    return PLMap(pts[0], pts[0], cuts, slopes)


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------

ORIENTATION_VAR = "p"

# The order schema: lhs < rhs iff some codesame-representatives on the
# orientation parameter ori's side are in strict support containment.
_LESS = (["lhs", "rhs", "ori"], parse_group(
    "Elf (codesame(lf,lhs) & Elg (codesame(lg,rhs)"
    " & ((cont(lf,ori) | cont(ori,lf)) & (cont(lg,ori) | cont(ori,lg))"
    " & cont(lg,lf) & ~codesame(lf,lg))))"
))


def _coding(x: str) -> tuple[str, str]:
    """The group variable that codes the WMSO variable x and the guard of its
    range: f_x and rational for a point, g_X and finrational for a set."""
    return (f"g_{x}", "finrational") if is_set_var(x) else (f"f_{x}", "rational")


# The one quantifier shape of compiled sentences: ∃v(G ∧ body), ∀v(G → body).
_SHAPE = {Exists: And, Forall: Implies}


def _guarded(quant, v: str, guard: str, body: Formula) -> Formula:
    return quant(v, _SHAPE[quant](GAtom(guard, (GVar(v),)), body))


def translate(phi: Formula) -> Formula:
    """Compile a closed order-formula to the group language.

    An atom over a variable of the wrong sort raises InterpError.  Fresh
    variable names are numbered per call, so equal input gives equal
    output."""
    if free_vars(phi):
        raise InterpError(f"translate expects a sentence, got free {sorted(free_vars(phi))}")
    return _guarded(Exists, ORIENTATION_VAR, "cof", _tr(phi, count()))


def _tr(phi: Formula, names: Iterator[int]) -> Formula:
    if isinstance(phi, (Not, *_BINARY)):
        return rebuild(phi, lambda sub: _tr(sub, names))
    if type(phi) in QUANTIFIERS:
        return _guarded(type(phi), *_coding(phi.var), _tr(phi.body, names))
    try:
        x, y = (GVar(_coding(v)[0]) for v in relation_vars(phi))
    except FormulaError as e:
        raise InterpError(str(e)) from None
    if isinstance(phi, Less):
        return instantiate(_LESS, (x, y, GVar(ORIENTATION_VAR)), names)
    if isinstance(phi, EqPt):
        return GAtom("codesame", (x, y))
    # membership: g_X fixes x iff it conjugates f_x to a code of x
    return GAtom("codesame", (x, Mul(Mul(y, x), Inv(y))))


# ---------------------------------------------------------------------------
# the orientation parameter
# ---------------------------------------------------------------------------

def _rightward(p: PLMap) -> bool:
    """Whether the orientation parameter p reads ℚ left to right: its
    unbounded side is rightward."""
    (ivp, _), = p.signed_support()
    return is_finite(ivp.lo)


# ---------------------------------------------------------------------------
# decompilation
# ---------------------------------------------------------------------------

def _decompile(psi: Formula) -> Formula:
    """The order formula that `_tr` would compile to psi, over the order
    names: f_x becomes x, and g_X becomes X.  Only the shape is read, so psi
    need not be in the image of `_tr` (`pullback_eval` checks that); a shape
    that `_tr` never emits raises InterpError."""
    match psi:
        case Not() | And() | Or() | Implies() | Iff():
            return rebuild(psi, _decompile)
        case GAtom("codesame", (GVar(x), GVar(y))):
            return EqPt(x[2:], y[2:])
        case GAtom("codesame", (GVar(x), Mul(Mul(GVar(X), _), _))):
            return Mem(x[2:], X[2:])
        # the order schema, before the quantifier case that its shape also fits
        case Exists(_, And(GAtom("codesame", (_, GVar(x))),
                           Exists(_, And(GAtom("codesame", (_, GVar(y))), _)))):
            return Less(x[2:], y[2:])
        case Exists(v, And(_, body)) | Forall(v, Implies(_, body)):
            return type(psi)(v[2:], _decompile(body))
    raise InterpError(f"not a compiled order formula: {psi!r}")


# ---------------------------------------------------------------------------
# pull-back evaluation
# ---------------------------------------------------------------------------

_SIDES = ("right", "left")


class _Pullback(P.GroupEvaluator):
    """Evaluator of the sentences that `pullback_eval` accepts, so every
    node is a shape the compiler emits and none is checked here.  `bind`
    reads a quantifier's guard to pick its candidates.  A coded variable is
    bound to the value it codes, in the assignment that the candidate lists
    read, and is encoded when an atom first needs its element; every other
    variable is bound to its element in `env`.

    Every element the evaluator builds is kept in `coded` for the length of
    the call, keyed by what it codes: a point by its side and value (the
    orientation parameter is a code of 0), a set by its members, a product
    by its two factors, an inverse by its argument, and the identity by
    ("one",).  There are no other keys.  So a value met again is the same
    map, and its support is walked once.  The automaton of each set
    quantifier's body is kept in `automata`, keyed by the quantifier node,
    for the same span."""

    def __init__(self, orientation: Optional[str]):
        super().__init__({})
        self.orientation = orientation
        self.a = Assignment()
        self.env: dict[str, PLMap] = {}
        self.automata: dict[int, Dfa] = {}

    def rational(self, q: Fraction, side: str = "right") -> PLMap:
        return self.code((side, q), encode_rational, q, side)

    def element(self, name: str) -> PLMap:
        if name in self.env:
            return self.env[name]
        if name in self.a.points:
            return self.rational(self.a.points[name])
        s = self.a.sets[name]
        return self.code(("set", s), encode_finite_set, s)

    def atom(self, phi: Formula) -> bool:
        return P.ORACLES[phi.name](*map(self.term, phi.args))

    def bind(self, phi: Formula):
        g = phi.body.a
        if g.name == "cof":  # the orientation parameter: a code of 0 per side
            sides = (self.orientation,) if self.orientation else _SIDES
            return self.env, [self.rational(Rat(0), side) for side in sides]
        if g.name == "rational":
            return self.a.points, point_candidates(self.a)
        if g.name == "finrational":
            return self.a.sets, self.set_candidates(phi)
        # codesame(l, f_x): both representatives of the point that f_x codes
        q = self.a.points[g.args[1].name]
        return self.env, [self.rational(q, "right"), self.rational(q, "left")]

    def set_candidates(self, phi: Formula) -> list[tuple[Fraction, ...]]:
        """One set per reachable end state of the body's automaton.

        The landmarks of the body's other variables are read in the
        direction of the orientation parameter, as `_rightward` reads it, and
        gaps[i] is the gap before landmark i in that order.  A breadth-first
        search over (landmarks read, state) inserts a fresh point of the set
        into the current gap, above the last one it put there, or reads the
        next landmark with or without it.  Each node keeps the set that
        first, so by the shortest way, reached it.  Two sets that end in the
        same state satisfy the body alike (Myhill–Nerode), so the family is
        complete for the order side.  Sets that end where the automaton
        settles the quantifier come first."""
        dfa = self.automata.get(id(phi))
        if dfa is None:
            dfa = self.automata[id(phi)] = automaton(_decompile(phi.body.b))
        right = _rightward(self.env[ORIENTATION_VAR])
        # the automaton reads the order names: x for f_x, X for g_X
        a = Assignment({v[2:]: q for v, q in self.a.points.items() if v[:2] == "f_"},
                       {v[2:]: s for v, s in self.a.sets.items() if v[:2] == "g_"})
        marks, letters = landmark_word(dfa, a, phi.var[2:], descending=not right)
        n, bit, delta = len(marks), dfa.bit(phi.var[2:]), dfa.delta
        gaps = gaps_of(sorted(marks))
        if not right:
            gaps.reverse()
        # node (i, q): i landmarks read, in state q; built[node] is the set
        # that first reached it and its last point in gaps[i], or that gap's
        # lower end
        built = {(0, 0): ((), gaps[0].lo)}
        order = [(0, 0)]
        for node in order:  # grows while it is walked
            (i, q), (members, last) = node, built[node]
            fresh = pick_fresh(QInterval(last, gaps[i].hi))
            moves = [((i, delta[q][bit]), ((*members, fresh), fresh))]
            if i < n:
                lo = gaps[i + 1].lo
                moves += [((i + 1, delta[q][letters[i]]), (members, lo)),
                          ((i + 1, delta[q][letters[i] | bit]), ((*members, marks[i]), lo))]
            for nxt, reached in moves:
                if nxt not in built:
                    built[nxt] = reached
                    order.append(nxt)
        want = type(phi) is Exists
        ends = sorted((node for node in order if node[0] == n),
                      key=lambda node: dfa.accept[node[1]] != want)
        return [tuple(sorted(built[node][0])) for node in ends]


def pullback_eval(psi: Formula, orientation: Optional[str] = None) -> bool:
    """Evaluate a compiled sentence over coded candidates.

    The domain is exactly what `translate` emits: psi is ∃p(cof(p) ∧ body)
    with `translate(_decompile(body)) == psi`.  Anything else raises
    InterpError, and is never evaluated.

    The orientation parameter ranges over the right and the left code of 0,
    a point quantifier over the landmarks plus one fresh point per gap, and
    a set quantifier over one set per reachable end state of the automaton
    of its body, decompiled back to an order formula (see
    `_Pullback.set_candidates`).  All three families are complete, so the
    answer is exact whenever the oracles decide the compiled atoms as the
    order side means them.  With orientation=None the ∃p prefix ranges over
    both sides; fixing "left"/"right" pins the parameter for robustness
    experiments.  Any other orientation raises InterpError.
    """
    if orientation not in (None, *_SIDES):
        raise InterpError(f"orientation must be None, left or right, got {orientation!r}")
    match psi:
        case Exists(_, And(_, body)):
            try:
                compiled = translate(_decompile(body)) == psi
            except InterpError as e:
                raise InterpError(f"{e} (outside the translated fragment)") from None
            if compiled:
                return _Pullback(orientation).run(psi)
    raise InterpError(f"{psi!r} is not a compiled sentence (outside the translated fragment)")


def roundtrip_check(phi: Formula) -> bool:
    """decide(φ) versus pullback_eval(translate(φ)) — true iff they agree."""
    return decide(phi) == pullback_eval(translate(phi))
