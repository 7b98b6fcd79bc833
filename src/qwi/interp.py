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

`pullback_eval` runs a `predicates.GroupEvaluator` that reads the guard of
each quantifier to pick the candidates and decides every atom by the
semantic oracles.  A point ranges over the landmarks plus one fresh point
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
    GAtom, GVar, Iff, Implies, Inv, Less, Mem, Mul, Not, Or, TermEq, free_vars,
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


def _set_encoder(points, below: Fraction, rise: Fraction, above: Fraction,
                 empty_shift: Fraction) -> PLMap:
    """Positive element fixing exactly `points`: a slope-`below` ray, one
    bump per gap with first slope `rise`, and a slope-`above` ray."""
    pts = sorted(set(Rat(a) for a in points))
    if not pts:
        return PLMap.translation(empty_shift)
    cuts = [pts[0]]
    slopes = [below]
    for a, b in zip(pts, pts[1:]):
        d = b - a
        mid = a + d / (rise + 1)          # rise * (mid - a) + fall * (b - mid) = d
        fall = (b - a - rise * (mid - a)) / (b - mid)
        cuts.extend([mid, b])
        slopes.extend([rise, fall])
    slopes.append(above)
    return PLMap(pts[0], pts[0], cuts, slopes)


def encode_finite_set(S) -> PLMap:
    """Fixed set exactly S: x/2-style ray below, three-piece bumps with
    slopes 2 then 1/2 on each gap, doubling ray above; ∅ ↦ x+1."""
    return _set_encoder(S, Rat(1, 2), Rat(2), Rat(2), Rat(1))


def encode_finite_set_alt(S) -> PLMap:
    """Second, independent encoder (different germ slopes) for
    representation-independence checks."""
    return _set_encoder(S, Rat(1, 3), Rat(3), Rat(3), Rat(2))


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
    """The order formula that `_tr` compiles to psi, over the order names:
    f_x becomes x, and g_X becomes X.  Every other shape raises InterpError.
    Each atom and quantifier is accepted only if compiling it back gives psi
    again, so `_decompile` is the exact inverse of `_tr`."""
    match psi:
        case Not() | And() | Or() | Implies() | Iff():
            return rebuild(psi, _decompile)
        case (Exists(v, And(GAtom(guard, (GVar(w),)), body))
              | Forall(v, Implies(GAtom(guard, (GVar(w),)), body))) if (
                v == w and _coding(v[2:]) == (v, guard)):
            return type(psi)(v[2:], _decompile(body))
        case GAtom("codesame", (GVar(x), GVar(y))):
            return _decompiled_atom(psi, EqPt, x, y)
        case GAtom("codesame", (GVar(x), Mul(Mul(GVar(X), _), _))):
            return _decompiled_atom(psi, Mem, x, X)
        case Exists(lf, And(GAtom("codesame", (_, GVar(x))),
                            Exists(lg, And(GAtom("codesame", (_, GVar(y))), _)))):
            return _decompiled_atom(psi, Less, x, y, lf[3:], lg[3:])
    raise InterpError(f"not a compiled order formula: {psi!r}")


def _decompiled_atom(psi: Formula, relation, x: str, y: str, *numbers: str) -> Formula:
    """The relation over the order names of x and y, if `_tr` compiles it to
    psi when the bound names of the order schema carry `numbers`."""
    atom = relation(x[2:], y[2:])
    if _tr(atom, iter(numbers)) != psi:
        raise InterpError(f"not a compiled order atom: {psi!r}")
    return atom


# ---------------------------------------------------------------------------
# pull-back evaluation
# ---------------------------------------------------------------------------

def _guard(phi: Formula) -> Optional[GAtom]:
    """The guard G of a quantifier ∃v(G ∧ body) or ∀v(G → body), the shape
    `translate` emits; None for any other formula."""
    shape = _SHAPE.get(type(phi))
    if shape is None or not isinstance(phi.body, shape):
        return None
    g = phi.body.a
    return g if isinstance(g, GAtom) and GVar(phi.var) in g.args else None


_SIDES = ("right", "left")


class _Pullback(P.GroupEvaluator):
    """Evaluator of compiled sentences.  `bind` reads a quantifier's guard
    to pick its candidates.  A coded variable is bound to the value it
    codes, in the assignment that the candidate lists read, and is encoded
    when an atom first needs its element; every other variable is bound to
    its element in `env`.

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
        if name in self.a.sets:
            s = self.a.sets[name]
            return self.code(("set", s), encode_finite_set, s)
        raise InterpError(f"unbound group variable {name}")

    def atom(self, phi: Formula) -> bool:
        if isinstance(phi, TermEq):
            return self.term(phi.t) == self.term(phi.u)
        if not isinstance(phi, GAtom):
            raise InterpError(f"node outside the translated fragment: {phi!r}")
        oracle = P.ORACLES.get(phi.name)
        if oracle is None:
            raise InterpError(f"atom {phi.name} is outside the translated fragment")
        return oracle(*[self.term(a) for a in phi.args])

    def bind(self, phi: Formula):
        g = _guard(phi)
        name = g.name if g is not None else None
        if name == "cof":  # the orientation parameter: a code of 0 per side
            sides = (self.orientation,) if self.orientation else _SIDES
            return self.env, [self.rational(Rat(0), side) for side in sides]
        if name == "rational":
            return self.a.points, point_candidates(self.a)
        if name == "finrational":
            return self.a.sets, self.set_candidates(phi)
        if name == "codesame":  # both representatives of a coded point
            q = P.cof_endpoint(self.term(g.args[1]))
            return self.env, [self.rational(q, "right"), self.rational(q, "left")]
        raise InterpError(
            f"quantifier over {phi.var} lacks a leading coding guard "
            f"(outside the translated fragment)"
        )

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
        if ORIENTATION_VAR not in self.env:
            raise InterpError(f"set quantifier over {phi.var} outside the orientation prefix")
        right = _rightward(self.env[ORIENTATION_VAR])
        # the automaton reads the order names: x for f_x, X for g_X
        a = Assignment({v[2:]: q for v, q in self.a.points.items() if v[:2] == "f_"},
                       {v[2:]: s for v, s in self.a.sets.items() if v[:2] == "g_"})
        try:
            marks, letters = landmark_word(dfa, a, phi.var[2:], descending=not right)
        except FormulaError as e:  # the body reads a point or set no coding guard bound
            raise InterpError(f"set quantifier over {phi.var}: {e}") from None
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
    if free_vars(psi):
        raise InterpError(f"compiled sentence has free variables {sorted(free_vars(psi))}")
    return _Pullback(orientation).run(psi)


def roundtrip_check(phi: Formula) -> bool:
    """decide(φ) versus pullback_eval(translate(φ)) — true iff they agree."""
    return decide(phi) == pullback_eval(translate(phi))
