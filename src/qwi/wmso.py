"""Decision procedure for the monadic second-order logic of (ℚ,<) with set
quantifiers ranging over finite sets only (WMSO).

A finite configuration, the values of finitely many point and set
variables, is determined up to an automorphism of (ℚ,<) by the word of its
landmarks read left to right, where the letter at a landmark is the set of
variables sitting there.  Truth depends only on that word.  Because ℚ is
dense and unbounded, a quantified point can sit on any landmark or in any
gap (`numbers.gaps_of`), and a quantified finite set can take any landmarks
plus any number of fresh points in any gaps.  So WMSO over (ℚ,<) is WS1S
over these words (Büchi 1960, Elgot 1961, Trakhtenbrot 1962), and
`automaton` builds the classical automaton of a formula (Henriksen et al.,
"MONA", TACAS 1995):

- a letter is a bitmask over the formula's free variables, and the empty
  letter, a point that no variable names, loops on every state;
- an atom renames one of five DFAs of at most four states, built once;
- &, |, -> and <-> are products, and ~ is complement;
- ∃x and ∃X are one subset construction that projects the variable away,
  where x may occur exactly once and X anywhere; a letter that the
  projection empties is an ε-move, which the construction closes over.

Quantifiers are first pushed inward (miniscoping, as MONA does), so each
one is projected from the automaton of only the parts that mention it.
Every product and projection is minimised.  An automaton is meant only for
well-formed words, where each free point variable occurs exactly once; what
it does on other words is unspecified.  A variable's sort is the case of
its name (`formulas.is_set_var`), read at each atom through
`formulas.relation_vars`, as MONA declares each variable's order.
`decide` and `eval` are exact on every well-sorted formula; an ill-sorted
atom raises FormulaError.  Their cost is the limit: a state has one
transition per letter, so time and table size grow as 2^k in the number k
of free variables of a quantified part once miniscoped.  A chain
Ex0 … Ex(k-1) (x0 < x1 & …) stays linear, each quantifier on the two links
that mention it: 1 ms for k = 12 and 3 ms for k = 24 on a 2-CPU host.  An
entangled body keeps the 2^k: "k pairwise distinct points" takes 0.0015,
0.009, 0.07 and 0.7 s for k = 4, 5, 6 and 7, ×10 a variable.
`brute_eval` is an independent reference that enumerates candidates
instead, 2^r − 1 set members per gap for a body of quantifier rank r, and
shares only that sort rule with the automaton.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain, product
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from .numbers import gaps_of, pick_fresh, spread
from .formulas import (
    And, EqPt, Evaluator, Exists, Forall, Formula, FormulaError, Iff, Implies,
    Less, Mem, Not, Or, free_vars, is_set_var, quantifier_rank, relation_vars,
)


@dataclass(frozen=True)
class Assignment:
    points: dict[str, Fraction] = field(default_factory=dict)
    sets: dict[str, tuple[Fraction, ...]] = field(default_factory=dict)

    def with_point(self, var: str, q: Fraction) -> "Assignment":
        return Assignment({**self.points, var: q}, self.sets)

    def with_set(self, var: str, s: Iterable[Fraction]) -> "Assignment":
        return Assignment(self.points, {**self.sets, var: tuple(sorted(set(s)))})

    def value(self, var: str) -> Fraction | tuple[Fraction, ...]:
        """The point or the set that var is bound to, by the case of its
        name; an unbound variable raises FormulaError."""
        sort, env = ("set", self.sets) if is_set_var(var) else ("point", self.points)
        if var not in env:
            raise FormulaError(f"unbound {sort} variable {var}")
        return env[var]

    def landmarks(self) -> list[Fraction]:
        marks: set[Fraction] = set(self.points.values())
        for s in self.sets.values():
            marks.update(s)
        return sorted(marks)


def point_candidates(a: Assignment) -> list[Fraction]:
    """The landmarks and one fresh point per gap: a complete family for a
    point quantifier, since an atom only compares the point to landmarks."""
    marks = a.landmarks()
    return marks + [pick_fresh(g) for g in gaps_of(marks)]


# ---------------------------------------------------------------------------
# automata
# ---------------------------------------------------------------------------

class Dfa(NamedTuple):
    """A complete deterministic automaton whose initial state is 0.

    A letter is a bitmask over `vars`: bit i says that vars[i] sits at the
    position.  `delta[s][letter]` is the successor of state s, and
    `accept[s]` says whether s accepts."""

    vars: tuple[str, ...]
    delta: tuple[tuple[int, ...], ...]
    accept: tuple[bool, ...]

    def bit(self, var: str) -> int:
        """The letter of `var` alone; 0 when `var` is not free."""
        return 1 << self.vars.index(var) if var in self.vars else 0

    def run(self, word: Iterable[int]) -> int:
        """The state the word leads to from the initial state."""
        delta, state = self.delta, 0
        for letter in word:
            state = delta[state][letter]
        return state


def _explore(vars: tuple[str, ...], start: Hashable,
             step: Callable[[Hashable, int], Hashable],
             accepting: Callable[[Hashable], bool]) -> Dfa:
    """The minimal DFA over the states reachable from `start`, where
    step(state, letter) is a state's successor; the empty letter loops."""
    index = {start: 0}
    order = [start]
    delta = []
    for s in order:  # grows while it is walked
        row = [len(delta)]
        for letter in range(1, 1 << len(vars)):
            t = step(s, letter)
            if t not in index:
                index[t] = len(order)
                order.append(t)
            row.append(index[t])
        delta.append(row)
    return _minimise(vars, delta, [accepting(s) for s in order])


def _minimise(vars, delta, accept) -> Dfa:
    """Moore's partition refinement over reachable states.  Classes are
    numbered in order of their first state, so state 0 stays initial."""
    cls = [int(a) for a in accept]
    n = len(set(cls))
    while True:
        ids: dict[tuple, int] = {}
        new = [ids.setdefault((c, *map(cls.__getitem__, row)), len(ids))
               for c, row in zip(cls, delta)]
        if len(ids) in (n, len(delta)):  # stable, or every state apart
            break
        cls, n = new, len(ids)
    first: dict[int, int] = {}
    for s, c in enumerate(new):
        first.setdefault(c, s)
    return Dfa(vars,
               tuple(tuple(map(new.__getitem__, delta[s])) for s in first.values()),
               tuple(accept[s] for s in first.values()))


def _pattern(vars: tuple[str, ...], watch: int, wants: Sequence[int]) -> Dfa:
    """The words whose letters that meet `watch` are exactly `wants`, in
    order; other letters are free."""
    dead = len(wants) + 1

    def step(i, a):
        if not a & watch:
            return i
        return i + 1 if i < len(wants) and a == wants[i] else dead
    return _explore(vars, 0, step, lambda i: i == len(wants))


def _relation(t: type, same: bool) -> Dfa:
    """The DFA of relation t over x and y, or over x alone where `same`."""
    vars = ("x",) if same else ("x", "y")
    bx, by = 1, 1 << len(vars) - 1
    if t is Mem:  # x occurs once, on a letter that carries X
        return _pattern(vars, bx, [bx | by])
    return _pattern(vars, bx | by, [bx, by] if t is Less else [bx | by])


#: The DFA of each relation, keyed by its type and whether its two variables
#: are one, built once: `x in x` is ill-sorted.
_RELATIONS = {(t, same): _relation(t, same) for t in (Less, EqPt, Mem)
              for same in (False, True) if not (t is Mem and same)}


def _atom(phi: Formula) -> Dfa:
    x, y = relation_vars(phi)
    return _RELATIONS[type(phi), x == y]._replace(vars=tuple(dict.fromkeys((x, y))))


def _complement(a: Dfa) -> Dfa:
    return Dfa(a.vars, a.delta, tuple(not x for x in a.accept))


def _product(a: Dfa, b: Dfa, op: Callable[[bool, bool], bool]) -> Dfa:
    vars = tuple(sorted(set(a.vars) | set(b.vars)))

    def restrict(d: Dfa) -> list[int]:
        """Each letter over `vars`, read over d's variables."""
        out = [0]
        for v in vars:  # the letters with v's bit set follow those without
            bit = d.bit(v)
            out += [x | bit for x in out]
        return out
    ra, rb, da, db = restrict(a), restrict(b), a.delta, b.delta
    return _explore(vars, (0, 0),
                    lambda s, x: (da[s[0]][ra[x]], db[s[1]][rb[x]]),
                    lambda s: op(a.accept[s[0]], b.accept[s[1]]))


def _project(a: Dfa, var: str) -> Dfa:
    """∃var over a: the subset construction over pairs (state, placed), with
    the letter of `var` alone as an ε-move.  A point occurs exactly once:
    only an unplaced pair may take it, and only a placed pair accepts.  A
    set takes any positions, so its pairs stay unplaced."""
    i = a.vars.index(var)
    eps, low = 1 << i, (1 << i) - 1
    once = not is_set_var(var)
    delta, accept = a.delta, a.accept

    def close(pairs: Iterable[tuple[int, bool]]) -> frozenset[tuple[int, bool]]:
        seen = set(pairs)
        todo = [s for s, placed in seen if not placed]
        while todo:
            t = delta[todo.pop()][eps], once
            if t not in seen:
                seen.add(t)
                if not once:
                    todo.append(t[0])
        return frozenset(seen)

    def step(S, b):
        x = (b & low) | (b & ~low) << 1  # b with a 0 inserted at bit i
        return close([(delta[s][x], placed) for s, placed in S]
                     + [(delta[s][x | eps], once) for s, placed in S if not placed])
    return _explore(a.vars[:i] + a.vars[i + 1:], close([(0, False)]), step,
                    lambda S: any(accept[s] and placed is once for s, placed in S))


_CONNECTIVES = {And: operator.and_, Or: operator.or_, Implies: operator.le, Iff: operator.eq}


def _miniscope(phi: Formula) -> Formula:
    """phi with each quantifier pushed inward as far as it goes: ∃x into the
    conjuncts that mention x and across a disjunction, ∀x into the
    disjuncts that mention x, with A -> B read as ~A | B, and across a
    conjunction, and either through a negation as its dual.  A quantifier
    whose variable is not free is dropped, as ℚ is nonempty and ∅ is a
    finite set.  Each node's free variables are computed once, bottom-up,
    into `free`, keyed by the node's id; an entry holds its node, so no id
    is reused within the call."""
    free: dict[int, tuple[frozenset[str], Formula]] = {}

    def node(phi: Formula, vars: frozenset[str]) -> Formula:
        free[id(phi)] = vars, phi
        return phi

    def fv(phi: Formula) -> frozenset[str]:
        return free[id(phi)][0]

    def joined(t: type, parts: list[Formula]) -> Formula:
        return reduce(lambda a, b: node(t(a, b), fv(a) | fv(b)), parts)

    def parts(phi: Formula, t: type) -> list[Formula]:
        """The conjuncts (t = And) or the disjuncts (t = Or) of phi."""
        if type(phi) is t:
            return parts(phi.a, t) + parts(phi.b, t)
        if t is Or and type(phi) is Implies:
            return [node(Not(phi.a), fv(phi.a))] + parts(phi.b, t)
        return [phi]

    def push(quant: type, x: str, body: Formula) -> Formula:
        vars = fv(body)
        if x not in vars:
            return body
        other, split, join = (Forall, Or, And) if quant is Exists else (Exists, And, Or)
        t = type(body)
        if t is Not:
            return node(Not(push(other, x, body.sub)), vars - {x})
        if t is split:
            return node(t(push(quant, x, body.a), push(quant, x, body.b)), vars - {x})
        if t is Implies and quant is Exists:  # ∃x(A -> B) is ∀x A -> ∃x B
            return node(t(push(Forall, x, body.a), push(Exists, x, body.b)), vars - {x})
        ps = parts(body, join)
        outside = [p for p in ps if x not in fv(p)]
        if not outside:
            return node(quant(x, body), vars - {x})
        inside = joined(join, [p for p in ps if x in fv(p)])
        return joined(join, outside + [push(quant, x, inside)])

    def scope(phi: Formula) -> Formula:
        t = type(phi)
        if t is Exists or t is Forall:
            return push(t, phi.var, scope(phi.body))
        if t is Not:
            sub = scope(phi.sub)
            return node(phi if sub is phi.sub else Not(sub), fv(sub))
        if t in _CONNECTIVES:
            a, b = scope(phi.a), scope(phi.b)
            return node(phi if a is phi.a and b is phi.b else t(a, b), fv(a) | fv(b))
        return node(phi, frozenset(relation_vars(phi)))
    return scope(phi)


def automaton(phi: Formula) -> Dfa:
    """The minimal DFA of phi over the landmark words of its free variables,
    built over phi miniscoped, where no quantifier is vacuous."""
    return _build(_miniscope(phi))


def _build(phi: Formula) -> Dfa:
    t = type(phi)
    if t is Not:
        return _complement(_build(phi.sub))
    if t in _CONNECTIVES:
        return _product(_build(phi.a), _build(phi.b), _CONNECTIVES[t])
    if t is Exists:
        return _project(_build(phi.body), phi.var)
    if t is Forall:
        return _complement(_project(_complement(_build(phi.body)), phi.var))
    return _atom(phi)


def landmark_word(dfa: Dfa, a: Assignment, skip: str = "",
                  descending: bool = False) -> tuple[list[Fraction], list[int]]:
    """The landmarks where `a` places the variables of `dfa` other than
    `skip`, in order, and the letter at each (see `Assignment.value`)."""
    at: dict[Fraction, int] = {}
    for i, v in enumerate(dfa.vars):
        if v != skip:
            value = a.value(v)
            for q in value if is_set_var(v) else (value,):
                at[q] = at.get(q, 0) | 1 << i
    marks = sorted(at, reverse=descending)
    return marks, [at[q] for q in marks]


def decide(phi: Formula) -> bool:
    """Truth value of a closed formula in (ℚ,<): whether the initial state
    of its automaton accepts.  Exact on every well-sorted sentence; an
    ill-sorted atom raises FormulaError."""
    if free_vars(phi):
        raise FormulaError(f"formula has free variables {sorted(free_vars(phi))}")
    return automaton(phi).accept[0]


def eval(phi: Formula, a: Assignment) -> bool:  # noqa: A001
    """Truth value of phi under an assignment of its free variables: the
    automaton of phi run on the assignment's landmark word."""
    dfa = automaton(phi)
    return dfa.accept[dfa.run(landmark_word(dfa, a)[1])]


# ---------------------------------------------------------------------------
# the independent reference
# ---------------------------------------------------------------------------

def brute_eval(phi: Formula, a: Assignment) -> bool:
    """Reference evaluator by enumeration.

    A variable's sort is the case of its name (`formulas.is_set_var`), as
    for `decide`, and an ill-sorted atom raises FormulaError.  A point
    quantifier ranges over the landmarks plus one fresh point per gap,
    which is complete.  A set quantifier ∃X ψ, met at n landmarks L with ψ
    of quantifier rank r, ranges over each subset of L plus up to
    k = `fresh_per_gap(r)` = 2^r − 1 fresh points per gap, evenly spaced
    (`numbers.spread`): 2^n · (2^r)^(n+1) sets, yielded lazily.

    Complete for ψ without set quantifiers.  ℚ is the ordered sum of the
    landmarks and the gaps between them, and every point variable and every
    other set's member is a landmark.  So ψ under X = S reads S ∩ L and,
    per gap, the number c of S's members in it: the gap is then a dense
    order with c marked points, unique up to isomorphism.  Gaps with c,
    c' ≥ 2^r − 1 marks are r-equivalent: a move splits one into two gaps,
    and the other has a like move whose two gaps have equal counts or
    counts both ≥ 2^(r−1) − 1, the induction of Libkin, *Elements of Finite
    Model Theory*, Springer 2004, Thm 3.6.  As r-equivalence is kept under
    ordered sums, S and the candidate with S ∩ L and min(c, k) fresh points
    per gap agree on ψ.

    Limits.  With a set quantifier inside, ψ can count (parity, say), which
    min(c, k) does not keep; there the bound is applied without proof.  In
    the union sentence `AX AY EZ Ax (...)` Y meets 2^7 · 4^8 ≈ 8.4 M sets."""
    return _Brute(a).run(phi)


def fresh_per_gap(rank: int) -> int:
    """Fresh members per gap that a set quantifier tries (see `brute_eval`)."""
    return 2 ** rank - 1


#: Each relation's truth on the values of its two variables.
_HOLDS = {Less: operator.lt, EqPt: operator.eq, Mem: lambda q, s: q in s}


class _Brute(Evaluator):
    """Evaluator over a private copy of the assignment: bindings are pushed
    into and popped from its dicts around quantifier recursion."""

    def __init__(self, a: Assignment):
        self.a = Assignment(dict(a.points), dict(a.sets))

    def atom(self, phi: Formula) -> bool:
        x, y = map(self.a.value, relation_vars(phi))
        return _HOLDS[type(phi)](x, y)

    def bind(self, phi: Formula):
        if not is_set_var(phi.var):
            return self.a.points, point_candidates(self.a)
        # read before the evaluator binds phi.var; a set takes a prefix of
        # each slot, a gap's k fresh points or the landmark after it
        marks, k = self.a.landmarks(), fresh_per_gap(quantifier_rank(phi.body))
        slots: list[Sequence[Fraction]] = []
        for i, gap in enumerate(gaps_of(marks)):
            slots += [spread(gap, k), marks[i:i + 1]]
        sizes = product(*(range(len(slot) + 1) for slot in slots))
        return self.a.sets, (tuple(chain.from_iterable(s[:c] for s, c in zip(slots, cs)))
                             for cs in sizes)
