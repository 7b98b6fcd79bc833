"""Ground-truth semantics for the monadic second-order logic of (ℚ,<)
with set quantifiers ranging over finite sets only.

Point quantifiers are decided by testing each landmark (a rational already
named by the assignment) plus one fresh point per gap: atoms can only
compare the new point against landmarks, so the gap a point falls in
determines everything.  Set quantifiers range over subsets of the landmarks
extended by up to `cap` fresh points per gap; the cap is the number of
points the remaining quantifier prefix could individually interrogate.

The cap rule is unsound from quantifier depth 4 on.  "Some finite set has
at least 7 elements" can be written with one set quantifier and three
nested point quantifiers; it is true, but `decide` answers False, because
with cap 4 no set candidate has more than 4 points in a gap.  The
cap-stability probes and the brute-force subset enumerator both miss it
(see ROADMAP.md, Open item 1, for the complete automaton procedure that
is to replace this rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .numbers import NEG_INF, POS_INF, QInterval, pick_fresh
from .formulas import (
    EqPt, Evaluator, ExistsPt, ExistsSet, ForallPt, ForallSet, Formula,
    FormulaError, Less, Mem, free_vars, qdepth,
)


@dataclass(frozen=True)
class Assignment:
    points: dict[str, Fraction] = field(default_factory=dict)
    sets: dict[str, tuple[Fraction, ...]] = field(default_factory=dict)

    def with_point(self, var: str, q: Fraction) -> "Assignment":
        return Assignment({**self.points, var: q}, self.sets)

    def with_set(self, var: str, s: Iterable[Fraction]) -> "Assignment":
        return Assignment(self.points, {**self.sets, var: tuple(sorted(set(s)))})

    def landmarks(self) -> list[Fraction]:
        marks: set[Fraction] = set(self.points.values())
        for s in self.sets.values():
            marks.update(s)
        return sorted(marks)


EMPTY = Assignment()


def gaps_of(landmarks: Sequence[Fraction]) -> list[QInterval]:
    ends = [NEG_INF] + list(landmarks) + [POS_INF]
    return [QInterval(lo, hi) for lo, hi in zip(ends, ends[1:])]


_FRESH_CACHE: dict[QInterval, Fraction] = {}
_CHAIN_CACHE: dict[tuple[QInterval, int], tuple[Fraction, ...]] = {}


def _fresh(gap: QInterval) -> Fraction:
    x = _FRESH_CACHE.get(gap)
    if x is None:
        x = _FRESH_CACHE[gap] = pick_fresh(gap)
    return x


def fresh_chain(gap: QInterval, k: int) -> tuple[Fraction, ...]:
    """k distinct increasing fresh rationals inside an open gap."""
    key = (gap, k)
    out = _CHAIN_CACHE.get(key)
    if out is None:
        acc: list[Fraction] = []
        iv = gap
        for _ in range(k):
            x = _fresh(iv)
            acc.append(x)
            iv = QInterval(x, gap.hi)
        out = _CHAIN_CACHE[key] = tuple(acc)
    return out


def point_candidates(a: Assignment) -> list[Fraction]:
    marks = a.landmarks()
    return marks + [_fresh(g) for g in gaps_of(marks)]


def set_candidates(a: Assignment, cap: int) -> Iterator[tuple[Fraction, ...]]:
    marks = a.landmarks()
    gaps = gaps_of(marks)
    # try candidates with few fresh points first: existential witnesses are
    # usually landmark subsets, so this ordering lets any/all short-circuit
    mults = sorted(product(range(cap + 1), repeat=len(gaps)), key=sum)
    for mult in mults:
        extra: list[Fraction] = []
        for g, k in zip(gaps, mult):
            extra.extend(fresh_chain(g, k))
        for r in range(len(marks) + 1):
            for base in combinations(marks, r):
                yield tuple(sorted(base + tuple(extra)))


def eval(phi: Formula, a: Assignment, cap: int) -> bool:  # noqa: A001
    if cap < qdepth(phi):
        raise FormulaError(f"cap {cap} below quantifier depth {qdepth(phi)}")
    return _Eval(a, cap).run(phi)


class _Eval(Evaluator):
    """Evaluator over a private copy of the assignment: bindings are pushed
    into and popped from its dicts around quantifier recursion."""

    def __init__(self, a: Assignment, cap: int):
        self.a = Assignment(dict(a.points), dict(a.sets))
        self.cap = cap

    def atom(self, phi: Formula) -> bool:
        t = type(phi)
        if t is Less:
            return self.pt(phi.x) < self.pt(phi.y)
        if t is EqPt:
            return self.pt(phi.x) == self.pt(phi.y)
        if t is Mem:
            if phi.X not in self.a.sets:
                raise FormulaError(f"unbound set variable {phi.X}")
            return self.pt(phi.x) in self.a.sets[phi.X]
        raise FormulaError(f"not a formula over (Q,<): {phi!r}")

    def quantifier(self, phi: Formula):
        t = type(phi)
        if t is ExistsPt or t is ForallPt:
            return t is ExistsPt, self.a.points, point_candidates(self.a)
        if t is ExistsSet or t is ForallSet:
            return t is ExistsSet, self.a.sets, self.set_candidates()
        return None

    def set_candidates(self) -> Iterator[tuple[Fraction, ...]]:
        return set_candidates(self.a, self.cap)

    def pt(self, x: str) -> Fraction:
        if x not in self.a.points:
            raise FormulaError(f"unbound point variable {x}")
        return self.a.points[x]


def decide(phi: Formula) -> bool:
    """Truth value of a closed formula in (ℚ,<).

    Unsound from quantifier depth 4 on, where the cap rule may miss a
    witness set: the "at least 7 elements" sentence of ROADMAP.md, Open
    item 1, is true, and this returns False."""
    if free_vars(phi):
        raise FormulaError(f"formula has free variables {sorted(free_vars(phi))}")
    return eval(phi, EMPTY, max(qdepth(phi), 1))


def stability_probe(phi: Formula, caps: Sequence[int]) -> list[bool]:
    if free_vars(phi):
        raise FormulaError(f"formula has free variables {sorted(free_vars(phi))}")
    return [eval(phi, EMPTY, c) for c in caps]


def brute_eval(phi: Formula, a: Assignment, pool: Sequence[Fraction]) -> bool:
    """Reference evaluator isolating the set-quantifier cap rule.

    Point quantifiers use the same (complete) landmark-plus-gap rule as the
    engine; set quantifiers instead enumerate ALL subsets of the fixed pool
    together with the current landmarks, with no multiplicity cap.  Agreement
    with `eval` on the corpus is evidence for the cap rule, since that is the
    only place the two differ.
    """
    return _Brute(a, pool).run(phi)


class _Brute(_Eval):
    def __init__(self, a: Assignment, pool: Sequence[Fraction]):
        super().__init__(a, cap=0)
        self.pool = pool

    def set_candidates(self) -> Iterator[tuple[Fraction, ...]]:
        universe = sorted(set(self.pool) | set(self.a.landmarks()))
        return (s for r in range(len(universe) + 1) for s in combinations(universe, r))
