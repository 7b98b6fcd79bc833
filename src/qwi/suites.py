"""Seeded verification suites behind `qwi verify`.

Each suite re-checks one layer's invariants at the acceptance scale: group
laws and support covariance, the orbital-pattern conjugacy criterion with
verified witnesses, predicate-oracle coherence, the tail decomposition, the
pattern level `inf` formula, the eight cofinal classes, the WMSO automaton
against its brute-force reference, the interpretation round-trip, and the
literal-macro discrepancy report over every map of the {0, 1, 2} grid.  The
criteria in `tests/test_acceptance.py` run them, passing `cases` to the
seeded ones.  Every suite is deterministic under its seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .numbers import FULL_LINE, is_finite
from .plmap import PLMap, format_pl
from .patterns import (
    MAX_ONLY, MIN_ONLY, MINUS_INF, PLUS_INF, Fixed, Moving, OrbitalPattern,
    canonical_pattern, classify_cofinal, enumerate_patterns, fixed_kind,
    format_pattern, has_inf_orbitals, inf_formula_holds, lemma21_decompose,
    pattern_iso, pattern_of,
)
from .conjugacy import conjugating_witness, verify_conjugator
from .generators import gen_plmap_rnd, grid_maps
from . import predicates as P
from .interp import pullback_eval, translate
from .formulas import ATOM_ARITY, parse_wmso
from .wmso import Assignment, brute_eval, decide
from . import corpus as corpus_mod


@dataclass
class SuiteReport:
    suite: str
    cases: int
    failures: list[str]
    seed: int
    wall_time: float
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def machine_line(self) -> str:
        return f"{self.suite}\t{self.cases}\t{len(self.failures)}\t{self.wall_time:.3f}"

    def render(self) -> str:
        lines = [f"suite {self.suite}: {self.cases} cases, "
                 f"{len(self.failures)} failures, seed {self.seed}, "
                 f"{self.wall_time:.2f}s"]
        lines.extend(f"  note: {n}" for n in self.notes)
        lines.extend(f"  FAIL {f}" for f in self.failures)
        return "\n".join(lines)


def _rnd(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


# ---------------------------------------------------------------------------
# group-laws
# ---------------------------------------------------------------------------

def _suite_group_laws(seed: int, cases: int):
    rnd = _rnd("group-laws", seed)
    failures = []
    ident = PLMap.identity()
    for i in range(cases):
        f, g, h = (gen_plmap_rnd(rnd, 8) for _ in range(3))
        fi = f.inverse()

        def bad(law: str):
            failures.append(f"case {i}: {law} with f={format_pl(f)} "
                            f"g={format_pl(g)} h={format_pl(h)}")

        if f.compose(g).compose(h) != f.compose(g.compose(h)):
            bad("associativity")
        if f.compose(fi) != ident or fi.compose(f) != ident:
            bad("inverse law")
        if f.compose(ident) != f or ident.compose(f) != f:
            bad("identity law")
        if fi.inverse() != f:
            bad("double inverse")
        if f.compose(g).inverse() != g.inverse().compose(fi):
            bad("anti-homomorphism of inverse")
        for name, a, b in (("f", f, g), ("g", g, h), ("h", h, f)):
            # conjugation carries supports pointwise
            want = sorted((b.apply(iv.lo) if is_finite(iv.lo) else iv.lo,
                           b.apply(iv.hi) if is_finite(iv.hi) else iv.hi, s)
                          for iv, s in a.signed_support())
            got = sorted((iv.lo, iv.hi, s) for iv, s in a.conjugate_by(b).signed_support())
            if want != got:
                bad(f"support covariance of {name} under conjugation")
            # restriction witnesses
            comps = [iv for iv, _ in a.signed_support()]
            if comps:
                x = P.restrict_map(a, [iv for iv in comps if rnd.random() < 0.5])
                z = P.restr_witness(x, a)
                if z is None or not P.disj_sem(x, z) or x.compose(z) != a:
                    bad(f"restriction witness for {name}")
    return cases, failures, []


# ---------------------------------------------------------------------------
# orbitals: the conjugacy criterion with verified witnesses
# ---------------------------------------------------------------------------

def _suite_orbitals(seed: int, cases: int):
    rnd = _rnd("orbitals", seed)
    failures = []
    for i in range(cases):
        f = gen_plmap_rnd(rnd, 5)
        built = rnd.random() < 0.5
        g = f.conjugate_by(gen_plmap_rnd(rnd, 5)) if built else gen_plmap_rnd(rnd, 5)
        iso = pattern_iso(pattern_of(f), pattern_of(g))
        w = conjugating_witness(f, g)
        if (w is not None) != iso or (built and w is None):
            failures.append(f"case {i}: witness presence {w is not None} but "
                            f"pattern_iso {iso}, built conjugate {built}; "
                            f"f={format_pl(f)} g={format_pl(g)}")
        elif w is not None and not verify_conjugator(w, f, g):
            failures.append(f"case {i}: witness fails verification; "
                            f"f={format_pl(f)} g={format_pl(g)}")
    return cases, failures, []


# ---------------------------------------------------------------------------
# predicates: oracle coherence
# ---------------------------------------------------------------------------

def _suite_predicates(seed: int, cases: int):
    rnd = _rnd("predicates", seed)
    failures = []
    for i in range(cases):
        y = gen_plmap_rnd(rnd, 6)

        def bad(what: str, extra: str = ""):
            failures.append(f"case {i}: {what}; y={format_pl(y)} {extra}".rstrip())

        comps = y.signed_support()
        for iv, _ in comps:
            x = P.restrict_map(y, [iv])
            if not P.bump_sem(x):
                bad("component restriction is not a bump", f"iv={iv}")
            if not P.orbital_sem(x, y):
                bad("component restriction is not an orbital", f"iv={iv}")
            if not P.restr_sem(x, y) or not P.cont_sem(x, y):
                bad("orbital is not a contained restriction", f"iv={iv}")
        if P.coterm_sem(y) != (P.bump_sem(y) and [iv for iv, _ in comps] == [FULL_LINE]):
            bad("coterm disagrees with full-line bump test")
        z = gen_plmap_rnd(rnd, 6)
        if P.apart_sem(y, z) and not P.disj_sem(y, z):
            bad("apart elements with overlapping supports", f"z={format_pl(z)}")
        if P.disj_sem(y, z) != P.disj_sem(z, y):
            bad("disj is not symmetric", f"z={format_pl(z)}")
        if P.disj_sem(y, z) and y.compose(z) != z.compose(y):
            bad("disjoint elements fail to commute", f"z={format_pl(z)}")
    return cases, failures, []


# ---------------------------------------------------------------------------
# lemma21: tail decomposition
# ---------------------------------------------------------------------------

def _canonical_patterns(core_max: int, tail_max: int):
    """The canonical form of each pattern of `enumerate_patterns`, once per
    isomorphism class, in order of first appearance."""
    seen = set()
    for p in enumerate_patterns(core_max, tail_max):
        c = canonical_pattern(p)
        if c not in seen:  # interned blocks: equal patterns are equal tuples
            seen.add(c)
            yield c


def _lemma21_failure(p) -> str | None:
    """Why the decomposition of p is not Lemma 2.1's tail shift, or None.

    g must be a restriction of p (see `_restricts`) and isomorphic to g2,
    and g2 must be g with g1, the first orbital of g's tail, made fixed:
    the tail turns by two blocks, and g1 merges with the regions either
    side of it into the Fixed block that leads.  A decomposition of a left
    tail is read right to left (`_reversed`), and p with it."""
    g1, g2, g = lemma21_decompose(p)
    why = (f"pattern {format_pattern(p)}: decomposition g1={g1} "
           f"g={format_pattern(g)} g2={format_pattern(g2)}")
    if not pattern_iso(g, g2):
        return f"{why}: g not isomorphic to g2"
    c = canonical_pattern(p)
    if g.right_tail is None:
        first = g.left_tail[-1]
        c, g, g2 = _reversed(c), _reversed(g), _reversed(g2)
    else:
        first = g.right_tail[0]
    if not _restricts(c, g):
        return f"{why}: g is not p with some orbitals made fixed"
    w = g.right_tail
    lead = Fixed(fixed_kind(g.core[-1].has_min, w[1].has_max))
    if first != g1 or g2 != OrbitalPattern(g.left_tail, g.core[:-1] + (lead,), w[2:] + w[:2]):
        return f"{why}: g2 is not g with g1 made fixed"
    return None


#: The ends that reading right to left swaps, of orbitals and fixed regions.
_SWAP = {MINUS_INF: PLUS_INF, PLUS_INF: MINUS_INF, MIN_ONLY: MAX_ONLY, MAX_ONLY: MIN_ONLY}


def _reversed(p: OrbitalPattern) -> OrbitalPattern:
    """p read right to left, by code of its own rather than `patterns`' mirror."""
    def word(w):
        return w and tuple(Fixed(_SWAP.get(b.kind, b.kind)) if isinstance(b, Fixed) else
                           Moving(b.parity, _SWAP.get(b.right, b.right), _SWAP.get(b.left, b.left))
                           for b in reversed(w))
    return OrbitalPattern(word(p.right_tail), word(p.core), word(p.left_tail))


def _restricts(p: OrbitalPattern, g: OrbitalPattern) -> bool:
    """Whether g, with a right tail only, is p with some orbitals made
    fixed: g's core is one region, all of p below an orbital of p's right
    tail, and one period of g's tail, from that orbital on, covers one
    period of p's (see `_covers`).  The region's kind needs no check: in a
    valid g it has no least point and has a greatest exactly where that
    orbital's left end is rational."""
    rt, w = p.right_tail, g.right_tail
    if rt is None or g.left_tail is not None or not isinstance(w[0], Moving):
        return False
    return len(g.core) == 1 and any(_covers(w, rt[s:] + rt[:s]) for s in range(len(rt)))


def _covers(w: tuple, r: tuple) -> bool:
    """Whether the tail word w is the word r with some orbitals made fixed:
    each Moving block of w is r's block at the same place, and each Fixed
    block merges the run of r's blocks up to w's next orbital.  A run of
    one block stays as it is; a longer one becomes the region with the
    run's outer has_min and has_max."""
    j = 0
    for k, b in enumerate(w):
        if isinstance(b, Moving):
            if r[j:j + 1] != (b,):
                return False
            j += 1
            continue
        end = len(r) if k + 1 == len(w) else next(
            (i for i in range(j, len(r)) if r[i] == w[k + 1]), j)
        run = r[j:end]
        if not run or b != (run[0] if len(run) == 1 else
                            Fixed(fixed_kind(run[0].has_min, run[-1].has_max))):
            return False
        j = end
    return j == len(r)


def _suite_lemma21(seed: int, cases: int):
    failures = []
    n = 0
    for p in filter(has_inf_orbitals, _canonical_patterns(5, 3)):
        n += 1
        why = _lemma21_failure(p)
        if why is not None:
            failures.append(why)
    return n, failures, []


# ---------------------------------------------------------------------------
# lemma22: the inf formula against its structural meaning
# ---------------------------------------------------------------------------

def _suite_lemma22(seed: int, cases: int):
    failures = []
    n = finite = 0
    truth_seen = set()
    for c in _canonical_patterns(5, 3):
        n += 1
        want = has_inf_orbitals(c)
        got = inf_formula_holds(c)
        truth_seen.add(want)
        finite += not want
        if got != want:
            failures.append(f"pattern {format_pattern(c)}: inf formula {got}, "
                            f"infinitely many orbitals {want}")
    if truth_seen != {True, False}:
        failures.append(f"only truth values {truth_seen} exercised")
    return n, failures, [f"{n} classes: {finite} finite, {n - finite} with ω-many orbitals"]


# ---------------------------------------------------------------------------
# classes8: the cofinal classes
# ---------------------------------------------------------------------------

_CLASSES8 = {(par, side, kind) for par in (1, -1) for side in ("left", "right")
             for kind in ("rational", "irrational")}


def _suite_classes8(seed: int, cases: int):
    failures = []
    ids = {}
    n = 0
    for p in enumerate_patterns(3, 2):
        c = canonical_pattern(p)
        cls = classify_cofinal(c)
        if cls is None:
            continue
        n += 1
        ids.setdefault(cls, format_pattern(c))
    if set(ids) != _CLASSES8:
        failures.append(f"found cofinal classes {sorted(ids)}, expected "
                        f"{sorted(_CLASSES8)}")
    notes = [f"class {c}: e.g. {ex}" for c, ex in sorted(ids.items())]
    return n, failures, notes


# ---------------------------------------------------------------------------
# wmso: corpus truth and brute-force agreement
# ---------------------------------------------------------------------------

def _suite_wmso(seed: int, cases: int):
    failures = []
    entries = corpus_mod.load_corpus()
    for truth, text, note in entries:
        phi = parse_wmso(text)
        got = decide(phi)
        if got != truth:
            failures.append(f"{text!r}: decided {got}, recorded {truth}")
        if brute_eval(phi, Assignment()) != truth:
            failures.append(f"{text!r}: brute-force enumerator disagrees")
    return len(entries), failures, []


# ---------------------------------------------------------------------------
# roundtrip: the interpretation on the corpus, both orientations
# ---------------------------------------------------------------------------

def _suite_roundtrip(seed: int, cases: int):
    failures = []
    entries = corpus_mod.load_corpus()
    for truth, text, note in entries:
        psi = translate(parse_wmso(text))
        for side in ("right", "left", None):
            got = pullback_eval(psi, orientation=side)
            if got != truth:
                failures.append(f"{text!r}: pullback ({side or 'either'} "
                                f"orientation) {got}, recorded {truth}")
    return len(entries), failures, []


# ---------------------------------------------------------------------------
# discrepancy: literal macros against the intended oracles
# ---------------------------------------------------------------------------

def _suite_discrepancy(seed: int, cases: int):
    failures = []
    notes = []
    x, y, lit, sem = P.cont_degeneracy_example()
    if not (lit and not sem):
        failures.append("cont degeneracy example did not reproduce")
    else:
        notes.append("expected finding: literal cont macro "
                     "(forall z: disj(y,z) -> disj(x,z)) holds exactly when "
                     "supp x lies in supp y joined across y's isolated fixed "
                     "points, so it differs from the oracle where x moves "
                     "one of them; e.g. "
                     f"x={format_pl(x)} y={format_pl(y)} "
                     f"literal={lit} oracle={sem}")
    maps = len(grid_maps(P.DISCREPANCY_GRID))
    for macro in P.LITERAL_MACROS:
        bad = P.discrepancy_search(macro)
        read = maps ** ATOM_ARITY[macro]
        if macro == "cont":
            notes.append(f"cont: literal diverges from oracle on "
                         f"{len(bad)}/{read} grid pairs (expected, documented)")
            odd = [b for b in bad if not (b[2] and not b[3] and any(
                lo == hi and b[0](lo) != lo for lo, hi, _ in b[1].regions()))]
            if not bad or odd:
                failures.append(f"cont: {len(bad)} divergences, {len(odd)} not a true literal "
                                f"where x moves an isolated fixed point of y: {odd[:1]!r}")
        elif bad:
            failures.append(f"{macro}: literal macro diverges from oracle "
                            f"on {len(bad)}/{read} grid tuples, e.g. {bad[0]!r}")
        else:
            notes.append(f"{macro}: literal and oracle agree on all "
                         f"{read} grid tuples")
    return 1 + sum(maps ** ATOM_ARITY[m] for m in P.LITERAL_MACROS), failures, notes


_SUITES = {
    "group-laws": (_suite_group_laws, 300),
    "orbitals": (_suite_orbitals, 200),
    "predicates": (_suite_predicates, 200),
    "lemma21": (_suite_lemma21, 0),
    "lemma22": (_suite_lemma22, 0),
    "classes8": (_suite_classes8, 0),
    "wmso": (_suite_wmso, 0),
    "roundtrip": (_suite_roundtrip, 0),
    "discrepancy": (_suite_discrepancy, 0),
}

SUITE_NAMES = list(_SUITES) + ["all"]


def run_suite(name: str, seed: int = 0, cases: int | None = None) -> list[SuiteReport]:
    """Run one suite (or `all`); returns one report per suite executed."""
    if name == "all":
        out = []
        for n in _SUITES:
            out.extend(run_suite(n, seed, cases))
        return out
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    if cases is not None and cases < 0:
        raise ValueError(f"the case count must not be negative, got {cases}")
    fn, default_cases = _SUITES[name]
    n_cases = default_cases if cases is None else cases
    t0 = time.monotonic()
    ran, failures, notes = fn(seed, n_cases)
    return [SuiteReport(name, ran, failures, seed, time.monotonic() - t0, notes)]
