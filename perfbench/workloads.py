"""The four workloads: seeded inputs, the task each one runs, and the checks
on every task's output.

A workload object has

- `passes`: how many fresh worker processes time the same tasks;
- `limit`: a per-task time limit in seconds, or None;
- `setup(api, seed, seconds)`: the inputs, made from the seed alone;
- `task(api, inputs, i)`: task i, the timed part, returning its raw result;
- `check(inputs, i, result)`: the verdict string, or raises TaskFailed;
- `describe(inputs)`: strings whose digest identifies the inputs;
- `finish()`: failures of checks over the whole run;
- `counters()`: exact per-layer counts the checks collected.

`check` runs outside the timed region.  Verdicts never contain witnesses,
which are not unique, so that two runs of one seed give equal digests.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from qwi.formulas import print_group
from qwi.numbers import NEG_INF, POS_INF
from qwi.plmap import format_pl

DATA = Path(__file__).resolve().parent / "data"


class TaskFailed(Exception):
    """A task's output failed a check."""


class Exhausted(Exception):
    """The workload has no further task (its input stream ended)."""


def _sized(seconds: float, passes: int, per_second: float) -> int:
    """Tasks per pass so that all passes together take about `seconds`, and
    at least 100, so that `task_ms_p90` has ten samples beyond it."""
    return max(100, round(seconds / passes * per_second))


class Workload:
    """Defaults shared by the workloads (interface: module docstring)."""

    passes = 8
    limit = None

    def finish(self):
        return []

    def counters(self):
        return {}


# ---------------------------------------------------------------------------
# group-calculus
# ---------------------------------------------------------------------------

class GroupCalculus(Workload):
    """Criterion-1 mix on seeded triples of complexity-8 maps."""

    name = "group-calculus"
    per_second = 85.0    # tasks per second of task time on a 2-CPU host

    def setup(self, api, seed, seconds):
        rnd = random.Random(f"{self.name}:{seed}")
        n = _sized(seconds, self.passes, self.per_second)
        gen = api.generators.gen_plmap_rnd
        self.ident = api.plmap.identity()
        return [tuple(gen(rnd, 8) for _ in range(3)) for _ in range(n)]

    def task(self, api, inputs, i):
        P, R = api.plmap, api.predicates
        f, g, h = inputs[i]
        ident = self.ident
        laws = [
            P.eq(P.compose(P.compose(f, g), h), P.compose(f, P.compose(g, h))),
            P.eq(P.compose(f, P.inverse(f)), ident),
            P.eq(P.compose(f, ident), f) and P.eq(P.compose(ident, f), f),
            P.eq(P.inverse(P.compose(f, g)), P.compose(P.inverse(g), P.inverse(f))),
        ]
        for a, b in ((f, g), (g, h), (h, f)):
            support = P.signed_support(a)
            conj = P.conjugate_by(a, b)
            want = sorted((P.apply(b, iv.lo) if iv.lo is not NEG_INF else NEG_INF,
                           P.apply(b, iv.hi) if iv.hi is not POS_INF else POS_INF, s)
                          for iv, s in support)
            got = sorted((iv.lo, iv.hi, s) for iv, s in P.signed_support(conj))
            laws.append(want == got)
            comps = [iv for iv, _ in support]
            if comps:
                x = R.restrict_map(a, comps[::2])
                z = R.restr_witness(x, a)
                laws.append(z is not None and R.disj_sem(x, z)
                            and P.eq(P.compose(x, z), a))
            laws.append(len(comps))
        return laws

    def check(self, inputs, i, laws):
        names = ["associativity", "inverse law", "identity law",
                 "inverse of a product"]
        for name, ok in zip(names, laws):
            if ok is not True:
                raise TaskFailed(name)
        for v in laws[4:]:
            if v is False:
                raise TaskFailed("support covariance or restriction witness")
        return "".join("1" if v is True else str(v) for v in laws)

    def describe(self, inputs):
        for triple in inputs:
            yield " ".join(format_pl(m) for m in triple)


# ---------------------------------------------------------------------------
# conjugacy
# ---------------------------------------------------------------------------

class Conjugacy(Workload):
    """Seeded pairs at complexity <= 5, half of them conjugate by
    construction: patterns, witness and exact verification.  A task takes
    one conjugate pair and one random pair, so that its time is not split
    into two clusters (cheap random pairs, dear conjugate ones) with the
    median falling between them."""

    name = "conjugacy"
    per_second = 95.0

    def setup(self, api, seed, seconds):
        rnd = random.Random(f"{self.name}:{seed}")
        self.seed = seed
        self.witness_pieces = 0
        n = _sized(seconds, self.passes, self.per_second)
        gen, conj = api.generators.gen_plmap_rnd, api.plmap.conjugate_by
        tasks = []
        for _ in range(n):
            f = gen(rnd, 5)
            tasks.append(((f, conj(f, gen(rnd, 5))), (gen(rnd, 5), gen(rnd, 5))))
        return tasks

    def task(self, api, inputs, i):
        P, C = api.patterns, api.conjugacy
        out = []
        for f, g in inputs[i]:
            iso = P.pattern_iso(P.pattern_of(f), P.pattern_of(g))
            w = C.conjugating_witness(f, g)
            out.append((iso, w, w is not None and C.verify_conjugator(w, f, g)))
        return out

    def check(self, inputs, i, result):
        verdicts = []
        for k, ((f, g), (iso, w, verified)) in enumerate(zip(inputs[i], result)):
            if (w is not None) != iso:
                raise TaskFailed(f"witness {'found' if w else 'missing'} but "
                                 f"pattern_iso says {iso}")
            if k == 0 and not iso:
                raise TaskFailed("a conjugate pair was not recognised")
            if w is not None:
                if not verified:
                    raise TaskFailed("verify_conjugator rejected the witness")
                self.witness_pieces += sum(len(getattr(s, "windows", ()))
                                           for s in w.segments)
                if self.spot:
                    rnd = random.Random(f"spot:{self.seed}:{i}:{k}")
                    bad = spot_check(w, f, g, rnd)
                    if bad is not None:
                        raise TaskFailed(f"h(f(x)) != g(h(x)) at x = {bad}")
            verdicts.append("iso" if iso else "non-iso")
        return " ".join(verdicts)

    def describe(self, inputs):
        for pairs in inputs:
            yield " | ".join(format_pl(m) for pair in pairs for m in pair)

    def counters(self):
        return {"conjugacy.witness_pieces": self.witness_pieces}


def spot_check(h, f, g, rnd: random.Random):
    """The first seeded rational x with h(f(x)) != g(h(x)), else None.

    Independent of `verify_conjugator`: it only evaluates the three maps.
    Besides points spread over the line it takes, in every orbital of f, a
    seeded interior point and its images under f^±k for k = 2, 8, 21,
    which lie deep in both germ tails of the orbital.
    """
    xs = [Fraction(rnd.randint(-96, 96), rnd.randint(1, 12)) for _ in range(4)]
    for iv, _ in f.signed_support():
        x0 = _interior(iv.lo, iv.hi, rnd)
        xs.append(x0)
        for step in (f.apply, f.apply_inverse):
            x, k = x0, 0
            for want in (2, 8, 21):
                while k < want:
                    x, k = step(x), k + 1
                xs.append(x)
    for x in xs:
        try:
            if h.apply(f.apply(x)) != g.apply(h.apply(x)):
                return x
        except ValueError:
            return x
    return None


def _interior(lo, hi, rnd: random.Random) -> Fraction:
    t = Fraction(rnd.randint(1, 15), 16)
    if lo is NEG_INF and hi is POS_INF:
        return Fraction(rnd.randint(-40, 40), rnd.randint(1, 5))
    if lo is NEG_INF:
        return hi - 1 / t
    if hi is POS_INF:
        return lo + 1 / t
    return lo + t * (hi - lo)


# ---------------------------------------------------------------------------
# wmso
# ---------------------------------------------------------------------------

class Wmso(Workload):
    """Corpus, the known-true sentences and seeded random sentences, each
    decided, compiled and pulled back under both orientations."""

    name = "wmso"
    passes = 2
    limit = 6.0
    random_sentences = 80

    def setup(self, api, seed, seconds):
        rnd = random.Random(f"{self.name}:{seed}")
        self.stage = None
        self.out_chars = 0
        self.over_limit = {"wmso.decide": 0, "interp.pullback_eval": 0}
        entries = [(t, s, f"corpus: {n}") for t, s, n in api.corpus.load_corpus()]
        entries += load_sentences(DATA / "known_true.txt")
        depths = [1, 2, 3, 4] * (self.random_sentences // 4)
        rnd.shuffle(depths)
        for depth in depths:
            entries.append((None, random_sentence(rnd, depth),
                            f"random, depth {depth}"))
        return entries

    def task(self, api, inputs, i):
        self.stage = "formulas.parse_wmso"
        phi = api.formulas.parse_wmso(inputs[i][1])
        self.stage = "wmso.decide"
        direct = api.wmso.decide(phi)
        self.stage = "interp.translate"
        psi = api.interp.translate(phi)
        self.stage = "interp.pullback_eval"
        right = api.interp.pullback_eval(psi, orientation="right")
        left = api.interp.pullback_eval(psi, orientation="left")
        self.stage = None
        return direct, right, left, psi

    def on_limit(self):
        self.over_limit[self.stage] = self.over_limit.get(self.stage, 0) + 1

    def check(self, inputs, i, result):
        direct, right, left, psi = result
        want, text, note = inputs[i]
        self.out_chars += len(print_group(psi))
        if not direct == right == left:
            raise TaskFailed(f"decide {direct}, pullback right {right}, "
                             f"left {left}: {note}: {text}")
        if want is not None and direct != want:
            raise TaskFailed(f"decide and pullback say {direct}, "
                             f"expected {want}: {note}: {text}")
        return str(direct)

    def describe(self, inputs):
        for want, text, _ in inputs:
            yield f"{want}\t{text}"

    def counters(self):
        out = {f"{k}.over_limit": v for k, v in self.over_limit.items()}
        out["interp.translate.out_chars"] = self.out_chars
        return out


def load_sentences(path: Path) -> list[tuple[bool, str, str]]:
    """(expected truth, formula, note) per line of a corpus-format file."""
    out = []
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            truth, text, note = line.split("\t")
            out.append((truth == "true", text, note))
    return out


def random_sentence(rnd: random.Random, depth: int) -> str:
    """A closed WMSO sentence of quantifier depth exactly `depth`, as text.

    Every quantifier body is one or two parts; besides the part that
    carries the depth, a part is an atom.  Only the outermost quantifier of
    a sentence of depth 2 or 3 may be a set quantifier.  That bounds a
    sentence's cost: a set quantifier with more point quantifiers around
    it costs `pullback_eval` seconds, and nested set quantifiers make
    `decide` blow up.  The fixed sentences measure both.
    """
    names = iter(range(1, 64))
    if 1 < depth < 4 and rnd.random() < 0.5:
        var = f"S{next(names)}"
        body = _body(rnd, depth - 1, [], [var], names)
        return f"{rnd.choice('AE')}{var} ({body})"
    return _formula(rnd, depth, [], [], names)


def _formula(rnd, depth, pts, sets, names):
    if depth == 0:
        return _atom(rnd, pts, sets)
    var = f"x{next(names)}"
    body = _body(rnd, depth - 1, pts + [var], sets, names)
    return f"{rnd.choice('AE')}{var} ({body})"


def _body(rnd, depth, pts, sets, names):
    parts = [_formula(rnd, depth, pts, sets, names)]
    if pts and rnd.random() < 0.5:
        parts.append(_atom(rnd, pts, sets))
        rnd.shuffle(parts)
    parts = ["~" + p if rnd.random() < 0.3 else p for p in parts]
    if len(parts) == 1:
        return parts[0]
    return f"({parts[0]}) {rnd.choice(['&', '|', '->', '<->'])} ({parts[1]})"


def _atom(rnd, pts, sets):
    x = rnd.choice(pts)
    r = rnd.random()
    if sets and r < 0.5:
        return f"{x} in {rnd.choice(sets)}"
    return f"{x} {'<' if r < 0.8 else '='} {rnd.choice(pts)}"


# ---------------------------------------------------------------------------
# pattern-census
# ---------------------------------------------------------------------------

CENSUS_CORE, CENSUS_TAIL = 5, 3
COFINAL_CLASSES = {(par, side, kind) for par in (1, -1)
                   for side in ("left", "right")
                   for kind in ("rational", "irrational")}


class PatternCensus(Workload):
    """Exhaustive `enumerate_patterns(5, 3)`; a task is one yielded pattern,
    canonicalised, deduplicated and, when new, checked.  The enumeration is
    exhaustive, so the inputs do not depend on the seed."""

    name = "pattern-census"
    passes = 4

    def setup(self, api, seed, seconds):
        self.patterns = api.patterns.enumerate_patterns(CENSUS_CORE, CENSUS_TAIL)
        self.seen: set[str] = set()
        self.classes: set = set()
        return None

    def task(self, api, inputs, i):
        P = api.patterns
        try:
            p = next(self.patterns)
        except StopIteration:
            raise Exhausted from None
        c = P.canonical_pattern(p)
        key = P.format_pattern(c)
        if key in self.seen:
            return key, None
        self.seen.add(key)
        tail = P.has_inf_orbitals(c)
        inf = P.inf_formula_holds(c)
        iso = None
        if tail:
            res = P.lemma21_decompose(c)
            iso = res is not None and P.pattern_iso(res[2], res[1])
        return key, (tail, inf, iso, P.classify_cofinal(c))

    def check(self, inputs, i, result):
        key, checks = result
        if checks is None:
            return "dup"
        tail, inf, iso, cls = checks
        if inf != tail:
            raise TaskFailed(f"inf formula {inf}, infinitely many orbitals "
                             f"{tail}: {key}")
        if tail and not iso:
            raise TaskFailed(f"no tail decomposition: {key}")
        if cls is not None:
            self.classes.add(cls)
        return f"{key} {int(tail)} {cls}"

    def describe(self, inputs):
        yield f"enumerate_patterns({CENSUS_CORE}, {CENSUS_TAIL})"

    def finish(self):
        if self.classes != COFINAL_CLASSES:
            return [f"cofinal classes {sorted(self.classes)}, expected the 8 "
                    f"of parity x side x endpoint kind"]
        return []


WORKLOADS = {w.name: w for w in (GroupCalculus, Conjugacy, Wmso, PatternCensus)}
