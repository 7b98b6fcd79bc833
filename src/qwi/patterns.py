"""Orbitals and orbital patterns: 3-coloured linear orders of moving/fixed
regions, with ω-tails for elements that only exist symbolically.

A pattern is a finite core of blocks plus an optional periodic word repeated
descending toward -∞ (left tail) and/or ascending toward +∞ (right tail).
Boundary kinds record whether a region edge is a rational, an irrational cut,
or an infinity; the consistency table below is the executable reconstruction
of which kinds may face each other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional, Sequence, Union

from .numbers import NEG_INF, POS_INF, is_finite
from .plmap import PLMap

# boundary kinds
MINUS_INF = "minus_inf"
PLUS_INF = "plus_inf"
RATIONAL = "rational"
IRRATIONAL = "irrational"

# fixed-region order types
EMPTY = "empty"                  # two orbitals abutting at an irrational
SINGLETON = "singleton"          # one rational fixed point
NO_MIN_NO_MAX = "no_min_no_max"  # order type η
MIN_ONLY = "min_only"            # 1 + η
MAX_ONLY = "max_only"            # η + 1
MIN_AND_MAX = "min_and_max"      # 1 + η + 1

_HAS_MIN = {SINGLETON, MIN_ONLY, MIN_AND_MAX}
_HAS_MAX = {SINGLETON, MAX_ONLY, MIN_AND_MAX}


class PatternError(ValueError):
    pass


@dataclass(frozen=True)
class Moving:
    parity: int  # +1 or -1
    left: str
    right: str

    def __post_init__(self):
        if self.parity not in (1, -1):
            raise PatternError(f"moving parity must be ±1, got {self.parity}")
        if self.left not in (MINUS_INF, RATIONAL, IRRATIONAL):
            raise PatternError(f"bad left boundary {self.left}")
        if self.right not in (PLUS_INF, RATIONAL, IRRATIONAL):
            raise PatternError(f"bad right boundary {self.right}")


@dataclass(frozen=True)
class Fixed:
    kind: str

    def __post_init__(self):
        if self.kind not in (EMPTY, SINGLETON, NO_MIN_NO_MAX, MIN_ONLY, MAX_ONLY, MIN_AND_MAX):
            raise PatternError(f"bad fixed-region kind {self.kind}")

    @property
    def has_min(self) -> bool:
        return self.kind in _HAS_MIN

    @property
    def has_max(self) -> bool:
        return self.kind in _HAS_MAX


Block = Union[Moving, Fixed]


def fixed_kind(has_min: bool, has_max: bool) -> str:
    if has_min and has_max:
        return MIN_AND_MAX
    if has_min:
        return MIN_ONLY
    if has_max:
        return MAX_ONLY
    return NO_MIN_NO_MAX


# ---------------------------------------------------------------------------
# consistency table
#
# Reading left to right, a Moving block's right boundary faces the min side
# of the next Fixed region, and a Fixed region's max side faces the next
# Moving block's left boundary.  A closed side forces the facing boundary
# rational (it *is* that rational); an open side of a bounded region has an
# irrational cut; EMPTY forces irrational on both sides.  The four
# rationality combinations of an orbital's endpoints are exactly the cases
# this table distinguishes.
# ---------------------------------------------------------------------------

def _fixed_left_ok(m_right: str, f: Fixed) -> bool:
    if m_right == RATIONAL:
        return f.has_min
    if m_right == IRRATIONAL:
        return not f.has_min
    return False  # PLUS_INF cannot face anything


def _fixed_right_ok(f: Fixed, m_left: str) -> bool:
    if m_left == RATIONAL:
        return f.has_max
    if m_left == IRRATIONAL:
        return not f.has_max
    return False  # MINUS_INF cannot face anything


def _adjacent_ok(a: Block, b: Block) -> bool:
    if isinstance(a, Moving) and isinstance(b, Fixed):
        return _fixed_left_ok(a.right, b)
    if isinstance(a, Fixed) and isinstance(b, Moving):
        return _fixed_right_ok(a, b.left)
    return False  # Moving/Moving (use Fixed(EMPTY)) and Fixed/Fixed merge


def _left_edge_ok(b: Block) -> bool:
    if isinstance(b, Moving):
        return b.left == MINUS_INF
    return b.kind in (NO_MIN_NO_MAX, MAX_ONLY)


def _right_edge_ok(b: Block) -> bool:
    if isinstance(b, Moving):
        return b.right == PLUS_INF
    return b.kind in (NO_MIN_NO_MAX, MIN_ONLY)


def _interior_ok(b: Block) -> bool:
    """May b occur inside a tail word (repeated, never touching an end)?"""
    if isinstance(b, Moving):
        return b.left != MINUS_INF and b.right != PLUS_INF
    return True


@dataclass(frozen=True)
class OrbitalPattern:
    left_tail: Optional[tuple[Block, ...]]
    core: tuple[Block, ...]
    right_tail: Optional[tuple[Block, ...]]

    def __repr__(self):
        return format_pattern(self)


def make_pattern(core: Sequence[Block],
                 left_tail: Optional[Sequence[Block]] = None,
                 right_tail: Optional[Sequence[Block]] = None) -> OrbitalPattern:
    p = OrbitalPattern(
        tuple(left_tail) if left_tail is not None else None,
        tuple(core),
        tuple(right_tail) if right_tail is not None else None,
    )
    validate_pattern(p)
    return p


def pattern_is_valid(p: OrbitalPattern) -> bool:
    try:
        validate_pattern(p)
        return True
    except PatternError:
        return False


def validate_pattern(p: OrbitalPattern) -> None:
    if p.left_tail is not None and not p.left_tail:
        raise PatternError("empty left tail word")
    if p.right_tail is not None and not p.right_tail:
        raise PatternError("empty right tail word")
    p = _collapse_trivial_tails(p)
    lt, core, rt = p.left_tail, p.core, p.right_tail
    if not core and lt is None and rt is None:
        raise PatternError("pattern denotes nothing")
    for word in (lt, rt):
        if word is None:
            continue
        for b in word:
            if not _interior_ok(b):
                raise PatternError(f"tail block {b} touches an infinity")
        if not _adjacent_ok(word[-1], word[0]):
            raise PatternError(f"inconsistent tail seam {word[-1]} | {word[0]}")
    # one pass over the blocks as they lie on the line, each tail once
    line = (lt or ()) + core + (rt or ())
    for a, b in zip(line, line[1:]):
        if not _adjacent_ok(a, b):
            raise PatternError(f"inconsistent adjacency {a} | {b}")
    if lt is None and not _left_edge_ok(line[0]):
        raise PatternError(f"{line[0]} cannot be the leftmost block")
    if rt is None and not _right_edge_ok(line[-1]):
        raise PatternError(f"{line[-1]} cannot be the rightmost block")


# ---------------------------------------------------------------------------
# canonical form and isomorphism
# ---------------------------------------------------------------------------

def _collapse_trivial_tails(p: OrbitalPattern) -> OrbitalPattern:
    """A tail word without any Moving block denotes one big fixed region
    running to the infinity on that side; fold it into the core.  When every
    tail present holds a Moving block there is nothing to fold, and p itself
    is returned."""
    lt, rt = p.left_tail, p.right_tail
    fold_left = lt is not None and Moving not in map(type, lt)
    fold_right = rt is not None and Moving not in map(type, rt)
    if not (fold_left or fold_right):
        return p
    core = list(p.core)
    if fold_right:
        merged = Fixed(fixed_kind(rt[0].has_min if isinstance(rt[0], Fixed) else False, False))
        if core and isinstance(core[-1], Fixed):
            merged = Fixed(fixed_kind(core[-1].has_min, False))
            core.pop()
        core.append(merged)
        rt = None
    if fold_left:
        merged = Fixed(fixed_kind(False, lt[-1].has_max if isinstance(lt[-1], Fixed) else False))
        if core and isinstance(core[0], Fixed):
            merged = Fixed(fixed_kind(False, core[0].has_max))
            core.pop(0)
        core.insert(0, merged)
        lt = None
    return OrbitalPattern(lt, tuple(core), rt)


def _primitive(word: tuple[Block, ...]) -> tuple[Block, ...]:
    n = len(word)
    for d in range(1, n // 2 + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def canonical_pattern(p: OrbitalPattern) -> OrbitalPattern:
    """The canonical form of p's order type; p itself when p is already in
    canonical form."""
    p = _collapse_trivial_tails(p)
    lt, core, rt = p.left_tail, p.core, p.right_tail
    if rt is not None:
        rt = _primitive(rt)
        # absorb a maximal run of the core into the periodic part
        while core and core[-1] == rt[-1]:
            core = core[:-1]
            rt = rt[-1:] + rt[:-1]
    if lt is not None:
        lt = _primitive(lt)
        while core and core[0] == lt[0]:
            core = core[1:]
            lt = lt[1:] + lt[:1]
    if lt is p.left_tail and core is p.core and rt is p.right_tail:
        return p
    return OrbitalPattern(lt, core, rt)


def pattern_iso(p: OrbitalPattern, q: OrbitalPattern) -> bool:
    """Isomorphism of the denoted 3-coloured linear orders."""
    return canonical_pattern(p) == canonical_pattern(q)


# ---------------------------------------------------------------------------
# patterns of executable maps
# ---------------------------------------------------------------------------

def _boundary_kind(x) -> str:
    if x is NEG_INF:
        return MINUS_INF
    if x is POS_INF:
        return PLUS_INF
    return RATIONAL


def _fixed_block(lo, hi) -> Fixed:
    if lo == hi:
        return Fixed(SINGLETON)
    return Fixed(fixed_kind(is_finite(lo), is_finite(hi)))


def pattern_of(f: PLMap) -> OrbitalPattern:
    """Finite orbital pattern of an executable element (never has tails)."""
    return make_pattern([
        Moving(sign, _boundary_kind(lo), _boundary_kind(hi)) if sign
        else _fixed_block(lo, hi)
        for lo, hi, sign in f.regions()
    ])


# ---------------------------------------------------------------------------
# cofinal classification
# ---------------------------------------------------------------------------

def classify_cofinal(p: OrbitalPattern) -> Optional[tuple[int, str, str]]:
    """(parity, side, endpoint-rationality) for a cofinal bump, else None.

    A cofinal bump has one non-trivial orbital whose support is bounded on
    exactly one side; 8 classes in total.
    """
    c = canonical_pattern(p)
    if c.left_tail is not None or c.right_tail is not None:
        return None
    blocks = c.core
    if len(blocks) != 2:
        return None
    if isinstance(blocks[0], Fixed) and isinstance(blocks[1], Moving):
        f, m = blocks
        if m.right != PLUS_INF or m.left in (MINUS_INF, PLUS_INF):
            return None
        return (m.parity, "right", "rational" if m.left == RATIONAL else "irrational")
    if isinstance(blocks[0], Moving) and isinstance(blocks[1], Fixed):
        m, f = blocks
        if m.left != MINUS_INF or m.right in (MINUS_INF, PLUS_INF):
            return None
        return (m.parity, "left", "rational" if m.right == RATIONAL else "irrational")
    return None


def has_inf_orbitals(p: OrbitalPattern) -> bool:
    for word in (p.left_tail, p.right_tail):
        if word is not None and any(isinstance(b, Moving) for b in word):
            return True
    return False


# ---------------------------------------------------------------------------
# Lemma 2.1-style decomposition of ω-tail patterns
# ---------------------------------------------------------------------------

_MIRROR_KIND = {MINUS_INF: PLUS_INF, PLUS_INF: MINUS_INF,
                RATIONAL: RATIONAL, IRRATIONAL: IRRATIONAL}


def _mirror_block(b: Block) -> Block:
    if isinstance(b, Fixed):
        if b.kind in (EMPTY, SINGLETON):
            return b
        return Fixed(fixed_kind(b.has_max, b.has_min))
    return Moving(b.parity, _MIRROR_KIND[b.right], _MIRROR_KIND[b.left])


def mirror_pattern(p: OrbitalPattern) -> OrbitalPattern:
    """Order-reversal of the pattern (parities kept as labels)."""
    def mw(word):
        return None if word is None else tuple(map(_mirror_block, reversed(word)))

    return OrbitalPattern(mw(p.right_tail), mw(p.core), mw(p.left_tail))


def lemma21_decompose(p: OrbitalPattern) -> tuple[Moving, OrbitalPattern, OrbitalPattern]:
    """For a pattern with ω-many orbitals, a restriction g that splits as an
    orbital g1 times a remainder g2 with g ≅ g2.

    The restriction keeps one class of identical orbitals from a tail word
    (the thinning-out step: uniform parity, uniform endpoint kinds) so that
    dropping the first one is a shift of the ω-sequence.
    """
    if not has_inf_orbitals(p):
        raise PatternError("pattern has finitely many orbitals")
    c = canonical_pattern(p)
    if c.right_tail is not None:
        return _decompose_right(c.right_tail)
    g1, g2, g = _decompose_right(mirror_pattern(c).right_tail)
    return (_mirror_block(g1), mirror_pattern(g2), mirror_pattern(g))


def _decompose_right(word: tuple[Block, ...]) -> tuple[Moving, OrbitalPattern, OrbitalPattern]:
    cls = next(b for b in word if isinstance(b, Moving))
    n = len(word)
    idx = [i for i, b in enumerate(word) if b == cls]
    # thinned period: one block of the class, then the merged region up to
    # its next occurrence (cyclically), for each occurrence
    thin: list[Block] = []
    for j, i in enumerate(idx):
        nxt = idx[(j + 1) % len(idx)]
        span = (nxt - i) % n or n
        seg = [word[(i + 1 + t) % n] for t in range(span - 1)]
        thin.append(cls)
        thin.append(_merged_segment(seg))
    gword = tuple(thin)
    initial = Fixed(fixed_kind(False, cls.left == RATIONAL))
    g = make_pattern([initial], right_tail=gword)
    # g2: the first orbital of the tail becomes fixed
    after_first = gword[1]
    initial2 = Fixed(fixed_kind(False, after_first.has_max))
    g2 = make_pattern([initial2], right_tail=gword[2:] + gword[:2])
    return (cls, g2, g)


def _merged_segment(seg: Sequence[Block]) -> Fixed:
    """Merge a run of blocks (fixed regions and dropped orbitals) into the
    single fixed region they become."""
    if all(isinstance(b, Fixed) and b.kind == EMPTY for b in seg):
        return Fixed(EMPTY)
    first, last = seg[0], seg[-1]
    has_min = first.has_min if isinstance(first, Fixed) else False
    has_max = last.has_max if isinstance(last, Fixed) else False
    return Fixed(fixed_kind(has_min, has_max))


# ---------------------------------------------------------------------------
# the `inf` formula at pattern level
# ---------------------------------------------------------------------------

def inf_formula_holds(p: OrbitalPattern) -> bool:
    """Does p admit a restriction y with orbital y1 such that y ≅ y minus y1?

    For ω-tail patterns the thinned tail-shift witness is produced by
    `lemma21_decompose`.  For a pattern with finitely many orbitals the
    answer is False: a restriction y with k ≥ 1 orbitals and y minus one
    orbital are tail-free patterns with k and k − 1 moving blocks, and a
    tail-free pattern is its own canonical form, so they are never
    isomorphic.
    """
    if not has_inf_orbitals(p):
        return False
    _, g2, g = lemma21_decompose(p)
    return pattern_iso(g, g2)


# ---------------------------------------------------------------------------
# exhaustive enumeration (desk-scale verification)
# ---------------------------------------------------------------------------

# every block, built once so that cores and tails share block objects; the
# order of each list is the order of enumeration
_CORE_BLOCKS = [Moving(p, l, r) for p in (1, -1)
                for l in (MINUS_INF, RATIONAL, IRRATIONAL) for r in (RATIONAL, IRRATIONAL, PLUS_INF)]
_CORE_BLOCKS += [Fixed(k) for k in (EMPTY, SINGLETON, NO_MIN_NO_MAX, MIN_ONLY, MAX_ONLY, MIN_AND_MAX)]
_FIRST_BLOCKS = [b for b in _CORE_BLOCKS if _left_edge_ok(b)]
_TAIL_BLOCKS = [b for b in _CORE_BLOCKS if _interior_ok(b)]


def enumerate_cores(max_len: int) -> Iterator[tuple[Block, ...]]:
    """All consistency-valid finite cores (as tail-less patterns) up to
    max_len blocks."""
    def extend(seq: list[Block]):
        if seq and _right_edge_ok(seq[-1]):
            yield tuple(seq)
        if len(seq) == max_len:
            return
        for b in _CORE_BLOCKS if seq else _FIRST_BLOCKS:
            if seq and not _adjacent_ok(seq[-1], b):
                continue
            seq.append(b)
            yield from extend(seq)
            seq.pop()

    yield from extend([])


def enumerate_tail_words(max_len: int) -> Iterator[tuple[Block, ...]]:
    """All consistency-valid tail words up to max_len blocks (cyclic
    adjacency; all-fixed words allowed, they collapse to a plain region)."""
    for n in range(1, max_len + 1):
        for combo in product(_TAIL_BLOCKS, repeat=n):
            if n == 1 and isinstance(combo[0], Fixed):
                yield combo
                continue
            ok = all(_adjacent_ok(a, b) for a, b in zip(combo, combo[1:]))
            if ok and _adjacent_ok(combo[-1], combo[0]):
                yield combo


def enumerate_patterns(core_max: int, tail_max: int) -> Iterator[OrbitalPattern]:
    """Exhaustive valid patterns: every core alone, and every core with each
    valid single- or double-tail attachment, then the tail-only patterns.

    For a nonempty core the valid (left tail, core, right tail) triples are
    a product of the left tails valid against the core alone and the right
    tails valid against it; they are yielded in the order of the triple loop
    over left tail, then right tail.  This is exact because every core from
    `enumerate_cores` is valid on its own, so None is a safe partner on
    either side; every check of `validate_pattern` reads either the left
    tail and the core or the core and the right tail; and
    `_collapse_trivial_tails` rewrites only the core's end block on its own
    side, keeping the has_min/has_max flag that the adjacency check on the
    other side reads.  With an empty core the two tails face each other, so
    the tail-only patterns are filtered pair by pair.

    The partners depend on the core only through its end blocks, so they
    are filtered once per pair (core[0], core[-1]): the blocks between
    were checked when the core was built, a left tail's checks read
    core[0] and a right tail's core[-1], and the edge check on the far
    side reads the far end block, which a collapsed tail rewrites only in
    a one-block core, whose one block is both ends.
    """
    tails = [None] + list(enumerate_tail_words(tail_max))
    partners: dict[tuple[Block, Block], tuple[list, list]] = {}
    for core in enumerate_cores(core_max):
        ends = (core[0], core[-1])
        if ends not in partners:
            partners[ends] = (
                [lt for lt in tails if pattern_is_valid(OrbitalPattern(lt, core, None))],
                [rt for rt in tails if pattern_is_valid(OrbitalPattern(None, core, rt))])
        lefts, rights = partners[ends]
        for lt in lefts:
            for rt in rights:
                yield OrbitalPattern(lt, core, rt)
    # tail-only patterns
    for lt in tails:
        for rt in tails:
            if lt is None and rt is None:
                continue
            p = OrbitalPattern(lt, (), rt)
            if pattern_is_valid(p):
                yield p


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

_KIND_TOK = {MINUS_INF: "-inf", PLUS_INF: "inf", RATIONAL: "rat", IRRATIONAL: "irr"}
_KIND_FROM = {v: k for k, v in _KIND_TOK.items()}
_FIX_TOK = {EMPTY: "empty", SINGLETON: "single", NO_MIN_NO_MAX: "open",
            MIN_ONLY: "min", MAX_ONLY: "max", MIN_AND_MAX: "minmax"}
_FIX_FROM = {v: k for k, v in _FIX_TOK.items()}


def _format_block(b: Block) -> str:
    if isinstance(b, Moving):
        sign = "+" if b.parity > 0 else "-"
        return f"M({sign},{_KIND_TOK[b.left]},{_KIND_TOK[b.right]})"
    return f"F({_FIX_TOK[b.kind]})"


def format_pattern(p: OrbitalPattern) -> str:
    parts = ["pattern"]
    if p.left_tail is not None:
        parts.append("ltail=[" + " ".join(map(_format_block, p.left_tail)) + "]")
    parts.append("core=[" + " ".join(map(_format_block, p.core)) + "]")
    if p.right_tail is not None:
        parts.append("rtail=[" + " ".join(map(_format_block, p.right_tail)) + "]")
    return " ".join(parts)


_BLOCK_RE = re.compile(r"M\(([+-]),([^,)]+),([^,)]+)\)|F\(([a-z_]+)\)")


def _parse_blocks(text: str) -> tuple[Block, ...]:
    out: list[Block] = []
    for tok in text.split():
        m = _BLOCK_RE.fullmatch(tok)
        if not m:
            raise PatternError(f"bad block {tok!r}")
        if m.group(4):
            if m.group(4) not in _FIX_FROM:
                raise PatternError(f"bad fixed kind {m.group(4)!r}")
            out.append(Fixed(_FIX_FROM[m.group(4)]))
        else:
            sign = 1 if m.group(1) == "+" else -1
            try:
                out.append(Moving(sign, _KIND_FROM[m.group(2)], _KIND_FROM[m.group(3)]))
            except KeyError as exc:
                raise PatternError(f"bad boundary kind in {tok!r}") from None
    return tuple(out)


_PAT_RE = re.compile(
    r"^pattern\s+(?:ltail=\[(?P<lt>[^\]]*)\]\s+)?core=\[(?P<core>[^\]]*)\]"
    r"(?:\s+rtail=\[(?P<rt>[^\]]*)\])?\s*$"
)


def parse_pattern(text: str) -> OrbitalPattern:
    m = _PAT_RE.match(text.strip())
    if not m:
        raise PatternError(f"unparseable pattern: {text!r}")
    lt = _parse_blocks(m.group("lt")) if m.group("lt") is not None else None
    rt = _parse_blocks(m.group("rt")) if m.group("rt") is not None else None
    return make_pattern(_parse_blocks(m.group("core")), lt, rt)
