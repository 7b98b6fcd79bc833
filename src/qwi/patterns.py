"""Orbitals and orbital patterns: 3-coloured linear orders of moving/fixed
regions, with ω-tails for elements that only exist symbolically.

A pattern is a finite core of blocks plus an optional periodic word repeated
descending toward -∞ (left tail) and/or ascending toward +∞ (right tail).
Boundary kinds record whether a region edge is a rational, an irrational cut,
or an infinity.  The 24 blocks are interned, so they compare by identity, and
each stores its text.  One facing rule, `_adjacent_ok`, says which kinds may
face each other, on either side of a fixed region; the table `_FACING` over
all pairs of blocks is built from it.  `classify_cofinal` and
`lemma21_decompose` are written for the right side and read the left through
`mirror_pattern`, the order-reversal; validation and the canonical form, which
run on every pattern enumerated, state both sides directly.
`canonical_pattern` absorbs the core into the tails, and when a core empties
between two tails it moves the seam where the tails meet to one place.
Lemma 2.1 depends only on one side's canonical tail word, so `_lemma21`
computes it once per (side, word) and keeps at most `_LEMMA21_BOUND` = 1,024;
a test that patches a function under it calls `_lemma21.cache_clear()` first.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator, NamedTuple, Optional, Sequence, Union

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

_KIND_TOK = {MINUS_INF: "-inf", PLUS_INF: "inf", RATIONAL: "rat", IRRATIONAL: "irr"}
_FIX_TOK = {EMPTY: "empty", SINGLETON: "single", NO_MIN_NO_MAX: "open",
            MIN_ONLY: "min", MAX_ONLY: "max", MIN_AND_MAX: "minmax"}


class PatternError(ValueError):
    pass


class _Block:
    """An interned block: the constructor checks its fields and builds the
    one object for them when they are first met, and returns that object
    from then on, so equality and hashing are identity."""

    __slots__ = ("_key", "text")

    @classmethod
    def _intern(cls, key: tuple, **fields) -> _Block:
        b = cls._made[key] = object.__new__(cls)
        for name, value in dict(fields, _key=key).items():
            object.__setattr__(b, name, value)
        return b

    def __setattr__(self, name, value):
        raise AttributeError(f"block {self.text} is immutable")

    def __reduce__(self):
        return type(self), self._key

    def __repr__(self):
        return self.text


class Moving(_Block):
    """An orbital: parity +1 or -1 and the kinds of its two ends."""

    __slots__ = ("parity", "left", "right")
    _made: dict[tuple, Moving] = {}

    def __new__(cls, parity: int, left: str, right: str) -> Moving:
        b = cls._made.get((parity, left, right))
        if b is not None:
            return b
        if parity not in (1, -1):
            raise PatternError(f"moving parity must be ±1, got {parity}")
        if left not in (MINUS_INF, RATIONAL, IRRATIONAL):
            raise PatternError(f"bad left boundary {left}")
        if right not in (PLUS_INF, RATIONAL, IRRATIONAL):
            raise PatternError(f"bad right boundary {right}")
        sign = "+" if parity > 0 else "-"
        return cls._intern((parity, left, right), parity=parity, left=left, right=right,
                           text=f"M({sign},{_KIND_TOK[left]},{_KIND_TOK[right]})")


class Fixed(_Block):
    """A fixed region of one of six order types."""

    __slots__ = ("kind", "has_min", "has_max")
    _made: dict[tuple, Fixed] = {}

    def __new__(cls, kind: str) -> Fixed:
        b = cls._made.get((kind,))
        if b is not None:
            return b
        if kind not in _FIX_TOK:
            raise PatternError(f"bad fixed-region kind {kind}")
        return cls._intern((kind,), kind=kind, has_min=kind in _HAS_MIN,
                           has_max=kind in _HAS_MAX, text=f"F({_FIX_TOK[kind]})")


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
# ---------------------------------------------------------------------------

def _adjacent_ok(a: Block, b: Block) -> bool:
    """The facing rule.  Moving blocks and Fixed regions alternate (two
    orbitals abut across Fixed(EMPTY), and two fixed regions merge).  The
    orbital's boundary that faces the region is rational exactly where the
    region is closed on that side, since it *is* that endpoint; an open side
    meets an irrational cut, and an infinite boundary faces nothing."""
    if isinstance(a, Moving) and isinstance(b, Fixed):
        edge, closed = a.right, b.has_min
    elif isinstance(a, Fixed) and isinstance(b, Moving):
        edge, closed = b.left, a.has_max
    else:
        return False
    return edge == (RATIONAL if closed else IRRATIONAL)


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


# all 24 blocks; the order of each list is the order of enumeration
_CORE_BLOCKS = [Moving(p, l, r) for p in (1, -1)
                for l in (MINUS_INF, RATIONAL, IRRATIONAL) for r in (RATIONAL, IRRATIONAL, PLUS_INF)]
_CORE_BLOCKS += [Fixed(k) for k in (EMPTY, SINGLETON, NO_MIN_NO_MAX, MIN_ONLY, MAX_ONLY, MIN_AND_MAX)]
_FIRST_BLOCKS = [b for b in _CORE_BLOCKS if _left_edge_ok(b)]
_TAIL_BLOCKS = [b for b in _CORE_BLOCKS if _interior_ok(b)]
# _FACING[a] holds each block that may lie just right of a
_FACING = {a: frozenset(b for b in _CORE_BLOCKS if _adjacent_ok(a, b)) for a in _CORE_BLOCKS}


class OrbitalPattern(NamedTuple):
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
        if word[0] not in _FACING[word[-1]]:
            raise PatternError(f"inconsistent tail seam {word[-1]} | {word[0]}")
    # one pass over the blocks as they lie on the line, each tail once
    line = (lt or ()) + core + (rt or ())
    for a, b in zip(line, line[1:]):
        if b not in _FACING[a]:
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
    running to the infinity on that side; fold it, with the core's end
    block when that is a Fixed region too, into one region.  When every
    tail present holds a Moving block there is nothing to fold, and p itself
    is returned."""
    lt, rt = p.left_tail, p.right_tail
    fold_left = lt is not None and Moving not in map(type, lt)
    fold_right = rt is not None and Moving not in map(type, rt)
    if not (fold_left or fold_right):
        return p
    core = list(p.core)
    if fold_right:
        inner = core.pop() if core and isinstance(core[-1], Fixed) else rt[0]
        core.append(Fixed(fixed_kind(inner.has_min, False)))
    if fold_left:
        inner = core.pop(0) if core and isinstance(core[0], Fixed) else lt[-1]
        core.insert(0, Fixed(fixed_kind(False, inner.has_max)))
    return OrbitalPattern(None if fold_left else lt, tuple(core),
                          None if fold_right else rt)


def _primitive(word: tuple[Block, ...]) -> tuple[Block, ...]:
    n = len(word)
    for d in range(1, n // 2 + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def canonical_pattern(p: OrbitalPattern) -> OrbitalPattern:
    """The canonical form of p's order type; p itself when p is already in
    canonical form.  Each tail takes its primitive period and absorbs the
    core blocks that repeat it; two tails left with no core between them
    meet where `_seam` puts them."""
    p = _collapse_trivial_tails(p)
    lt, core, rt = p.left_tail, p.core, p.right_tail
    if rt is not None:
        rt = _primitive(rt)
        while core and core[-1] == rt[-1]:
            core = core[:-1]
            rt = rt[-1:] + rt[:-1]
    if lt is not None:
        lt = _primitive(lt)
        while core and core[0] == lt[0]:
            core = core[1:]
            lt = lt[1:] + lt[:1]
        if not core and rt is not None:
            lt, rt = _seam(lt, rt)
    if lt is p.left_tail and core is p.core and rt is p.right_tail:
        return p
    return OrbitalPattern(lt, core, rt)


def _seam(lt: tuple[Block, ...],
          rt: tuple[Block, ...]) -> tuple[tuple[Block, ...], tuple[Block, ...]]:
    """Place the seam of primitive tails lt and rt that meet with no core
    between them.  It moves left while the blocks either side of it agree;
    the periodic extensions of two distinct primitive words agree on fewer
    than the sum of their lengths (Fine and Wilf), so it stops.  Equal
    words denote one ℤ-indexed periodic order, and both become its rotation
    that prints least."""
    if lt == rt:
        i = min(range(len(lt)), key=lambda i: [b.text for b in lt[i:] + lt[:i]])
        return (lt, rt) if i == 0 else (lt[i:] + lt[:i],) * 2
    while lt[-1] == rt[-1]:
        lt, rt = lt[-1:] + lt[:-1], rt[-1:] + rt[:-1]
    return lt, rt


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
    exactly one side; 8 classes in total.  A bump whose support reaches -∞
    is read through the mirror.
    """
    c = canonical_pattern(p)
    if c.left_tail is not None or c.right_tail is not None or len(c.core) != 2:
        return None
    side = "right"
    if isinstance(c.core[0], Moving):
        c, side = mirror_pattern(c), "left"
    f, m = c.core
    if not (isinstance(f, Fixed) and isinstance(m, Moving)
            and m.right == PLUS_INF and m.left != MINUS_INF):
        return None
    return (m.parity, side, "rational" if m.left == RATIONAL else "irrational")


def has_inf_orbitals(p: OrbitalPattern) -> bool:
    return any(w is not None and Moving in map(type, w) for w in (p.left_tail, p.right_tail))


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

    The restriction keeps the first orbital of each period of a tail word
    and makes the rest of the period fixed (the thinning-out step), so that
    dropping the first orbital g1 shifts the ω-sequence by one period.
    `_lemma21` computes it once per (side, tail word), at most 1,024 kept;
    a test that patches a function under it calls `cache_clear()` first.
    """
    if not has_inf_orbitals(p):
        raise PatternError("pattern has finitely many orbitals")
    return _tail_shift(p)[0]


def _tail_shift(p: OrbitalPattern):
    """The `_lemma21` entry of p's canonical tail word, right side first."""
    c = canonical_pattern(p)
    if c.right_tail is not None:
        return _lemma21("right", c.right_tail)
    return _lemma21("left", c.left_tail)


_LEMMA21_BOUND = 1024  # (1, 4) has 432 distinct (side, word) keys, (5, 3) has 40


@lru_cache(maxsize=_LEMMA21_BOUND)
def _lemma21(side: str, word: tuple[Block, ...]):
    """Lemma 2.1 on the canonical tail word of one side: the decomposition
    (g1, g2, g) and whether g ≅ g2.  A left tail is read through the
    mirror.  Each entry is immutable (interned blocks in tuples), so every
    pattern with that tail shares it."""
    if side == "left":
        word = tuple(map(_mirror_block, reversed(word)))
    i = next(i for i, b in enumerate(word) if isinstance(b, Moving))
    g1 = word[i]
    # thinned period: the kept orbital, then the region the rest becomes
    gword = (g1, _merged_segment(word[i + 1:] + word[:i]))
    initial = Fixed(fixed_kind(False, g1.left == RATIONAL))
    g = make_pattern([initial], right_tail=gword)
    # g2: the first orbital of the tail becomes fixed
    g2 = make_pattern([_merged_segment((initial,) + gword)], right_tail=gword[2:] + gword[:2])
    if side == "left":
        g1, g2, g = _mirror_block(g1), mirror_pattern(g2), mirror_pattern(g)
    return (g1, g2, g), pattern_iso(g, g2)


def _merged_segment(seg: Sequence[Block]) -> Fixed:
    """Merge a run of blocks between two kept orbitals (fixed regions and
    dropped orbitals, a Fixed block at each end) into the single fixed
    region they become."""
    if len(seg) == 1:
        return seg[0]
    return Fixed(fixed_kind(seg[0].has_min, seg[-1].has_max))


# ---------------------------------------------------------------------------
# the `inf` formula at pattern level
# ---------------------------------------------------------------------------

def inf_formula_holds(p: OrbitalPattern) -> bool:
    """Does p admit a restriction y with orbital y1 such that y ≅ y minus y1?

    For ω-tail patterns, g ≅ g2 on `lemma21_decompose`'s witness is read
    from its table (once per (side, tail word), at most 1,024 kept; a test
    that patches a function under it calls `cache_clear()` first).  For a
    pattern with finitely many orbitals the answer is False: a restriction
    y with k ≥ 1 orbitals and y minus one orbital are tail-free patterns
    with k and k − 1 moving blocks, and a tail-free pattern is its own
    canonical form, so they are never isomorphic.
    """
    return has_inf_orbitals(p) and _tail_shift(p)[1]


# ---------------------------------------------------------------------------
# exhaustive enumeration (desk-scale verification)
# ---------------------------------------------------------------------------

def enumerate_cores(max_len: int) -> Iterator[tuple[Block, ...]]:
    """All consistency-valid finite cores (as tail-less patterns) up to
    max_len blocks."""
    def extend(seq: list[Block]):
        if seq and _right_edge_ok(seq[-1]):
            yield tuple(seq)
        if len(seq) == max_len:
            return
        for b in _CORE_BLOCKS if seq else _FIRST_BLOCKS:
            if seq and b not in _FACING[seq[-1]]:
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
            if all(b in _FACING[a] for a, b in zip(combo, combo[1:] + combo[:1])):
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

def format_pattern(p: OrbitalPattern) -> str:
    parts = ["pattern"]
    for name, word in zip(("ltail", "core", "rtail"), p):
        if word is not None:
            parts.append(name + "=[" + " ".join([b.text for b in word]) + "]")
    return " ".join(parts)
