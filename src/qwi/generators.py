"""Generators of maps: `gen_plmap_rnd`, from which the seeded suites and
property tests draw, so one seed fixes every case list, and `grid_maps`,
every map whose region ends lie in a finite grid.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from .numbers import NEG_INF, POS_INF, QInterval, Rat, is_finite
from .plmap import PLMap


def gen_plmap_rnd(rnd: random.Random, complexity: int) -> PLMap:
    """A random canonical map with at most `complexity` cuts, drawn from rnd.

    The mixture covers the qualitatively distinct shapes: identity,
    translations, single bumps (bounded, cofinal, coterminal), and generic
    multi-orbital mixed-parity elements.
    """
    roll = rnd.random()
    if roll < 0.05:
        return PLMap.identity()
    if roll < 0.20 or complexity == 0:
        return PLMap.translation(_rat(rnd))
    if roll < 0.40:
        return make_bump(_rand_interval(rnd), up=rnd.random() < 0.5)
    n = rnd.randint(1, max(1, complexity))
    cuts = sorted(rnd.sample([Rat(k, rnd.choice([1, 1, 2, 3])) for k in range(-12, 13)], n))
    while len(set(cuts)) < n:
        cuts = sorted(rnd.sample(range(-3 * complexity - 2, 3 * complexity + 3), n))
        cuts = [Rat(c) for c in cuts]
    slopes = [Rat(rnd.randint(1, 6), rnd.randint(1, 6)) for _ in range(n + 1)]
    anchor = cuts[0] - 1
    value = _rat(rnd)
    return PLMap(anchor, value, cuts, slopes)


def grid_maps(grid: tuple = (0, 1)) -> list[PLMap]:
    """Every map whose region ends lie in the increasing `grid`, each once:
    a subset of the grid cuts the line, and each open piece is fixed, an up
    bump or a down bump.  The grid {0, 1} gives 41 maps and {0, 1, 2} 153."""
    maps = {}
    for r in range(len(grid) + 1):
        for cuts in combinations(map(Rat, grid), r):
            ends = (NEG_INF, *cuts, POS_INF)
            for kinds in product((None, True, False), repeat=r + 1):
                f = PLMap.identity()
                for lo, hi, up in zip(ends, ends[1:], kinds):
                    if up is not None:
                        f = f.compose(make_bump(QInterval(lo, hi), up=up))
                maps[f] = None
    return list(maps)


def _rat(rnd: random.Random) -> Rat:
    return Rat(rnd.randint(-12, 12), rnd.choice([1, 1, 2, 3, 4]))


def _rand_interval(rnd: random.Random) -> QInterval:
    shape = rnd.random()
    a = _rat(rnd)
    if shape < 0.25:
        return QInterval(NEG_INF, POS_INF)
    if shape < 0.5:
        return QInterval(a, POS_INF)
    if shape < 0.75:
        return QInterval(NEG_INF, a)
    b = a + Rat(rnd.randint(1, 8), rnd.choice([1, 2]))
    return QInterval(a, b)


def make_bump(iv: QInterval, up: bool = True) -> PLMap:
    """The canonical bump supported exactly on the open interval `iv`."""
    if iv.is_empty():
        raise ValueError(f"empty interval {iv}")
    lo, hi = iv.lo, iv.hi
    if not is_finite(lo) and not is_finite(hi):
        f = PLMap.translation(1)
    elif not is_finite(lo):
        f = PLMap(hi, hi, (hi,), (Rat(1, 2), Rat(1)))
    elif not is_finite(hi):
        f = PLMap(lo, lo, (lo,), (Rat(1), Rat(2)))
    else:
        mid = lo + (hi - lo) / 3
        f = PLMap(lo, lo, [lo, mid, hi], [Rat(1), Rat(2), Rat(1, 2), Rat(1)])
    return f if up else f.inverse()

