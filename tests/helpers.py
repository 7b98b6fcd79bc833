"""What only the tests use: a seeded map generator, the maps of a grid,
the empty assignment, the quantifier depth of a formula and a deadline."""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

from qwi.formulas import _BINARY, QUANTIFIERS, Formula, Not
from qwi.generators import gen_plmap_rnd, make_bump
from qwi.numbers import NEG_INF, POS_INF, QInterval
from qwi.plmap import PLMap
from qwi.wmso import Assignment

EMPTY = Assignment()


def gen_plmap(seed: int, complexity: int) -> PLMap:
    """A random canonical map with at most `complexity` cuts, fixed by the
    seed and the complexity (see `gen_plmap_rnd`)."""
    return gen_plmap_rnd(random.Random(f"plmap:{seed}:{complexity}"), complexity)


def grid_maps(grid=(0, 1)) -> list[PLMap]:
    """Every map whose region ends lie in `grid`, each once: a subset of the
    grid cuts the line, and each open piece is fixed, an up bump or a down
    bump.  The grid {0, 1} gives 41 maps."""
    maps = {}
    for r in range(len(grid) + 1):
        for cuts in combinations(map(Fraction, grid), r):
            ends = (NEG_INF, *cuts, POS_INF)
            for kinds in product((None, True, False), repeat=r + 1):
                f = PLMap.identity()
                for lo, hi, up in zip(ends, ends[1:], kinds):
                    if up is not None:
                        f = f.compose(make_bump(QInterval(lo, hi), up=up))
                maps[f] = None
    return list(maps)


def qdepth(phi: Formula) -> int:
    if type(phi) in QUANTIFIERS:
        return 1 + qdepth(phi.body)
    if isinstance(phi, Not):
        return qdepth(phi.sub)
    if isinstance(phi, _BINARY):
        return max(qdepth(phi.a), qdepth(phi.b))
    return 0


@contextmanager
def deadline(seconds):
    """Fail, by TimeoutError, a block that runs longer than `seconds`."""
    def fire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
