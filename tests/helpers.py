"""What only the tests use: a seeded map generator, the empty assignment
and a deadline."""

import random
import signal
from contextlib import contextmanager

from qwi.generators import gen_plmap_rnd
from qwi.plmap import PLMap
from qwi.wmso import Assignment

EMPTY = Assignment()


def gen_plmap(seed: int, complexity: int) -> PLMap:
    """A random canonical map with at most `complexity` cuts, fixed by the
    seed and the complexity (see `gen_plmap_rnd`)."""
    return gen_plmap_rnd(random.Random(f"plmap:{seed}:{complexity}"), complexity)


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
