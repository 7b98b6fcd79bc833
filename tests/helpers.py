"""What only the tests use: a seeded map generator, the empty assignment,
a deadline and a memory limit."""

import random
import resource
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


@contextmanager
def memory_limit(megabytes):
    """Fail, by MemoryError, a block that grows the process's address space
    by more than `megabytes` (Linux: the current size is read from
    /proc/self/statm)."""
    with open("/proc/self/statm") as statm:
        size = int(statm.read().split()[0]) * resource.getpagesize()
    old = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (size + megabytes * 2**20, old[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, old)
