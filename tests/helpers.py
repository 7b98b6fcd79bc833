"""What only the tests use: a seeded map generator, a second finite-set
encoder, the decoder of a rational's code, interval membership, the empty
assignment, a deadline and a memory limit."""

import random
import resource
import signal
from contextlib import contextmanager

from qwi.generators import gen_plmap_rnd
from qwi.numbers import QInterval, Rat, is_finite
from qwi.plmap import PLMap
from qwi.predicates import cof_sem
from qwi.wmso import Assignment

EMPTY = Assignment()


def gen_plmap(seed: int, complexity: int) -> PLMap:
    """A random canonical map with at most `complexity` cuts, fixed by the
    seed and the complexity (see `gen_plmap_rnd`)."""
    return gen_plmap_rnd(random.Random(f"plmap:{seed}:{complexity}"), complexity)


def encode_finite_set_alt(S) -> PLMap:
    """A second code of the finite set S, with other germ slopes than
    `interp.encode_finite_set`'s, for representation-independence checks:
    a slope-1/3 ray below, on each gap (a, b) a bump of slope 3 up to
    a + (b − a)/4 and 1/3 after it, and a slope-3 ray above; ∅ ↦ x+2."""
    pts = sorted(set(Rat(a) for a in S))
    if not pts:
        return PLMap.translation(2)
    cuts, slopes = [pts[0]], [Rat(1, 3)]
    for a, b in zip(pts, pts[1:]):
        cuts += [a + (b - a) / 4, b]
        slopes += [Rat(3), Rat(1, 3)]
    slopes.append(Rat(3))
    return PLMap(pts[0], pts[0], cuts, slopes)


def cof_endpoint(f: PLMap) -> Rat:
    """The finite support endpoint of a cofinal element: the rational it
    codes."""
    if not cof_sem(f):
        raise ValueError("not a cofinal element")
    (iv, _), = f.signed_support()
    return iv.lo if is_finite(iv.lo) else iv.hi


def contains(iv: QInterval, q) -> bool:
    """q lies in the open interval iv."""
    return iv.lo < q < iv.hi


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
