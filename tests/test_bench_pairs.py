"""The summariser of `tools/bench_pairs.py`, loaded by path (tools/ is not a
package)."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("values, median, iqr", [
    ([5.0], 5.0, 0.0),
    ([2.0, 1.0], 1.5, 0.5),
    ([4.0, 1.0, 3.0, 2.0, 5.0], 3.0, 2.0),
    ([10.0, 1.0, 2.0, 3.0], 2.5, 3.0),   # q1 = 1.75, q3 = 4.75
    ([7.0] * 6, 7.0, 0.0),
])
def test_summarise_gives_median_and_inclusive_iqr(bench_pairs, values, median, iqr):
    out = bench_pairs.summarise(values)
    assert out == {"median": median, "iqr": iqr, "n": len(values)}


def test_summarise_leaves_its_input_alone(bench_pairs):
    values = [3.0, 1.0, 2.0]
    bench_pairs.summarise(values)
    assert values == [3.0, 1.0, 2.0]


TIGHT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
WIDE = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]


@pytest.mark.parametrize("base, change, better, want", [
    # ten of ten pairs won, medians 50 apart against a base IQR of 1
    (TIGHT, [x + 50 for x in TIGHT], "higher", "gain"),
    (TIGHT, [x - 50 for x in TIGHT], "lower", "gain"),
    # nine of ten still counts; the lost pair is a tie
    (TIGHT, [x + 50 for x in TIGHT[:9]] + [TIGHT[9]], "higher", "gain"),
    # eight of ten does not, but the medians are inside the bound
    (TIGHT, [x + 5 for x in TIGHT[:8]] + [x - 5 for x in TIGHT[8:]], "higher",
     "no worse"),
    # ten of ten won by less than the base IQR
    ([99.0, 101.0] * 5, [99.5, 101.5] * 5, "higher", "no worse"),
    # past the 0.25 bound, in either direction of better
    (TIGHT, [x * 0.7 for x in TIGHT], "higher", "worse"),
    ([0.122] * 10, [0.153] * 10, "lower", "worse"),
    # a spread wider than the bound on either side cannot tell
    (WIDE, WIDE[::-1], "higher", "unresolved"),
    (TIGHT, WIDE, "lower", "unresolved"),
    # ... unless every change run beats every base run
    ([0.5] * 5 + [1.0] * 5, [1.01] * 10, "higher", "no worse"),
    ([0.5] * 5 + [1.0] * 5, [1.01] * 5 + [0.5] * 5, "higher", "unresolved"),
    # identical runs: every pair a tie
    (TIGHT, TIGHT, "higher", "no worse"),
])
def test_verdict_labels_each_metric(bench_pairs, base, change, better, want):
    assert bench_pairs.verdict(base, change, better, 0.25) == want


def test_won_pairs_counts_ties_for_neither(bench_pairs):
    assert bench_pairs.won_pairs([1.0, 2.0, 3.0], [2.0, 2.0, 1.0], "higher") == 1
    assert bench_pairs.won_pairs([1.0, 2.0, 3.0], [2.0, 2.0, 1.0], "lower") == 1


def test_bounds_come_from_the_benchmark(bench_pairs):
    spec = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
    assert bench_pairs.METRICS == {m["name"]: (m["better"], m["bound"])
                                   for m in spec["end_to_end"]}


def test_counts_cover_every_census_task(bench_pairs):
    """The census has no input list; its counts run it to exhaustion, as
    the benchmark's worker does, not to a fixed number of tasks."""
    from qwi.patterns import enumerate_patterns

    out = bench_pairs.count_calls(TOOL.parent.parent, "pattern-census", 0, 12)
    assert out["tasks"] == sum(1 for _ in enumerate_patterns(5, 3))


def test_constructions_count_fraction_and_rat_alike(bench_pairs):
    """`fraction_new` counts the rationals built through `Fraction.__new__`
    and through `Rat`'s private constructor, so a change of type does not
    read as zero constructions."""
    import cProfile
    import pstats
    from fractions import Fraction

    from qwi.numbers import Rat

    prof = cProfile.Profile()
    prof.enable()
    Fraction(1, 3)
    Fraction(2, 5)
    q = Rat(1, 3)       # through Fraction.__new__
    q + q, q * 2, -q    # three through _rat
    prof.disable()
    assert bench_pairs.constructions(pstats.Stats(prof).stats) == 6
