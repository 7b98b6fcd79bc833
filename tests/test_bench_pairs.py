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


@pytest.mark.parametrize("base, change, want", [
    (1000, 999, "fewer"),
    (1000, 0, "fewer"),
    (1000, 1000, "same"),
    (0, 0, "same"),
    (1000, 1001, "more"),
    (1000, 1050, "more"),    # exactly the bound
    (1000, 1051, "worse"),
    (0, 1, "worse"),
])
def test_count_verdict_reads_each_exact_count(bench_pairs, base, change, want):
    assert bench_pairs.COUNT_BOUND == 0.05
    assert bench_pairs.count_verdict(base, change) == want


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


def test_calls_count_each_class_of_dataclass_method(bench_pairs):
    """The `__eq__` of two dataclasses share one `pstats` key; each of
    their calls still counts, so the count does not depend on which
    classes a run compares."""
    import cProfile

    from qwi.formulas import EqPt, Less

    a, b = Less("x", "y"), EqPt("x", "y")
    counts = []
    for x, y in ((a, b), (a, a)):
        prof = cProfile.Profile()
        prof.enable()
        x == x
        y == y
        prof.disable()
        counts.append(bench_pairs.calls(prof))
    assert counts[0] == counts[1]


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


def _run(names, **readings):
    """A synthetic `perfbench/run.py` result: every end-to-end metric of
    every workload reads `readings[metric]`."""
    metrics = {}
    for name in names:
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + m: {"value": readings[m]} for m in readings})
    return {"metrics": metrics}


def test_per_pair_gives_each_pair_its_calibration_and_ratios(bench_pairs):
    names = ("wmso", "conjugacy")
    metrics = list(bench_pairs.METRICS)
    base = [_run(names, **{m: 2.0 for m in metrics}) for _ in range(2)]
    change = [_run(names, **{m: 3.0 for m in metrics}),
              _run(names, **{m: 1.0 for m in metrics} | {metrics[0]: 0.0})]
    out = bench_pairs.per_pair({"base": base, "change": change},
                               {"base": [0.08, 0.09], "change": [0.10, 0.11]}, names)
    assert [p["calibration_s"] for p in out] == [{"base": 0.08, "change": 0.10},
                                                 {"base": 0.09, "change": 0.11}]
    assert out[0]["ratio"] == {n: {m: 1.5 for m in metrics} for n in names}
    assert out[1]["ratio"] == {n: {m: 0.5 for m in metrics} | {metrics[0]: 0.0}
                               for n in names}
    # one workload: the metrics carry no prefix; a base reading of 0 has no ratio
    one = ("wmso",)
    out = bench_pairs.per_pair({"base": [_run(one, **{m: 0.0 for m in metrics})],
                                "change": [_run(one, **{m: 1.0 for m in metrics})]},
                               {"base": [0.1], "change": [0.2]}, one)
    assert out == [{"calibration_s": {"base": 0.1, "change": 0.2},
                    "ratio": {"wmso": {m: None for m in metrics}}}]


def test_snapshot_copies_untracked_files_and_leaves_ignored_ones(bench_pairs, tmp_path):
    """The change side runs from a copy of what git tracks or would track,
    so the caches and results a working tree gathers stay behind."""
    import subprocess

    repo, copy = tmp_path / "repo", tmp_path / "copy"
    (repo / "pkg").mkdir(parents=True)
    for name, text in {".gitignore": "results/\n", "pkg/kept.py": "a = 1\n",
                       "pkg/gone.py": "b = 2\n"}.items():
        (repo / name).write_text(text)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run([*git, "init", "-q"], cwd=repo, check=True)
    subprocess.run([*git, "add", "."], cwd=repo, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "files"], cwd=repo, check=True)
    (repo / "pkg" / "gone.py").unlink()
    (repo / "pkg" / "kept.py").write_text("a = 3\n")
    (repo / "pkg" / "new.py").write_text("c = 4\n")
    (repo / "results").mkdir()
    (repo / "results" / "run.json").write_text("{}\n")
    bench_pairs.snapshot(repo, copy)
    assert sorted(str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file()) == [
        ".gitignore", "pkg/kept.py", "pkg/new.py"]
    assert (copy / "pkg" / "kept.py").read_text() == "a = 3\n"
