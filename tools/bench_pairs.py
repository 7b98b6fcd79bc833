"""Paired benchmark runs of a base commit against the working tree.

    python3 tools/bench_pairs.py --out BENCH_<n>.json [--base HEAD] [--seed 0]
        [--workload all]

Run from the root of a qwi checkout.  The base commit is exported with
`git archive` into a temporary directory, and the working tree's files
that git tracks or would track are copied into another (see `snapshot`),
so that neither side holds the caches and results that runs leave behind.
`perfbench/run.py` runs alternately in the two, ten pairs at the run length
`run_seconds` of `BENCHMARK.json`, the first side of each pair swapping
from pair to pair, so that a slow drift of the host falls on both sides
alike.  The output holds, per workload and end-to-end metric, the
median and interquartile range of each side, the number of pairs the
change won and a verdict against the metric's bound in `BENCHMARK.json`
(see `verdict`), and each side's input and verdict digests.  Wall times are
comparable only within one file.  The rational construction count
`fraction_new` of each workload's tasks counts the calls of
`Fraction.__new__` and of `qwi.numbers._rat`, the private constructor of
the library's `Rat` (a `Fraction` subclass), by name, so that it compares
a side that builds rationals with `Fraction` and one that builds them
with `Rat`.  It, the Python call count (cProfile, see `calls`), the
library line count and the digests repeat exactly between runs, so each
count gets a verdict of its own, whatever the timings say (see
`count_verdict`).  A
`Fraction` sum of 40,000 terms, timed before and after the pairs and just
before every run, records the speed of the host.  Next to each pair the
output holds the readings taken in it and the change/base ratio of every
end-to-end metric (see `per_pair`); the verdicts read only the runs.
Standard library only.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import pstats
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import zipfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("group-calculus", "conjugacy", "wmso", "pattern-census")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: (m["better"], m["bound"]) for m in SPEC["end_to_end"]}
PAIRS = 10
SECONDS = SPEC["run_seconds"]
# the exact counts of each workload's tasks, and the share of the base's
# count by which one may rise before it reads "worse"
COUNTS = ("calls", "fraction_new")
COUNT_BOUND = 0.05


def summarise(values: list[float]) -> dict:
    """Median and interquartile range (inclusive quartiles) of the runs."""
    values = sorted(values)
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1, "n": len(values)}


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> str:
    """The reading of one metric over paired runs (`base[k]` and
    `change[k]` ran as pair k):

    - "gain": the change won at least nine tenths of the pairs, ties
      counting for neither, and the medians differ in its favour by more
      than the base's interquartile range;
    - "worse": the change's median is worse than the base's by more than
      `bound`, as a fraction of the base's median;
    - "unresolved": either side's interquartile range is wider than `bound`
      times its median, so the runs cannot tell a move that size from
      drift, unless every change run is better than every base run;
    - "no worse" otherwise.
    """
    sign = 1 if better == "higher" else -1
    b, c = summarise(base), summarise(change)
    gap = sign * (c["median"] - b["median"])
    if won_pairs(base, change, better) >= 0.9 * len(base) and gap > b["iqr"]:
        return "gain"
    if -gap > bound * b["median"]:
        return "worse"
    beats_all = min(change) > max(base) if sign > 0 else max(change) < min(base)
    if any(s["iqr"] > bound * s["median"] for s in (b, c)) and not beats_all:
        return "unresolved"
    return "no worse"


def count_verdict(base: int, change: int) -> str:
    """The reading of one exact count: "fewer", "same" or "more", and
    "worse" when the change's count exceeds the base's by more than
    `COUNT_BOUND` of it.  A count repeats exactly, so any move is real."""
    if change > base * (1 + COUNT_BOUND):
        return "worse"
    return "fewer" if change < base else "same" if change == base else "more"


def won_pairs(base: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change read better; a tie counts for neither."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (y - x) > 0 for x, y in zip(base, change))


def value(run: dict, name: str, metric: str, names: tuple[str, ...]) -> float:
    """The reading of `metric` for workload `name` in one run of `names`."""
    prefix = f"{name}." if len(names) > 1 else ""
    return run["metrics"][prefix + metric]["value"]


def per_pair(runs: dict[str, list[dict]], calibration: dict[str, list[float]],
             names: tuple[str, ...]) -> list[dict]:
    """Per pair k: the calibration sum timed just before each side's run,
    and per workload each end-to-end metric's change/base ratio (None when
    the base read 0)."""
    out = []
    for k, (base, change) in enumerate(zip(runs["base"], runs["change"])):
        ratio: dict[str, dict] = {name: {} for name in names}
        for name in names:
            for metric in METRICS:
                b = value(base, name, metric, names)
                ratio[name][metric] = value(change, name, metric, names) / b if b else None
        out.append({"calibration_s": {side: calibration[side][k] for side in runs},
                    "ratio": ratio})
    return out


def calibrate(repeats: int = 5) -> float:
    """Best of `repeats` timings of a 40,000-term `Fraction` sum, in s."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        sum((Fraction(k % 7, 1 + k % 5) for k in range(40_000)), Fraction(0))
        best = min(best, time.perf_counter() - t0)
    return best


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    """The tracked files of `rev`, as `git archive` gives them."""
    data = subprocess.run(["git", "archive", "--format=zip", rev], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        archive.extractall(into)


def snapshot(root: Path, into: Path) -> None:
    """Copy the files of the working tree at `root` that git tracks or
    would track, untracked ones included and ignored ones left out, as
    they are now; a tracked file deleted from the tree is skipped."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=root, check=True,
                           capture_output=True, text=True).stdout.split("\0")
    for name in filter(None, names):
        if (root / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, into / name)


def bench(root: Path, names: tuple[str, ...], seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run in `root`: its last line, parsed, with the
    input and verdict digests of each workload and the machine (with the
    library line count of `root`) from its result records."""
    workload = names[0] if len(names) == 1 else "all"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    results = root / "perfbench" / "results"
    out["digests"] = {}
    for name in names:
        rec = json.loads((results / f"{name}-seed{seed}-trace0.json").read_text())
        out["digests"][name] = f"{rec['digest_inputs']} {rec['digest_verdicts']}"
        out["machine"] = rec["machine"]
    return out


def count_calls(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """Python calls and rational constructions (see `constructions`) made
    by the tasks of one workload in `root`, counted by cProfile in a fresh
    process."""
    proc = subprocess.run(
        [sys.executable, __file__, "--count", str(root), workload, str(seed),
         str(seconds)],
        cwd=root, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": "0"})
    return json.loads(proc.stdout)


def calls(prof: cProfile.Profile) -> int:
    """The Python calls in a profile, summed over the profiler's entries.
    The methods that `dataclasses` writes share one `pstats` key per name,
    such as `<string>:2(__eq__)`, and `pstats` keeps only one of them."""
    return sum(entry.callcount for entry in prof.getstats())


def constructions(stats: dict) -> int:
    """The rationals built in a profile: calls of `Fraction.__new__` and of
    `Rat`'s constructor `_rat` in qwi's `numbers.py`."""
    return sum(v[1] for (path, _, name), v in stats.items()
               if (path.endswith("fractions.py") and name == "__new__")
               or (path.endswith("numbers.py") and name == "_rat"))


def _count(root: str, workload: str, seed: int, seconds: float) -> dict:
    sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "perfbench")]
    from layers import bind
    from workloads import WORKLOADS as CLASSES, Exhausted

    api = bind()
    wl = CLASSES[workload]()
    inputs = wl.setup(api, seed, seconds)
    wl.spot = False
    # as in perfbench/worker.py: every input, or until the workload is
    # exhausted when it has no input list
    n = len(inputs) if inputs is not None else None
    i = 0
    prof = cProfile.Profile()
    prof.enable()
    try:
        while n is None or i < n:
            wl.task(api, inputs, i)
            i += 1
    except Exhausted:
        pass
    prof.disable()
    return {"tasks": i, "calls": calls(prof),
            "fraction_new": constructions(pstats.Stats(prof).stats)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--base", default="HEAD",
                    help="the commit the working tree is compared with")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    calibration = [calibrate()]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        export(args.base, sides["base"])
        snapshot(ROOT, sides["change"])
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        readings: dict[str, list[float]] = {"base": [], "change": []}
        for k in range(PAIRS):
            for side in (("base", "change") if k % 2 == 0 else ("change", "base")):
                readings[side].append(calibrate())
                runs[side].append(bench(sides[side], names, args.seed, SECONDS))
                print(f"pair {k + 1}/{PAIRS} {side} done", file=sys.stderr)
        calibration.append(calibrate())
        counts = {name: {side: count_calls(root, name, args.seed, SECONDS)
                         for side, root in sides.items()} for name in names}
    workloads = {}
    for name in names:
        out = {}
        for metric, (better, bound) in METRICS.items():
            vals = {side: [value(r, name, metric, names) for r in rs]
                    for side, rs in runs.items()}
            out[metric] = {"better": better, "bound": bound,
                           "change_won_pairs": won_pairs(vals["base"], vals["change"],
                                                         better),
                           "verdict": verdict(vals["base"], vals["change"], better,
                                              bound),
                           **{side: {**summarise(v), "runs": v}
                              for side, v in vals.items()}}
            out[metric]["ratio_of_medians"] = (out[metric]["change"]["median"]
                                               / out[metric]["base"]["median"])
        out["counts"] = {**counts[name], "verdict": {
            k: count_verdict(counts[name]["base"][k], counts[name]["change"][k])
            for k in COUNTS}}
        out["digests"] = {side: sorted({r["digests"][name] for r in rs})
                          for side, rs in runs.items()}
        workloads[name] = out
    record = {
        "base": git("rev-parse", args.base),
        "change": git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain")
                                              else ""),
        "machine": {k: v for k, v in runs["change"][0]["machine"].items()
                    if k != "lib_lines"},
        "lib_lines": {side: rs[0]["machine"]["lib_lines"] for side, rs in runs.items()},
        "calibration_fraction_sum_40000_s": {"before": calibration[0],
                                             "after": calibration[1]},
        "command": f"perfbench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {SECONDS:g}",
        "pairs": PAIRS,
        "per_pair": per_pair(runs, readings, names),
        "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
        "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--count"]:
        root, workload, seed, seconds = sys.argv[2:6]
        print(json.dumps(_count(root, workload, int(seed), float(seconds))))
        sys.exit(0)
    sys.exit(main())
