"""The qwi benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the program is imported from `src/`.
Each workload is a closed loop with one client: one task at a time, in one
single-threaded worker process at a time.  With `--trace 0` the same tasks
are timed in several passes, each in a fresh worker, and a task's time is
its minimum over the passes; the end-to-end metrics follow from those
times.  With `--trace 1` one untraced pass and one traced pass give the
per-layer metrics and the tracing overhead.  Every task's output is
checked.  The last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}; a fuller record goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
RUN_LIMIT_S = 170          # a whole run, all passes, ends within this
WORKLOADS = ("group-calculus", "conjugacy", "wmso", "pattern-census")
# A wrong answer on this sentence is a known defect of `decide` (ROADMAP
# Open item 1).  It counts as a failed task but does not make the run
# incorrect; neither does a missed time limit, which is slowness, not a
# wrong output.
KNOWN_DEFECT = "some finite set has at least 7 elements"

# Per-layer metrics of the traced run: the layer, and the end-to-end metric
# and workload it should move (metrics in parentheses are information).
LAYERS = {
    "plmap.compose": "tasks_per_s (task_ms_p50) on group-calculus",
    "plmap.inverse": "tasks_per_s (task_ms_p50) on group-calculus",
    "plmap.conjugate_by": "tasks_per_s (task_ms_p50) on group-calculus",
    "plmap.signed_support": "tasks_per_s (task_ms_p50) on group-calculus",
    "plmap.eq": "tasks_per_s (task_ms_p50) on group-calculus",
    "predicates.restrict_map": "tasks_per_s (task_ms_p50) on group-calculus",
    "predicates.restr_witness": "tasks_per_s (task_ms_p50) on group-calculus",
    "predicates.disj_sem": "tasks_per_s (task_ms_p50) on group-calculus",
    "generators.gen_plmap_rnd": "setup_s on group-calculus and conjugacy",
    "conjugacy.verify_conjugator": "tasks_per_s (task_ms_p90) on conjugacy",
    "conjugacy.conjugating_witness": "tasks_per_s (task_ms_p90) on conjugacy",
    "patterns.pattern_of": "tasks_per_s (task_ms_p90) on conjugacy",
    "patterns.pattern_iso": "tasks_per_s (task_ms_p90) on conjugacy",
    "interp.pullback_eval": "tasks_per_s (task_ms_p90, failed_frac) on wmso",
    "wmso.decide": "tasks_per_s (task_ms_p90, failed_frac) on wmso",
    "formulas.parse_wmso": "no measurable change (under 0.2% of wmso)",
    "interp.translate": "no measurable change (under 0.2% of wmso)",
    "patterns.enumerate_patterns": "tasks_per_s (task_ms_p99) on pattern-census",
    "patterns.canonical_pattern": "tasks_per_s (task_ms_p99) on pattern-census",
    "patterns.inf_formula_holds": "tasks_per_s (task_ms_p99) on pattern-census",
    "patterns.lemma21_decompose": "tasks_per_s (task_ms_p99) on pattern-census",
    "patterns.classify_cofinal": "tasks_per_s (task_ms_p99) on pattern-census",
}
COUNTS = {   # name: (unit, better)
    "conjugacy.witness_pieces": ("count", "lower"),
    "interp.pullback_eval.over_limit": ("count", "lower"),
    "wmso.decide.over_limit": ("count", "lower"),
    "interp.translate.out_chars": ("chars", "lower"),
    "patterns.enumerate_patterns.yielded": ("count", "higher"),
    "patterns.enumerate_patterns.candidates": ("count", "lower"),
    "patterns.enumerate_patterns.yield_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.layer_share": ("ratio", "higher"),
}


def per_layer_spec() -> list[dict]:
    out = []
    for layer in LAYERS:
        out.append({"name": f"{layer}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{layer}.s", "unit": "s", "better": "lower"})
    out += [{"name": k, "unit": u, "better": b} for k, (u, b) in COUNTS.items()]
    return out


# The gated end-to-end metrics.  The latency percentiles are reported too,
# as information: on a 2-CPU host their run-to-run spread
# (up to a quarter of the median for p50 and a third for p90) is too wide
# to gate on.
END_TO_END = {   # name: (unit, better)
    "setup_s": ("s", "lower"),
    "tasks_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


class BenchError(RuntimeError):
    pass


def spawn(spec: dict, deadline: float) -> dict:
    """Run one pass in a fresh worker and return its report."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another pass")
    spec = dict(spec, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {spec['workload']} pass ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_ms: list[float], q: int):
    """The q-th percentile, or None when fewer than ten samples lie
    beyond it."""
    if len(sorted_ms) < 2:
        return None
    value = statistics.quantiles(sorted_ms, n=100, method="inclusive")[q - 1]
    beyond = sum(1 for x in sorted_ms if x > value)
    return value if beyond >= 10 else None


def merge(reports: list[dict]) -> tuple[dict, list[str]]:
    """Per task: the minimum time over the passes that ran it, and the
    status and verdict of the first pass.  Also the disagreements between
    passes, which would mean the outputs depend on history."""
    tasks: dict[int, list] = {}
    problems = []
    for k, rep in enumerate(reports):
        for i, t, status, verdict in rep["tasks"]:
            if i not in tasks:
                tasks[i] = [t, status, verdict]
                continue
            tasks[i][0] = min(tasks[i][0], t)
            if verdict != tasks[i][2]:
                problems.append(f"task {i}: pass 1 said {tasks[i][2]!r}, "
                                f"pass {k + 1} said {verdict!r}")
        if rep["digest_inputs"] != reports[0]["digest_inputs"]:
            problems.append(f"pass {k + 1} generated other inputs")
    return tasks, problems


def machine() -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    lib = sum(1 for p in sorted((ROOT / "src" / "qwi").rglob("*.py"))
              for line in p.read_text().splitlines() if line.strip())
    return {"lib_lines": lib, "nproc": os.cpu_count(),
            "python": platform.python_version(), "cpu_model": cpu}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS as CLASSES
    passes = 2 if trace else CLASSES[name].passes
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{name}-seed{seed}.jsonl"
    deadline = time.monotonic() + RUN_LIMIT_S
    reports, skip = [], []
    for k in range(passes):
        spec = {"workload": name, "seed": seed, "seconds": seconds,
                "trace": trace and k == 1, "skip": skip, "spot": k == 0,
                "spans": str(spans)}
        rep = spawn(spec, deadline)
        reports.append(rep)
        skip = skip + [i for i, _, status, _ in rep["tasks"] if status == "limit"]

    tasks, problems = merge(reports)
    first = reports[0]
    problems += first["global_failures"]
    failures = first["failures"]
    verdicts = hashlib.sha256("\n".join(
        f"{i} {tasks[i][2]}" for i in sorted(tasks)).encode()).hexdigest()[:16]
    known = {f["task"] for f in failures
             if f["status"] == "limit" or KNOWN_DEFECT in f["reason"]}
    attempted, failed = len(tasks), len(failures)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": passes, "machine": machine(),
        "digest_inputs": first["digest_inputs"], "digest_verdicts": verdicts,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures, "problems": problems,
        "setup_s_per_pass": [r["setup_s"] for r in reports],
        "work_s_per_pass": [sum(t for _, t, _, _ in r["tasks"]) for r in reports],
    }
    record["correct"] = (not problems
                         and all(f["task"] in known for f in failures))
    if not trace:
        ms = sorted(t * 1000 for t, _, _ in tasks.values())
        total = sum(ms) / 1000
        record["metrics"] = {
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "tasks_per_s": attempted / total,
            "peak_rss_mb": min(r["peak_rss_mb"] for r in reports),
        }
        record["info"] = {
            "task_ms_p50": percentile(ms, 50),
            "task_ms_p90": percentile(ms, 90),
            "task_ms_p99": percentile(ms, 99),
            "task_ms_max": ms[-1], "samples": attempted,
            "failed_frac": failed / attempted,
        }
    else:
        untraced, traced = reports
        both = {i for i, *_ in traced["tasks"]}
        base = sum(t for i, t, _, _ in untraced["tasks"] if i in both)
        work = sum(t for _, t, _, _ in traced["tasks"])
        m = {}
        for layer in LAYERS:
            calls, self_s = traced["layers"].get(layer, (0, 0.0))
            m[f"{layer}.calls"] = calls
            m[f"{layer}.s"] = self_s
        counts = traced["counters"]
        census = "patterns.enumerate_patterns"
        yielded = len(traced["tasks"]) if name == "pattern-census" else 0
        candidates = counts.get(f"{census}.candidates", 0)
        m.update({
            "conjugacy.witness_pieces": counts.get("conjugacy.witness_pieces", 0),
            "interp.pullback_eval.over_limit":
                untraced["counters"].get("interp.pullback_eval.over_limit", 0),
            "wmso.decide.over_limit":
                untraced["counters"].get("wmso.decide.over_limit", 0),
            "interp.translate.out_chars": counts.get("interp.translate.out_chars", 0),
            f"{census}.yielded": yielded,
            f"{census}.candidates": candidates,
            f"{census}.yield_ratio": yielded / candidates if candidates else 0.0,
            "trace.overhead_s": work - base,
            "trace.layer_share": traced["layer_self_s"] / base if base else 0.0,
        })
        record["metrics"] = m
        record["info"] = {"spans": str(spans.relative_to(ROOT)),
                          "untraced_work_s": base, "traced_work_s": work,
                          "layer_moves": LAYERS}
    out = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return record


def units(trace: bool) -> dict:
    if trace:
        return {s["name"]: s["unit"] for s in per_layer_spec()}
    return {k: u for k, (u, _) in END_TO_END.items()}


def show(record: dict) -> None:
    name = record["workload"]
    u = units(bool(record["trace"]))
    for metric, value in record["metrics"].items():
        print(f"{name:15} {metric:42} {value!s:>22} {u[metric]}")
    for key, value in record["info"].items():
        if key != "layer_moves":
            print(f"{name:15} {key:42} {value!s:>22} (information)")
    print(f"{name:15} {'digests (inputs, verdicts)':42} "
          f"{record['digest_inputs']} {record['digest_verdicts']}")
    for f in record["failures"][:10]:
        print(f"{name:15} FAILED task {f['task']} ({f['status']}): {f['reason'][:160]}")
    for p in record["problems"][:10]:
        print(f"{name:15} PROBLEM {p[:160]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qwi" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'qwi'}; run from the "
              "root of a qwi checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for r in records:
        show(r)
    metrics = {}
    for r in records:
        u = units(bool(r["trace"]))
        prefix = f"{r['workload']}." if len(records) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u[k]}
                        for k, v in r["metrics"].items()})
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
