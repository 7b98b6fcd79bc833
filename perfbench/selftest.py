"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. A conjugacy pass in which one window of one witness is perturbed: the
   task must be counted as failed, every other task must pass, and the run
   must complete.  The independent spot check alone must also reject the
   perturbed witness.
2. BENCHMARK.json, when present, must list exactly the workloads and
   metrics that run.py reports.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
from layers import bind  # noqa: E402
from workloads import Conjugacy, spot_check  # noqa: E402


def perturb(w) -> bool:
    """Shift the intercept of the first explicit window piece by 1/7."""
    for seg in w.segments:
        if getattr(seg, "windows", None):
            lo, hi, m, c = seg.windows[0]
            seg.windows[0] = (lo, hi, m, c + Fraction(1, 7))
            return True
    return False


def tamper_test() -> list[str]:
    errors = []
    target = {}

    def adapt(api):
        witness = api.conjugacy.conjugating_witness

        def tampered(f, g):
            w = witness(f, g)
            if w is not None and not target and perturb(w):
                target["pair"] = (f, g)
                target["witness"] = w
            return w
        api.conjugacy.conjugating_witness = tampered

    spec = {"workload": "conjugacy", "seed": 0, "seconds": 1.0, "trace": False,
            "skip": [], "spot": True, "spans": None,
            "spawned": time.monotonic()}
    report = worker.run_pass(spec, adapt)
    if not target:
        return ["no witness with an explicit window to perturb"]
    failed = report["failures"]
    if len(failed) != 1 or failed[0]["status"] != "failed":
        errors.append(f"expected exactly one failed task, got {failed}")
    if len(report["tasks"]) != len(Conjugacy().setup(bind(), 0, 1.0)):
        errors.append("the pass did not run every task")
    f, g = target["pair"]
    if spot_check(target["witness"], f, g, random.Random("selftest")) is None:
        errors.append("the spot check did not reject the perturbed witness")
    return errors


def spec_test() -> list[str]:
    path = HERE.parent / "BENCHMARK.json"
    if not path.exists():
        return []
    spec = json.loads(path.read_text())
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        errors.append("workloads differ from run.WORKLOADS")
    want = [{"name": k, "unit": u, "better": b}
            for k, (u, b) in run.END_TO_END.items()]
    got = [{k: m[k] for k in ("name", "unit", "better")} for m in spec["end_to_end"]]
    if got != want:
        errors.append("end_to_end metrics differ from run.END_TO_END")
    if spec["per_layer"] != run.per_layer_spec():
        errors.append("per_layer metrics differ from run.per_layer_spec()")
    return errors


def main() -> int:
    errors = tamper_test() + spec_test()
    for e in errors:
        print(f"selftest: {e}", file=sys.stderr)
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
