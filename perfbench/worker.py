"""One timing pass of one workload, in a fresh process.

    python3 perfbench/worker.py '<spec as JSON>'

The spec names the workload, seed, seconds and trace flag, the task
indices to skip (tasks that missed the time limit in an earlier pass), the
parent's `time.monotonic()` when it started this process, whether to run
the spot checks, and where to write spans.  The pass prints one JSON object
with the set-up time, every task's time, status and verdict, the failures,
the input and verdict digests, the peak RSS and, when traced, per-layer
calls and self times.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


# Address-space limit of a worker whose workload has a time limit: a task
# that allocates past it stops with MemoryError and counts as over the limit.
MEMORY_LIMIT = 1 << 30


class Limit(BaseException):
    """Raised in a task that ran past the workload's time limit.  Not an
    Exception, so no handler in the program can swallow it."""


def _alarm(signum, frame):
    raise Limit


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def run_pass(spec: dict, adapt=None) -> dict:
    """One pass as the spec says.  `adapt(api)`, if given, may replace
    functions of the bound program before the pass (used by the
    self-test)."""
    import qwi
    from layers import Tracer, bind
    from workloads import WORKLOADS, Exhausted, TaskFailed

    if Path(qwi.__file__).resolve().parent != ROOT / "src" / "qwi":
        raise RuntimeError(f"imported qwi from {qwi.__file__}, not from src/")
    tracer = Tracer() if spec["trace"] else None
    api = bind(tracer.wrap if tracer else None)
    if adapt:
        adapt(api)
    if tracer:
        from qwi import patterns
        patterns.pattern_is_valid = tracer.count(
            "patterns.enumerate_patterns.candidates", patterns.pattern_is_valid)
    wl = WORKLOADS[spec["workload"]]()
    inputs = wl.setup(api, spec["seed"], spec["seconds"])
    wl.spot = spec["spot"]
    limit = wl.limit
    if limit:
        signal.signal(signal.SIGALRM, _alarm)
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))
    skip = set(spec["skip"])
    n = len(inputs) if inputs is not None else None
    tasks, failures = [], []
    setup_s = time.monotonic() - spec["spawned"]
    i = 0
    while n is None or i < n:
        if i in skip:
            i += 1
            continue
        if tracer:
            tracer.begin_task(i)
        result = status = None
        t0 = time.perf_counter()
        try:
            try:
                if limit:
                    signal.setitimer(signal.ITIMER_REAL, limit)
                result = wl.task(api, inputs, i)
            finally:
                if limit:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except (Limit, MemoryError) as exc:
            what = "memory" if isinstance(exc, MemoryError) else f"{limit} s"
            status, reason = "limit", f"over the {what} limit in {wl.stage}"
            wl.on_limit()
        except Exhausted:
            break
        except Exception as exc:  # a task that raises is a failed task
            status, reason = "error", f"{type(exc).__name__}: {exc}"
        finally:
            t1 = time.perf_counter()
            if tracer:
                tracer.end_task()
        if status is None:
            try:
                verdict = wl.check(inputs, i, result)
                status = "ok"
            except TaskFailed as exc:
                status, reason = "failed", str(exc)
            except Exception as exc:  # a check that raises fails its task
                status, reason = "error", f"{type(exc).__name__}: {exc}"
        if status != "ok":
            verdict = status
            failures.append({"task": i, "status": status, "reason": reason})
        # a task stopped at the limit is charged the limit: the alarm acts
        # only between bytecodes, so a long call into C overruns it by a
        # varying amount
        tasks.append([i, limit if status == "limit" else t1 - t0, status, verdict])
        i += 1
    out = {
        "setup_s": setup_s,
        "tasks": tasks,
        "failures": failures,
        "global_failures": wl.finish(),
        "digest_inputs": _digest(wl.describe(inputs)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counters": wl.counters(),
    }
    if tracer:
        out["layers"], out["layer_self_s"] = tracer.summary()
        out["counters"].update(tracer.counts)
        tracer.write(spec["spans"])
    return out


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
