"""The benchmark's self-test, run from the repository root.

It pins the interface the benchmark reads: `Conjugator.segments`, the
mutable `windows` list that `OrbitalSeg.apply` reads, and the agreement
between `BENCHMARK.json` and `perfbench/run.py`.  It takes about a second
and writes no files (bytecode caching is switched off for it).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True,
        text=True, timeout=300, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr
    assert "selftest: ok" in done.stdout
