"""The trend reader `tools/bench_trend.py`, run as a script."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_trend.py"


def trend(*args) -> list[str]:
    proc = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_one_line_per_record_in_the_repository_root():
    names = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
    assert names
    assert sorted(line.split(" | ")[0] for line in trend()) == names


def test_records_read_in_pr_order_with_missing_fields_as_dashes(tmp_path):
    record = {"lib_lines": {"base": 10, "change": 12}, "workloads": {"wmso": {
        "tasks_per_s": {"verdict": "gain", "change": {"median": 99.6}},
        "counts": {"verdict": {"calls": "fewer", "fraction_new": "same"}}}}}
    (tmp_path / "BENCH_9_seed1.json").write_text(json.dumps(record))
    record["workloads"]["wmso"]["tasks_per_s"]["base"] = {"median": 83, "iqr": 1.245}
    (tmp_path / "BENCH_9.json").write_text(json.dumps(record))
    (tmp_path / "BENCH_10.json").write_text(json.dumps({"workloads": {"wmso": {}}}))
    assert trend(str(tmp_path)) == [
        "BENCH_9.json | lib_lines 10->12 | wmso 100/s ×1.20 base IQR 1.5% gain counts "
        "calls=fewer,fraction_new=same",
        "BENCH_9_seed1.json | lib_lines 10->12 | wmso 100/s - base IQR - gain counts "
        "calls=fewer,fraction_new=same",
        "BENCH_10.json | lib_lines - | wmso - - base IQR - - counts -",
    ]
