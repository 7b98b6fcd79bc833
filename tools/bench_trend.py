"""The benchmark records read as a series, one line per `BENCH_*.json`.

    python3 tools/bench_trend.py [DIR]

Reads every `BENCH_<n>[suffix].json` that `tools/bench_pairs.py` wrote in
DIR (default: the root of this checkout), in the order of n and then of
the suffix, and prints for each: the library line count of the base and
of the change, and for every workload the change side's median
`tasks_per_s`, the change/base ratio of the two medians, the base side's
interquartile range as a share of its median, the verdict and the verdicts
of the exact counts (`counts.verdict`).  A field that an older record lacks
prints as "-".  A gain smaller than the base side's spread cannot read as
`gain`, so the IQR share shows which workloads can resolve a gain of a
given size.
Wall times are comparable only within one record, so the medians show
the trend of a host as much as of the code; the verdicts and counts do not.
Standard library only.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NAME = re.compile(r"BENCH_(\d+)(.*)\.json")


def order(path: Path) -> tuple:
    """PR order: by the number in the name, then by what follows it."""
    m = _NAME.fullmatch(path.name)
    return (int(m.group(1)), m.group(2)) if m else (float("inf"), path.name)


def line(path: Path) -> str:
    record = json.loads(path.read_text())
    lib = record.get("lib_lines")
    fields = [path.name, f"lib_lines {lib['base']}->{lib['change']}" if lib else "lib_lines -"]
    for name, workload in record.get("workloads", {}).items():
        tps = workload.get("tasks_per_s", {})
        median = tps.get("change", {}).get("median")
        base, iqr = tps.get("base", {}).get("median"), tps.get("base", {}).get("iqr")
        counts = workload.get("counts", {}).get("verdict", {})
        fields.append(" ".join([
            name, "-" if median is None else f"{median:.0f}/s",
            "-" if median is None or not base else f"×{median / base:.2f}",
            "base IQR", "-" if iqr is None or not base else f"{iqr / base:.1%}",
            tps.get("verdict", "-"),
            "counts", ",".join(f"{k}={v}" for k, v in counts.items()) or "-"]))
    return " | ".join(fields)


def main(argv: list[str]) -> int:
    folder = Path(argv[0]) if argv else ROOT
    for path in sorted(folder.glob("BENCH_*.json"), key=order):
        print(line(path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
