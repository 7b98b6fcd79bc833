"""The summariser of `tools/bench_pairs.py`, loaded by path (tools/ is not a
package)."""

import importlib.util
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
