"""The summary of ``scripts/cold_start.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("cold_start", ROOT / "scripts" / "cold_start.py")
cold_start = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cold_start)

# quartiles (inclusive method) 0.081, 0.082 and 0.084 s; 0.070, 0.071 and 0.072 s
TIMES = {
    "parent": [0.084, 0.080, 0.082, 0.090, 0.081],
    "change": [0.071, 0.072, 0.069, 0.070, 0.075],
}


def test_rows_carry_best_and_quartiles_per_side_in_order():
    rows, _ = cold_start.summary(TIMES)
    assert [side for side, *_ in rows] == ["parent", "change"]
    assert rows[0][1:] == pytest.approx((0.080, 0.081, 0.082, 0.084))
    assert rows[1][1:] == pytest.approx((0.069, 0.070, 0.071, 0.072))


def test_ratio_is_of_the_best_times():
    _, ratio = cold_start.summary(TIMES)
    assert ratio == pytest.approx(0.069 / 0.080)


def test_the_cold_start_code_is_the_benchmarks():
    bench = cold_start.load_bench_run(ROOT, "test")
    assert "braidorder.cli" in bench.COLD_START_CODE
    assert callable(bench.cold_start)
