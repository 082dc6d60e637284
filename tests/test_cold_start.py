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


def test_module_lines_list_each_side_then_the_difference():
    added = {"parent": ["copy", "dataclasses", "re"], "change": ["re"]}
    assert cold_start.module_lines(added) == [
        "parent adds 3: copy dataclasses re",
        "change adds 1: re",
        "only parent: copy dataclasses",
        "only change: (none)",
    ]


def test_added_modules_are_those_the_code_imports():
    assert cold_start.added_modules(ROOT / "src", "pass") == []
    added = cold_start.added_modules(ROOT / "src", "import json")
    assert "json" in added and "json.decoder" in added and "braidorder" not in added


def test_code_replaces_the_benchmarks_and_its_output_is_not_shown(capfd):
    code = "from braidorder.cli import main; main(['cutseq', '1 -2'])"
    assert cold_start.main([str(ROOT), str(ROOT), "--runs", "2", "--code", code]) == 0
    out = capfd.readouterr().out
    assert f"2 cold starts per side of {code!r}" in out
    assert "parent adds" in out and " braidorder.cutseq " in out
    assert "_0 ^" not in out  # the command's answer went to the null device


def test_added_modules_skip_what_the_code_prints():
    added = cold_start.added_modules(ROOT / "src", "print('not a module')")
    assert added == []
