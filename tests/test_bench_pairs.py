"""The gain rule of ``scripts/bench_pairs.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# quartiles 101, 102.5 and 104 (inclusive method): interquartile distance 3
PARENT = [100, 101, 102, 103, 104, 105, 100, 101, 104, 105]


def test_quartiles_of_the_parent():
    assert bench_pairs.quartiles(PARENT) == (101.0, 102.5, 104.0)


def test_gain_holds_with_ten_wins_and_a_wide_median_gap():
    change = [v + 4 for v in PARENT]  # median gap 4 > 3
    assert bench_pairs.wins(PARENT, change, "higher") == 10
    assert bench_pairs.gain_holds(PARENT, change, "higher")
    assert not bench_pairs.gain_holds(PARENT, change, "lower")


def test_gain_fails_on_a_median_gap_equal_to_the_interquartile_distance():
    change = [v + 3 for v in PARENT]  # every pair won, but the gap is not above 3
    assert bench_pairs.wins(PARENT, change, "higher") == 10
    assert not bench_pairs.gain_holds(PARENT, change, "higher")


def test_gain_needs_nine_of_ten_wins():
    nine = [v + 10 for v in PARENT[:9]] + [PARENT[9] - 1]
    assert bench_pairs.gain_holds(PARENT, nine, "higher")
    eight = [v + 10 for v in PARENT[:8]] + [PARENT[8], PARENT[9] - 1]  # a tie is no win
    assert bench_pairs.wins(PARENT, eight, "higher") == 8
    assert not bench_pairs.gain_holds(PARENT, eight, "higher")


def test_gain_for_a_lower_is_better_metric():
    change = [v - 5 for v in PARENT]
    assert bench_pairs.gain_holds(PARENT, change, "lower")
    assert not bench_pairs.gain_holds(PARENT, change, "higher")


def test_gain_needs_paired_runs():
    with pytest.raises(ValueError):
        bench_pairs.gain_holds([1.0], [2.0], "higher")
    with pytest.raises(ValueError):
        bench_pairs.gain_holds([1.0, 2.0], [2.0], "higher")


def test_a_row_of_ten_pairs_shows_quartiles_and_the_gain():
    change = [v + 4 for v in PARENT]
    assert bench_pairs.row("ops_per_s", PARENT, change, "higher") == (
        f"{'ops_per_s':<16} {'101/102.5/104':>30} {'105/106.5/108':>30}  10/10 yes"
    )


def test_a_row_of_one_pair_shows_each_value_and_no_gain():
    # one pair has no quartiles: the row must not raise, so the raw runs
    # printed after the table are not lost
    assert bench_pairs.row("latency_p50_ms", [0.0125], [0.0121], "lower") == (
        f"{'latency_p50_ms':<16} {'0.0125':>30} {'0.0121':>30}   1/1  n/a"
    )
    with pytest.raises(ValueError):
        bench_pairs.gain_holds([0.0125], [0.0121], "lower")
