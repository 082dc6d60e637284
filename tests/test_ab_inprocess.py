"""The summary of ``scripts/ab_inprocess.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_inprocess.py"
spec = importlib.util.spec_from_file_location("ab_inprocess", SCRIPT)
ab_inprocess = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_inprocess)

KINDS = ["sign", "canonical", "sign", "canonical", "equal"]
BEST = {
    "parent": [0.001, 0.004, 0.003, 0.006, 0.002],  # 16 ms in all
    "change": [0.001, 0.002, 0.003, 0.004, 0.002],  # 12 ms in all
}


def test_rows_follow_the_kinds_in_first_seen_order():
    rows, _ = ab_inprocess.summary(KINDS, BEST)
    assert [(kind, ops) for kind, ops, *_ in rows] == [("sign", 2), ("canonical", 2), ("equal", 1)]


def test_milliseconds_per_operation_and_their_ratio():
    rows, _ = ab_inprocess.summary(KINDS, BEST)
    by_kind = {kind: cells for kind, _, *cells in rows}
    assert by_kind["sign"] == pytest.approx([2.0, 2.0, 1.0])
    assert by_kind["canonical"] == pytest.approx([5.0, 3.0, 0.6])
    assert by_kind["equal"] == pytest.approx([2.0, 2.0, 1.0])


def test_ops_per_s_ratio_is_the_inverse_ratio_of_the_time_sums():
    # 5 ops in 16 ms against 5 ops in 12 ms
    _, ratio = ab_inprocess.summary(KINDS, BEST)
    assert ratio == pytest.approx(16 / 12)
