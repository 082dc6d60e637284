"""Interleaved parent/change runs of ``bench/run.py``, and the gain rule.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload random_words \
        --seeds 11 12 13 14 15 16 17 18 19 20 --seconds 20

PARENT and CHANGE are two checkouts of the repository.  Each seed gives one
pair: ``bench/run.py`` runs once from each checkout, and the side that goes
first alternates from pair to pair, so a slow spell of the machine falls on
both sides alike.  For each end-to-end metric of CHANGE's ``BENCHMARK.json``
it prints each side's median and quartiles, how many pairs the change won,
and whether the gain rule holds (:func:`gain_holds`); with one seed, each
side's value and ``n/a`` (:func:`row`).  The last line is the raw per-run
metrics as JSON.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9  # 9 of 10 pairs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change is strictly better."""
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def gain_holds(parent: list[float], change: list[float], better: str) -> bool:
    """Is the change's gain on one metric told apart from noise?

    ``parent[i]`` and ``change[i]`` are the i-th pair of runs; ``better`` is
    "higher" or "lower".  The change must win at least 9 of 10 pairs (the
    same share of any other count), and its median must beat the parent's
    by more than the distance between the parent's quartiles."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs of runs")
    if wins(parent, change, better) < math.ceil(WIN_SHARE * len(parent)):
        return False
    q1, median, q3 = quartiles(parent)
    gap = statistics.median(change) - median
    return (gap if better == "higher" else -gap) > q3 - q1


def row(name: str, parent: list[float], change: list[float], better: str) -> str:
    """One metric's line of the table: each side's quartiles, the change's
    wins and whether the gain rule holds.  A single pair has no quartiles,
    so each side shows its one value and the gain reads ``n/a``."""
    if len(parent) < 2:
        cells, gain = [f"{side[0]:.4g}" for side in (parent, change)], "n/a"
    else:
        cells = ["/".join(f"{v:.4g}" for v in quartiles(side)) for side in (parent, change)]
        gain = "yes" if gain_holds(parent, change, better) else "no"
    return (f"{name:<16} {cells[0]:>30} {cells[1]:>30}  {wins(parent, change, better):>2}/"
            f"{len(parent):<2} {gain}")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``bench/run.py`` run from ``checkout``."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs[side].append(result)
            print(f"seed {seed} {side}: correct={result['correct']} failed={result['failed']} "
                  f"ops_per_s={result['metrics']['ops_per_s']['value']:.1f}", file=sys.stderr)

    print(f"{args.workload}, {len(args.seeds)} pairs, {args.seconds:g} s per run")
    print(f"{'metric':<16} {'parent q1/median/q3':>30} {'change q1/median/q3':>30}  wins  gain")
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        print(row(name, parent, change, better))
    broken = [side for side, rs in runs.items() for r in rs if not r["correct"] or r["failed"]]
    if broken:
        print(f"WRONG ANSWERS in runs of: {sorted(set(broken))}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "runs": runs}))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
