"""Steadiness check: run workloads repeatedly and print each end-to-end
metric's median, quartiles and spread against its bound.

    python3 bench/steady.py --runs 10 [--workload NAME ...] [--first-seed 1]
        [--save bench/out/set-a.json] [--against bench/out/set-a.json]

Run k uses seed first-seed + k.  The spread is (Q3 - Q1) / median over the
runs, with quartiles from ``statistics.quantiles(values, n=4)``.  A spread
within a third of the metric's bound is "ok", one within the bound "WIDE",
and one beyond the bound fails the check.
``--against`` compares medians with an earlier saved set: each may be worse
by at most its bound.  The share of failed operations must match exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, command: list[str]) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """Median, quartiles, and the quartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="steadiness check of the benchmark")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()

    results = {}
    ok = True
    for workload in args.workload or names:
        runs = []
        for k in range(args.runs):
            out = run_once(workload, args.first_seed + k, spec["run_seconds"], spec["command"])
            runs.append(out)
            print(f"{workload} seed {args.first_seed + k}: {json.dumps(out)}", file=sys.stderr)
        results[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1
        print(f"\n{workload}: correct {correct}, failed share {sorted(shares)}")
        if args.against:
            before = json.loads(args.against.read_text())[workload]
            if {r["failed"] / r["attempted"] for r in before} != shares:
                print("  failed share differs from the saved set: FAIL")
                ok = False
        print(f"  {'metric':16s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarize(values)
            verdict = "ok" if spread <= bound / 3 else "WIDE"
            if spread > bound:
                verdict, ok = "FAIL", False
            line = f"  {name:16s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} {bound:6.2f}  {verdict}"
            if args.against:
                old = statistics.median(r["metrics"][name]["value"] for r in before)
                worse = (med - old) / old if metric["better"] == "lower" else (old - med) / old
                line += f"  vs saved {old:.5g}: worse by {worse:+.3f}"
                if worse > bound:
                    line, ok = line + " FAIL", False
            print(line)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
