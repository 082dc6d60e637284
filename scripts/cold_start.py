"""Interleaved cold starts of two checkouts, timed as ``bench/run.py`` times them.

    python3 scripts/cold_start.py PARENT CHANGE --runs 30

PARENT and CHANGE are two checkouts of the repository.  Each round starts
one fresh interpreter on ``COLD_START_CODE`` in each checkout, the side that
goes first alternating from round to round.  A start is timed by
``cold_start()`` of the checkout's own ``bench/run.py``, so the code run,
the environment (the checkout's ``src/`` on ``PYTHONPATH``) and the working
directory are the benchmark's; each side starts once untimed first.  It
prints each side's best time (what ``setup_s`` reports) and quartiles, the
change/parent ratio of the best times, and whether
``PYTHONDONTWRITEBYTECODE`` is set: then no bytecode cache is written, each
start compiles all of ``src/braidorder``, and the size of the source shows
in the time.  Standard library only; ``bench/`` is read, never written.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
from pathlib import Path

SIDES = ("parent", "change")


def load_bench_run(checkout: Path, side: str):
    """``bench/run.py`` of ``checkout`` as a module named after ``side``."""
    path = checkout / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location(f"bench_run_{side}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summary(times: dict[str, list[float]]) -> tuple[list[tuple], float]:
    """Rows of (side, best, first quartile, median, third quartile) in
    seconds, and the change/parent ratio of the best times."""
    rows = [(side, min(times[side]), *statistics.quantiles(times[side], n=4, method="inclusive"))
            for side in SIDES]
    return rows, min(times["change"]) / min(times["parent"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", type=int, default=30)
    args = parser.parse_args()
    benches = {side: load_bench_run(getattr(args, side).resolve(), side) for side in SIDES}
    for bench in benches.values():
        bench.cold_start()

    times: dict[str, list[float]] = {side: [] for side in SIDES}
    for i in range(args.runs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            times[side].append(benches[side].cold_start())

    flag = os.environ.get("PYTHONDONTWRITEBYTECODE")
    print(f"{args.runs} cold starts per side of {benches['change'].COLD_START_CODE!r}; "
          f"PYTHONDONTWRITEBYTECODE {'is set (' + repr(flag) + ')' if flag else 'is not set'}")
    print(f"{'side':<8} {'best ms':>8} {'q1 ms':>8} {'median ms':>10} {'q3 ms':>8}")
    rows, ratio = summary(times)
    for side, *seconds in rows:
        ms = [f"{t * 1e3:>{w}.1f}" for t, w in zip(seconds, (8, 8, 10, 8))]
        print(f"{side:<8}", *ms)
    print(f"change/parent, best times: {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
