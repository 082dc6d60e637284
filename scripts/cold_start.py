"""Interleaved cold starts of two checkouts, timed as ``bench/run.py`` times them.

    python3 scripts/cold_start.py PARENT CHANGE --runs 30
    python3 scripts/cold_start.py PARENT CHANGE --code \
        "from braidorder.cli import main; main(['sign', '1 -2'])"

PARENT and CHANGE are two checkouts of the repository.  Each round starts
one fresh interpreter on the benchmark's ``COLD_START_CODE`` (or on the
code of ``--code``, say a whole command) in each checkout, the side that
goes first alternating from round to round; what the code prints goes to
the null device.  A start is timed by ``cold_start()`` of the checkout's
own ``bench/run.py``, so the environment (the checkout's ``src/`` on
``PYTHONPATH``) and the working directory are the benchmark's; each side
starts once untimed first.  It prints each side's best time (what
``setup_s`` reports) and quartiles, the change/parent ratio of the best
times, the modules the code adds over a bare interpreter on each side (so
a change in the time names its cause), and whether
``PYTHONDONTWRITEBYTECODE`` is set: then no bytecode cache is written, each
start compiles every module of ``src/braidorder`` that it imports, and the
size of that source shows in the time.  Standard library only; ``bench/`` is read, never written.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import os
import statistics
import subprocess
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


def added_modules(src: Path, code: str) -> list[str]:
    """The modules that running ``code`` with ``src`` first on ``PYTHONPATH``
    adds to those of a bare interpreter, sorted.  The bare interpreter's
    site hooks may import packages of their own; only the difference is
    ``code``'s, whatever ``code`` prints before them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))

    def modules(prefix: str) -> set[str]:
        listing = f"{prefix}\nimport sys; print(); print(*sys.modules)"
        done = subprocess.run([sys.executable, "-c", listing], env=env, capture_output=True,
                              text=True)
        if done.returncode:
            raise RuntimeError(done.stderr)
        return set(done.stdout.splitlines()[-1].split())

    return sorted(modules(code) - modules(""))


@contextlib.contextmanager
def quiet_stdout():
    """Point file descriptor 1, which the started interpreters inherit, at
    the null device for the duration."""
    sys.stdout.flush()
    saved = os.dup(1)
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    os.close(null)
    try:
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def module_lines(added: dict[str, list[str]]) -> list[str]:
    """Each side's added modules, then those only one side adds."""
    lines = [f"{side} adds {len(added[side])}: {' '.join(added[side])}" for side in SIDES]
    for side, other in zip(SIDES, SIDES[::-1]):
        only = [name for name in added[side] if name not in added[other]]
        lines.append(f"only {side}: {' '.join(only) or '(none)'}")
    return lines


def summary(times: dict[str, list[float]]) -> tuple[list[tuple], float]:
    """Rows of (side, best, first quartile, median, third quartile) in
    seconds, and the change/parent ratio of the best times."""
    rows = [(side, min(times[side]), *statistics.quantiles(times[side], n=4, method="inclusive"))
            for side in SIDES]
    return rows, min(times["change"]) / min(times["parent"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", type=int, default=30)
    parser.add_argument("--code", help="the code to start (default: the benchmark's "
                                       "COLD_START_CODE of each checkout)")
    args = parser.parse_args(argv)
    benches = {side: load_bench_run(getattr(args, side).resolve(), side) for side in SIDES}
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    with quiet_stdout():
        for bench in benches.values():
            if args.code is not None:
                bench.COLD_START_CODE = args.code  # cold_start() reads it at each call
            bench.cold_start()
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
    print("modules added over a bare interpreter:")
    code = {side: bench.COLD_START_CODE for side, bench in benches.items()}
    added = {side: added_modules(getattr(args, side).resolve() / "src", code[side]) for side in SIDES}
    print(*module_lines(added), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
