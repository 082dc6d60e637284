"""Known-answer benchmark of braidorder: one workload per run.

    python3 bench/run.py --workload random_words --seed 1 --seconds 55 --trace 0

Each workload is a fixed corpus built from ``--seed`` (see corpus.py).  A run
makes one untimed warm-up pass, then timed passes over the whole corpus until
``--seconds`` have passed, with ``gc.collect()`` between passes.  An
operation's latency is its best time over the passes; inputs reach the
library as text, and outputs are checked outside the timed region.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` traced and untraced passes alternate and it carries the
per-layer metrics, and the spans of the first traced pass go to
``bench/out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402

# Cold starts spread evenly over the run; setup_s is the best of them, so
# that a slow spell of the machine during some of them does not count.
COLD_STARTS = 30
COLD_START_CODE = "import braidorder, braidorder.cli"


MODULES = tuple(
    f"braidorder{suffix}"
    for suffix in ("", ".words", ".cutseq", ".geometry", ".order", ".canonical", ".oracle", ".cli")
)


def load_library() -> dict:
    """The library's modules by name, imported from ``src/`` of this checkout."""
    if not (SRC / "braidorder" / "__init__.py").is_file():
        sys.exit(f"bench: no library source at {SRC / 'braidorder'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(name) for name in MODULES}


# --- operations and their checks -----------------------------------------------


def runner(lib: dict, op: corpus.Op):
    """A zero-argument callable performing ``op``; attributes are looked up
    at call time, so traced passes go through the wrappers."""
    words = lib["braidorder.words"]
    cutseq = lib["braidorder.cutseq"]
    geometry = lib["braidorder.geometry"]
    order = lib["braidorder.order"]
    canonical = lib["braidorder.canonical"]
    oracle = lib["braidorder.oracle"]
    n, texts = op.n, op.texts
    if op.kind == "sign":
        return lambda: order.sign(words.parse_word(texts[0], n))
    if op.kind == "compare":
        return lambda: order.compare(words.parse_word(texts[0], n), words.parse_word(texts[1], n))
    if op.kind == "equal":
        return lambda: oracle.braid_equal(
            words.parse_word(texts[0], n), words.parse_word(texts[1], n)
        )
    if op.kind == "canonical":
        return lambda: canonical.canonical_form(words.parse_word(texts[0], n))
    if op.kind == "validate":

        def run_validate():
            s = cutseq.parse_sequence(texts[0])
            return s, geometry.validate(s)

        return run_validate
    if op.kind == "compare_sequences":

        def run_compare_sequences():
            s, t = cutseq.parse_sequence(texts[0]), cutseq.parse_sequence(texts[1])
            return s, t, order.compare_sequences(s, t)

        return run_compare_sequences
    raise ValueError(f"unknown operation kind {op.kind!r}")


def sigma_sign(letters) -> tuple:
    """The benchmark's own sigma-consistency test of a word."""
    if not letters:
        return ("trivial", None)
    i = min(abs(k) for k in letters)
    signs = {k > 0 for k in letters if abs(k) == i}
    if len(signs) == 2:
        return ("inconsistent", None)
    return ("positive" if signs.pop() else "negative", i)


class Checker:
    """Checks outputs against the known answers.  The first output of every
    operation gets the full check; later outputs must equal it."""

    def __init__(self, lib: dict):
        self.lib = lib
        self.first: dict[int, object] = {}

    def __call__(self, index: int, op: corpus.Op, out) -> bool:
        key = self._key(op, out)
        if index in self.first:
            return self.first[index] == key
        ok = self._full(op, out)
        self.first[index] = key if ok else None
        return ok

    @staticmethod
    def _key(op, out):
        if op.kind == "sign":
            return (out.kind, out.index)
        if op.kind == "compare":
            return out.value
        if op.kind == "equal":
            return out
        if op.kind == "canonical":
            return (out.word.letters, out.sign.kind, out.sign.index)
        if op.kind == "validate":
            return (out[0].letters, out[1].ok)
        return (out[0].letters, out[1].letters, out[2].value)

    def _full(self, op, out) -> bool:
        lib = self.lib
        fmt = lib["braidorder.cutseq"].format_sequence
        if op.kind == "sign":
            return (out.kind, out.index) == op.expected
        if op.kind == "compare":
            return out.value == op.expected
        if op.kind == "equal":
            return out is op.expected
        if op.kind == "canonical":
            words = lib["braidorder.words"]
            given = words.parse_word(op.texts[0], op.n)
            return (
                sigma_sign(out.word.letters) == op.expected
                and (out.sign.kind, out.sign.index) == op.expected
                and lib["braidorder.oracle"].braid_equal(out.word, given)
            )
        if op.kind == "validate":
            return fmt(out[0]) == op.texts[0] and out[1].ok is op.expected
        return (
            fmt(out[0]) == op.texts[0]
            and fmt(out[1]) == op.texts[1]
            and out[2].value == op.expected
        )


def layer_metrics(per_pass: list, traced: Pass, untraced: Pass) -> dict:
    """Calls and counts of one traced pass (every pass repeats them), self
    times as the median over traced passes, source sizes, tracing overhead."""
    import spans

    calls, _, counts = per_pass[0]
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        self_s = statistics.median(p[1].get(name, 0) for p in per_pass) / 1e9
        metrics[f"{name}.self_s"] = (self_s, "s")
    counts["canonical.candidates"] = counts.get("canonical.arcs_read", 0) / max(
        1, counts.get("canonical.slides", 0)
    )
    for name, unit in spans.EXTRA_COUNTS.items():
        metrics[name] = (counts.get(name, 0), unit)
    total = 0
    for path in sorted((SRC / "braidorder").glob("*.py")):
        lines = sum(1 for line in path.read_text().splitlines() if line.strip())
        metrics[f"src_lines.{path.stem}"] = (lines, "lines")
        total += lines
    metrics["src_lines.total"] = (total, "lines")
    metrics["tracing.ops_per_s_ratio"] = (traced.ops_per_s() / untraced.ops_per_s(), "ratio")
    return metrics


# --- the run ---------------------------------------------------------------------


class Pass:
    """Per-operation best times of one kind of pass (traced or untraced)."""

    def __init__(self, size: int):
        self.best = [float("inf")] * size
        self.passes = 0

    def ops_per_s(self) -> float:
        return len(self.best) / sum(self.best)


def cold_start() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_START_CODE], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description="braidorder known-answer benchmark")
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    lib = load_library()

    images = corpus.Images(lib["braidorder.words"], lib["braidorder.cutseq"])
    ops = corpus.build(args.workload, args.seed, images)
    calls = [runner(lib, op) for op in ops]
    check = Checker(lib)
    attempted = failed = 0
    correct = True

    tracer = installed = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        installed = spans.Installed(tracer, lib)

    def one_pass(record: Pass | None, traced: bool) -> None:
        nonlocal attempted, failed, correct
        gc.collect()
        outputs = []
        with installed if traced else contextlib.nullcontext():
            for index, call in enumerate(calls):
                if tracer is not None:
                    tracer.op = index
                    tracer.active = traced
                t0 = time.perf_counter()
                try:
                    out = call()
                except Exception as exc:  # a failed operation is counted, not fatal
                    out = exc
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
                outputs.append(out)
                if record is not None:
                    record.best[index] = min(record.best[index], dt)
        for index, (op, out) in enumerate(zip(ops, outputs)):
            attempted += 1
            if isinstance(out, Exception):
                # no operation of any corpus raises on working code, so a
                # failure is a wrong answer too, even if it made a pass faster
                failed += 1
                correct = False
            elif not check(index, op, out):
                correct = False
        if record is not None:
            record.passes += 1

    one_pass(None, traced=False)  # warm-up
    untraced = Pass(len(ops))
    traced = Pass(len(ops))
    setups = []
    start = time.perf_counter()
    deadline = start + args.seconds
    if not args.trace:
        cold_start()  # writes bytecode caches; not counted
    per_pass = []  # (calls, self_ns, counts) of every traced pass
    while time.perf_counter() < deadline or untraced.passes < 3 or traced.passes < 3 * args.trace:
        if args.trace:
            # alternate; spans are kept from the first traced pass only
            do_trace = traced.passes <= untraced.passes
            tracer.keep_spans = do_trace and traced.passes == 0
            one_pass(traced if do_trace else untraced, traced=do_trace)
            if do_trace:
                per_pass.append((dict(tracer.calls), dict(tracer.self_ns), dict(tracer.counts)))
                tracer.reset()
        else:
            one_pass(untraced, traced=False)
            elapsed = time.perf_counter() - start
            if len(setups) < COLD_STARTS and elapsed >= len(setups) * args.seconds / COLD_STARTS:
                setups.append(cold_start())

    if args.trace:
        metrics = layer_metrics(per_pass, traced, untraced)
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        best_ms = sorted(t * 1000 for t in untraced.best)
        deciles = statistics.quantiles(best_ms, n=10, method="inclusive")
        metrics = {
            "setup_s": (min(setups), "s"),
            "ops_per_s": (untraced.ops_per_s(), "1/s"),
            "latency_p50_ms": (statistics.median(best_ms), "ms"),
            "latency_p90_ms": (deciles[8], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(
        f"bench: {args.workload} seed {args.seed}: {len(ops)} ops, "
        f"{untraced.passes} untraced + {traced.passes} traced passes",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
