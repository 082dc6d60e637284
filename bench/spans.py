"""Per-layer tracing: spans around the library's public functions.

Wrappers replace each function at every ``braidorder`` module attribute that
holds it, so calls between modules (``order.sign`` -> ``cutseq.word_to_cutseq``)
are traced too.  They are installed only for traced passes and removed
afterwards; with tracing off the library runs untouched.
"""

from __future__ import annotations

import collections
import functools
import json
import time

LAYERS = {
    "words": ("parse_word",),
    "cutseq": (
        "word_to_cutseq",
        "apply_generator",
        "is_reduced",
        "sign_of",
        "parse_sequence",
        "format_sequence",
    ),
    "geometry": ("validate", "occurrence_order"),
    "order": ("sign", "compare", "compare_sequences"),
    "canonical": (
        "canonical_form",
        "leftmost_useful_subword",
        "find_useful_subwords",
        "emit_slide_word",
        "complexity",
    ),
    "oracle": ("braid_equal", "artin_action"),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)
# Private helpers whose calls are counted, without a span: the count is the
# work done, whatever the public function's result looks like.
COUNTED = {"geometry._compare_keys": "geometry.key_comparisons"}
# Counts read off results or counted calls, with their units.
# canonical.candidates is the ratio of arcs read (find_useful_subwords
# results) to slides taken.
EXTRA_COUNTS = {
    "cutseq.letters_out": "letters",
    "cutseq.letters_peak": "letters",
    "geometry.crossings_ordered": "count",
    "geometry.key_comparisons": "count",
    "canonical.slides": "count",
    "canonical.candidates": "arcs/slide",
    "oracle.image_letters": "letters",
}


class Tracer:
    """Collects spans, per-function call counts and self times, and counts.

    ``active`` is switched on around each timed operation only, so the
    untimed checks' calls stay out of every count.
    """

    def __init__(self):
        self.active = False
        self.keep_spans = False
        self.op = None
        self.spans: list[tuple] = []
        self.calls: collections.Counter = collections.Counter()
        self.self_ns: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[list] = []
        self._next_id = 0

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.counts.clear()

    def _call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0]  # id, nanoseconds covered by child spans
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.calls[name] += 1
            self.self_ns[name] += duration - frame[1]
            if self.keep_spans:
                self.spans.append(
                    (span_id, name, start, end, parent[0] if parent else None, self.op)
                )

    def note(self, name: str, result) -> None:
        """Extra counts read off a traced function's result."""
        c = self.counts
        if name == "cutseq.apply_generator":
            c["cutseq.letters_out"] += len(result.letters)
            c["cutseq.letters_peak"] = max(c["cutseq.letters_peak"], len(result.letters))
        elif name == "geometry.occurrence_order":
            c["geometry.crossings_ordered"] += len(result)
        elif name == "canonical.canonical_form":
            c["canonical.slides"] += result.iterations
        elif name == "canonical.find_useful_subwords":
            c["canonical.arcs_read"] += len(result)
        elif name == "oracle.artin_action":
            c["oracle.image_letters"] += sum(len(img) for img in result.images)

    def write_spans(self, path) -> None:
        """One JSON array per line: id, name, start_ns, end_ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer._call(name, fn, args, kwargs)
        if tracer.active:
            tracer.note(name, result)
        return result

    return traced


def _counter(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if tracer.active:
            tracer.counts[name] += 1
        return fn(*args, **kwargs)

    return counted


class Installed:
    """Context manager: wrappers in place for the body, originals after."""

    def __init__(self, tracer: Tracer, modules: dict):
        self.tracer = tracer
        self.modules = modules  # every braidorder module, by name
        self.patches: list[tuple] = []

    def __enter__(self):
        for layer, functions in LAYERS.items():
            for fname in functions:
                self._patch(f"{layer}.{fname}", _wrapper, f"{layer}.{fname}")
        for qualified, count in COUNTED.items():
            layer, fname = qualified.split(".")
            # a private helper may be renamed or inlined; its count then reads 0
            if hasattr(self.modules[f"braidorder.{layer}"], fname):
                self._patch(qualified, _counter, count)
        return self

    def _patch(self, qualified: str, make, name: str) -> None:
        """Replace the function ``layer.fname`` wherever a module holds it."""
        layer, fname = qualified.split(".")
        original = getattr(self.modules[f"braidorder.{layer}"], fname)
        wrapped = make(self.tracer, name, original)
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self.patches.append((module, attr, original))

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.patches):
            setattr(module, attr, original)
        self.patches.clear()
        return False
