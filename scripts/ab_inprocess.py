"""Parent/change timing in one process, with the passes interleaved.

    python3 scripts/ab_inprocess.py PARENT CHANGE --workload random_words \
        --seed 8 --passes 14

PARENT and CHANGE are two checkouts of the repository.  ``braidorder`` is
imported from ``src/`` of each under its own package name, so both live in
one process and meet the same state of the machine.  The corpus of
``--workload`` and ``--seed`` is built by this repository's
``bench/corpus.py``, once with each side's library; the two must come out
the same.  Then each round runs one pass of the corpus on each side, the
side that goes first alternating from round to round, with ``gc.collect()``
before every pass.  As in ``bench/run.py``, an operation's time is its best
over its side's passes, and every output is checked by ``bench/run.py``'s
``Checker`` of its side.

Before the timing, both sides take ``canonical_form``, ``word_to_cutseq``
and ``sign`` of the same 3,000 seeded random words (n = 2..9, length
0..16), and ``compare`` and ``braid_equal`` of each word against a seeded
partner: the word with a trivial chunk inserted, or another random word;
``compare_sequences`` takes the two words' sequences, and its answer or
its error (type and message) must be the same.
Both sides also take ``validate`` (verdict and reason) and the
``occurrence_order`` of every interval of each word's sequence and of a
perturbed copy, with one to three arrows flipped or crossing values
changed, so that rejections are exercised too.  Every result must be the
same on both sides.  For each differing sequence it prints what each side
gave: the verdict and reason of ``validate``, or the order or error of the
first interval that differs; then how many differing sequences differ in
each way, so a deliberate difference (an error renamed, say) can be told
from the output alone.  Both sides also take ``leftmost_useful_subword``
(anchor and walk) of every diagram the parent's slide loop reads on those
words, and it prints how many diagrams were alike and on how many two
usable crossing arcs had one walk, so that only the walks on the other
side of their crossings tell them apart.  Last, both sides parse the same
3,000 seeded texts with ``parse_word`` at n = 2..12, a third of them with a
malformed token (a zero, a leading zero, a "+", another script's digit, a
long token, a digit run past 4,300 digits) and some with a letter out of
range: the letters, or the error's type and message, must be the same.  So
must those of ``parse_letters`` on the same texts, the route of the command
line when no strand count is given, and those of ``parse_sequence`` on 3,000
seeded sequence texts: word images on 2..12 strands, and now and then on
63, 64 or 65 around the spelling tables' cap, half of them perturbed as
above, a third with a malformed token put in, a value past n or a final
token that is not a hole.

It prints, for each operation kind, the milliseconds per operation on each
side (the mean of the best times), the change/parent ratio, and the
parent's own split ratio: its best times over the odd rounds (where it goes
first) against those over the even rounds.  A change/parent ratio no
further from 1 than the split ratio is noise.  Then it prints the ops/s of
each side and their ratio.  It exits 1 on a wrong or differing
answer.  Standard library only; ``bench/`` is read, never written.
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib
import importlib.util
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
AGREEMENT_WORDS = 3_000
PARSE_TEXTS = 3_000
FAULTS = ("0", "-0", "01", "+1", "\u0663", "1_0", "--1", "x", "1" * 21, "1" * 4_301)
SEQUENCE_TEXTS = 3_000
SEQUENCE_FAULTS = (
    "_", "_01", "01", "+1", "-1", "1_0", "_\u0662", "\uff11", "x", "1" * 6, "9" * 4_301
)


def load_bench_run():
    """``bench/run.py`` of this repository as a module (it imports
    ``bench/corpus.py`` itself)."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_library(checkout: Path, package: str, module_names) -> dict:
    """The modules ``module_names`` (``braidorder``, ``braidorder.words``,
    ...) of ``checkout``'s ``src/braidorder``, imported as the package
    ``package``, keyed by their usual names as ``bench/run.py`` wants them."""
    source = checkout / "src" / "braidorder"
    spec = importlib.util.spec_from_file_location(
        package, source / "__init__.py", submodule_search_locations=[str(source)]
    )
    root = importlib.util.module_from_spec(spec)
    sys.modules[package] = root  # the package's relative imports resolve through it
    spec.loader.exec_module(root)
    return {
        name: importlib.import_module(package + name[len("braidorder") :])
        for name in module_names
    }


def random_letters(rng: random.Random, n: int) -> tuple[int, ...]:
    """A uniform random word on n strands, of length 0..16."""
    return tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 16)))


def partner(rng: random.Random, n: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    """The same braid with k -k or a braid relator inserted at a random
    spot, or another random word, with equal odds."""
    if rng.random() < 0.5:
        return random_letters(rng, n)
    i = rng.randint(1, n - 1)
    if n >= 3 and rng.random() < 0.5:
        i = min(i, n - 2)
        chunk = (i, i + 1, i, -(i + 1), -i, -(i + 1))
    else:
        chunk = (i, -i) if rng.random() < 0.5 else (-i, i)
    p = rng.randint(0, len(letters))
    return letters[:p] + chunk + letters[p:]


def perturbed(rng: random.Random, n: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    """``letters`` of a sequence with one to three arrows flipped (^ is -1,
    v is -2) or crossing values (odd) changed; still well formed."""
    out = list(letters)
    for _ in range(rng.randint(1, 3)):
        q = rng.randrange(len(out))
        if out[q] < 0:
            out[q] = -3 - out[q]
        elif out[q] & 1:
            out[q] = 2 * rng.randint(0, n) + 1
    return tuple(out)


def geometry_outcome(lib: dict, s) -> tuple:
    """``validate``'s verdict and reason and every interval's
    ``occurrence_order`` (or its error) of the sequence ``s``."""
    geometry = lib["braidorder.geometry"]
    v = geometry.validate(s)
    orders = []
    for k in range(s.n + 1):
        try:
            orders.append(geometry.occurrence_order(s, k))
        except ValueError as e:  # not reduced, or no consistent realization
            orders.append((type(e).__name__, str(e)))
    return v.ok, v.reason, tuple(orders)


def difference(parent: tuple, change: tuple) -> tuple[str, str]:
    """``(kind, detail)`` of two differing :func:`geometry_outcome` results.

    ``detail`` gives each side's ``validate`` verdict and reason when they
    differ, else the order or error of the first interval that differs.
    ``kind`` is "validate", "error type" when every differing interval is
    an error on both sides with the same message (then naming the types),
    or "occurrence_order"."""
    if parent[:2] != change[:2]:
        return "validate", f"validate: parent {parent[:2]}, change {change[:2]}"
    pairs = [(k, a, b) for k, (a, b) in enumerate(zip(parent[2], change[2])) if a != b]
    k, a, b = pairs[0]
    detail = f"interval {k}: parent {a}, change {b}"
    # an error is (type name, message); an order is a tuple of positions
    if all(x and isinstance(x[0], str) and y and isinstance(y[0], str) and x[1] == y[1]
           for _, x, y in pairs):
        return f"error type {a[0]} -> {b[0]}, same message", detail
    return "occurrence_order", detail


def sequence_order(lib: dict, s, t):
    """``compare_sequences(s, t)``'s value, or its error's type and
    message."""
    try:
        return lib["braidorder.order"].compare_sequences(s, t).value
    except Exception as e:  # an error, too, must be the same on both sides
        return type(e).__name__, str(e)


def agreement_words(seed: int, count: int):
    """The agreement's seeded words, each as ``(n, letters, partner)``."""
    rng = random.Random(seed)
    for j in range(count):
        n = 2 + j % 8
        letters = random_letters(rng, n)
        yield n, letters, partner(rng, n, letters)


def agreement(libs: dict[str, dict], seed: int, count: int = AGREEMENT_WORDS):
    """The words on which the sides' ``canonical_form`` (word, sign,
    iterations), ``word_to_cutseq`` or ``sign`` differ, or its ``compare``
    or ``braid_equal`` against its partner, or ``compare_sequences`` of the
    two words' sequences, as text; then the sequences,
    each word's and its perturbed copy, on which :func:`geometry_outcome`
    differs, each as ``(text, kind)`` with the sides' outcomes in the text
    (:func:`difference`); then how many sequences were checked and how many
    ``validate`` rejected."""
    differ, differ_sequences = [], []
    checked = rejected = 0
    for j, (n, letters, other) in enumerate(agreement_words(seed, count)):
        seen = []
        checks = []
        for lib in libs.values():
            make = lib["braidorder.words"].BraidWord
            cutseq = lib["braidorder.cutseq"]
            order = lib["braidorder.order"]
            word, b = make(n, letters), make(n, other)
            r = lib["braidorder.canonical"].canonical_form(word)
            s = cutseq.word_to_cutseq(word)
            t = order.sign(word)
            seen.append(
                (
                    (r.word.letters, r.sign.kind, r.sign.index, r.iterations, s.letters),
                    (t.kind, t.index),
                    order.compare(word, b).value,
                    lib["braidorder"].braid_equal(word, b),
                    sequence_order(lib, s, cutseq.word_to_cutseq(b)),
                )
            )
            # the same perturbation on both sides: its own seeded stream
            copy = cutseq.CuttingSequence(n, perturbed(random.Random(f"{seed}:{j}"), n, s.letters))
            checks.append([(x, geometry_outcome(lib, x)) for x in (s, copy)])
        if seen[0] != seen[1]:
            differ.append(f"n={n}: {' '.join(map(str, letters))} vs {' '.join(map(str, other))}")
        for (s, parent), (_, change) in zip(*checks):
            checked += 1
            rejected += not parent[0]
            if parent != change:
                kind, detail = difference(parent, change)
                differ_sequences.append((f"n={n}: {s}\n    {detail}", kind))
    return differ, differ_sequences, checked, rejected


def slide_agreement(libs: dict[str, dict], seed: int, count: int = AGREEMENT_WORDS):
    """The slide diagrams on which the sides' ``leftmost_useful_subword``
    (anchor and walk) differs, as text with both sides' arcs; how many
    diagrams were checked; and on how many the puncture's arc was not
    usable and two usable crossing arcs had one walk.

    The diagrams are those the parent side's slide loop reads on the words
    of :func:`agreement`: each word's image, then the result of each slide
    along the parent's arc, up to the straight diagram."""
    parent, change = libs["parent"], libs["change"]
    cutseq, canonical = parent["braidorder.cutseq"], parent["braidorder.canonical"]
    differ = []
    slides = tied = 0
    for n, letters, _ in agreement_words(seed, count):
        s = cutseq.word_to_cutseq(parent["braidorder.words"].BraidWord(n, letters))
        while not s.is_trivial():
            arc = canonical.leftmost_useful_subword(s)
            same = change["braidorder.cutseq"].CuttingSequence(n, s.letters)
            other = change["braidorder.canonical"].leftmost_useful_subword(same)
            if arc != other:
                differ.append(f"n={n}: {s}\n    parent {arc}, change {other}")
            walks = [walk for _, walk in canonical.find_useful_subwords(s)]
            tied += walks[0][0] & 1 and len(set(walks)) < len(walks)  # no puncture's arc
            slides += 1
            s = cutseq._act_word(s, canonical._slide_letters(arc[1]))
    return differ, slides, tied


def random_text(rng: random.Random, n: int) -> str:
    """Letters valid on n strands, or a quarter of the time of index up to
    n, one past the largest valid, with a token of ``FAULTS`` inserted a
    third of the time, joined by spaces, NBSPs or \\x1c separators."""
    top = n if rng.random() < 0.25 else n - 1
    tokens = [str(rng.choice((1, -1)) * rng.randint(1, top)) for _ in range(rng.randint(0, 12))]
    if rng.random() < 1 / 3:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(FAULTS))
    return rng.choice((" ", " ", "\xa0", "\x1c")).join(tokens)


def parse_outcome(lib: dict, text: str, n: int):
    """``parse_word(text, n)``'s letters, or its error's type and message."""
    try:
        return lib["braidorder.words"].parse_word(text, n).letters
    except Exception as e:  # an error, too, must be the same on both sides
        return type(e).__name__, str(e)


def letters_outcome(lib: dict, text: str, n: int):
    """``parse_letters(text)``'s letters, or its error's type and message.
    It is the command line's route when no strand count is given, so ``n``,
    the count the text was drawn for, goes unused."""
    try:
        return lib["braidorder.words"].parse_letters(text)
    except Exception as e:  # an error, too, must be the same on both sides
        return type(e).__name__, str(e)


def parse_agreement(
    libs: dict[str, dict], seed: int, count: int = PARSE_TEXTS, outcome=parse_outcome
):
    """The texts, as ``n=..: repr(text)`` with both sides' outcomes, on which
    the sides' ``outcome`` (:func:`parse_outcome` or :func:`letters_outcome`)
    differs, and how many texts the parent side refused."""
    rng = random.Random(f"{seed}:parse")
    differ = []
    refused = 0
    for j in range(count):
        n = 2 + j % 11
        text = random_text(rng, n)
        parent, change = (outcome(lib, text, n) for lib in libs.values())
        refused += bool(parent) and isinstance(parent[0], str)
        if parent != change:
            differ.append(f"n={n}: {text[:60]!r}\n    parent {parent}, change {change}")
    return differ, refused


def random_sequence_text(rng: random.Random, n: int, tokens: list[str]) -> str:
    """The ``tokens`` of a sequence on n strands, a third of the time with
    a token of ``SEQUENCE_FAULTS`` put in, a value past n, or a final token
    that is not a hole, joined by spaces, NBSPs or \\x1c separators."""
    tokens = list(tokens)
    if rng.random() < 1 / 3:
        fault = rng.randrange(3)
        if fault == 0:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(SEQUENCE_FAULTS))
        elif fault == 1:
            tokens[rng.randrange(len(tokens))] = rng.choice((str(n + 1), f"_{n + 2}"))
        else:
            tokens[-1] = rng.choice(("^", "v", str(n)))
    return rng.choice((" ", " ", "\xa0", "\x1c")).join(tokens)


def sequence_outcome(lib: dict, text: str):
    """``parse_sequence(text)``'s letters, or its error's type and message."""
    try:
        return lib["braidorder.cutseq"].parse_sequence(text).letters
    except Exception as e:  # an error, too, must be the same on both sides
        return type(e).__name__, str(e)


def parse_sequence_agreement(libs: dict[str, dict], seed: int, count: int = SEQUENCE_TEXTS):
    """The texts, as ``repr(text)`` with both sides' outcomes, on which the
    sides' :func:`sequence_outcome` differs, and how many texts the parent
    side refused.  The texts are the parent side's word images, half of
    them :func:`perturbed`, as its ``format_sequence`` writes them."""
    rng = random.Random(f"{seed}:parse_sequence")
    words, cutseq = libs["parent"]["braidorder.words"], libs["parent"]["braidorder.cutseq"]
    differ = []
    refused = 0
    for j in range(count):
        n = (63, 64, 65)[j // 50 % 3] if j % 50 == 0 else 2 + j % 11
        letters = cutseq.word_to_cutseq(words.BraidWord(n, random_letters(rng, n))).letters
        if rng.random() < 0.5:
            letters = perturbed(rng, n, letters)
        tokens = cutseq.format_sequence(cutseq.CuttingSequence(n, letters)).split()
        text = random_sequence_text(rng, n, tokens)
        parent, change = (sequence_outcome(lib, text) for lib in libs.values())
        refused += isinstance(parent[0], str)
        if parent != change:
            differ.append(f"{text[:60]!r}\n    parent {parent}, change {change}")
    return differ, refused


def summary(kinds: list[str], best: dict[str, list[float]]) -> tuple[list[tuple], float]:
    """Per-kind rows ``(kind, ops, parent ms/op, change ms/op, change/parent)``
    in the order the kinds first occur, and the ops/s ratio change/parent.

    ``best[side][j]`` is the best time in seconds of operation j, whose kind
    is ``kinds[j]``.  A side's ops/s is the operation count over the sum of
    its best times, as in ``bench/run.py``."""
    rows = []
    for kind in dict.fromkeys(kinds):
        picked = [j for j, k in enumerate(kinds) if k == kind]
        ms = [1000 * sum(best[side][j] for j in picked) / len(picked) for side in SIDES]
        rows.append((kind, len(picked), ms[0], ms[1], ms[1] / ms[0]))
    return rows, sum(best["parent"]) / sum(best["change"])


def split_ratios(kinds: list[str], odd: list[float], even: list[float]) -> dict[str, float]:
    """Per kind, one side's best times over the odd rounds against those
    over the even rounds: the ratio :func:`summary` gives with the two
    halves of one side's passes as its two sides."""
    rows, _ = summary(kinds, {"parent": even, "change": odd})
    return {kind: ratio for kind, _, _, _, ratio in rows}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=14, help="timed passes per side")
    args = parser.parse_args()
    if args.passes < 2:  # the split ratio needs an odd and an even round
        parser.error("--passes must be 2 or more")

    run = load_bench_run()
    libs = {
        side: load_library(getattr(args, side), f"braidorder_{side}", run.MODULES)
        for side in SIDES
    }
    differ, differ_sequences, checked, rejected = agreement(libs, args.seed)
    print(
        f"agreement: {AGREEMENT_WORDS - len(differ)} of {AGREEMENT_WORDS} words alike "
        "(canonical_form, word_to_cutseq, sign, compare, braid_equal, compare_sequences)"
    )
    for text in differ[:10]:
        print(f"  differs: {text}")
    print(
        f"validate and occurrence_order: {checked - len(differ_sequences)} of {checked} "
        f"sequences alike, {rejected} of them rejected"
    )
    for text, _ in differ_sequences[:10]:
        print(f"  differs: {text}")
    for kind, count in collections.Counter(kind for _, kind in differ_sequences).items():
        print(f"  {count} differ by {kind}")

    differ_arcs, slides, tied = slide_agreement(libs, args.seed)
    print(
        f"leftmost_useful_subword: {slides - len(differ_arcs)} of {slides} slide diagrams "
        f"alike, {tied} of them with tied own walks"
    )
    for text in differ_arcs[:10]:
        print(f"  differs: {text}")

    differ_texts, refused = parse_agreement(libs, args.seed)
    print(
        f"parse_word: {PARSE_TEXTS - len(differ_texts)} of {PARSE_TEXTS} texts alike, "
        f"{refused} of them refused"
    )
    for text in differ_texts[:10]:
        print(f"  differs: {text}")
    differ_letters, refused = parse_agreement(libs, args.seed, outcome=letters_outcome)
    print(
        f"parse_letters: {PARSE_TEXTS - len(differ_letters)} of {PARSE_TEXTS} texts alike, "
        f"{refused} of them refused"
    )
    for text in differ_letters[:10]:
        print(f"  differs: {text}")
    differ_sequence_texts, refused = parse_sequence_agreement(libs, args.seed)
    print(
        f"parse_sequence: {SEQUENCE_TEXTS - len(differ_sequence_texts)} of {SEQUENCE_TEXTS} "
        f"texts alike, {refused} refused"
    )
    for text in differ_sequence_texts[:10]:
        print(f"  differs: {text}")

    corpora = {
        side: run.corpus.build(
            args.workload,
            args.seed,
            run.corpus.Images(lib["braidorder.words"], lib["braidorder.cutseq"]),
        )
        for side, lib in libs.items()
    }
    ops = corpora["parent"]
    if corpora["change"] != ops:
        print("the two sides build different corpora")
        return 1
    calls = {side: [run.runner(lib, op) for op in ops] for side, lib in libs.items()}
    checks = {side: run.Checker(lib) for side, lib in libs.items()}
    best = {side: [float("inf")] * len(ops) for side in SIDES}
    parent_split = [[float("inf")] * len(ops) for _ in range(2)]  # even, odd rounds
    wrong = {side: 0 for side in SIDES}
    for r in range(args.passes + 1):  # round 0 is the untimed warm-up
        for side in SIDES if r % 2 else SIDES[::-1]:
            gc.collect()
            outputs = []
            for j, call in enumerate(calls[side]):
                t0 = time.perf_counter()
                out = call()
                dt = time.perf_counter() - t0
                outputs.append(out)
                if r:
                    best[side][j] = min(best[side][j], dt)
                    if side == "parent":
                        parent_split[r % 2][j] = min(parent_split[r % 2][j], dt)
            for j, (op, out) in enumerate(zip(ops, outputs)):
                wrong[side] += not checks[side](j, op, out)

    kinds = [op.kind for op in ops]
    rows, ratio = summary(kinds, best)
    noise = split_ratios(kinds, parent_split[1], parent_split[0])
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, best of {args.passes} passes a side")
    print(
        f"{'kind':<18} {'ops':>5} {'parent ms/op':>13} {'change ms/op':>13} {'ratio':>7}"
        f" {'parent odd/even':>16}"
    )
    for kind, count, parent_ms, change_ms, kind_ratio in rows:
        print(
            f"{kind:<18} {count:>5} {parent_ms:>13.4f} {change_ms:>13.4f} {kind_ratio:>7.3f}"
            f" {noise[kind]:>16.3f}"
        )
    ops_per_s = {side: len(ops) / sum(best[side]) for side in SIDES}
    print(
        f"ops_per_s: parent {ops_per_s['parent']:.1f}, change {ops_per_s['change']:.1f}, "
        f"change/parent {ratio:.3f}"
    )
    for side in SIDES:
        if wrong[side]:
            print(f"WRONG ANSWERS on the {side} side: {wrong[side]}")
    differs = (
        differ or differ_sequences or differ_arcs or differ_texts or differ_letters
        or differ_sequence_texts
    )
    return 1 if differs or any(wrong.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
