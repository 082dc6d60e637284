"""Seeded known-answer corpora for the benchmark workloads.

Every answer is known from how the input was built, never from the library:

* A *core* word p on n strands uses its smallest generator i with one sign
  only, so by the paper's theorem p is i-positive or i-negative.  A trivial
  core is t * t^-1.
* ``scramble`` hides that structure with moves that keep the braid: far
  commutation, the braid relation in both signs, and inserting x * x^-1 for
  short random x.
* A pair is a = scramble(p * b) with b random, so ``compare(a, b)`` is the
  sign of p and ``equal(a, b)`` holds exactly when p is trivial.

The library is called here only through ``Images``: ``sequence_checks``
needs sequences as text, and every random corpus is banded by the size of
its diagrams.  The answers checked still come from the construction (order
of the pair, images always embeddable, hand-made sequences always
rejected).

Run ``python3 bench/corpus.py --workload NAME --seed N`` to print a corpus.
"""

from __future__ import annotations

import argparse
import dataclasses
import random

WORKLOADS = ("random_words", "sequence_checks")


@dataclasses.dataclass(frozen=True)
class Op:
    """One benchmark operation: ``texts`` reach the library as text.

    ``expected`` is a sign ``(kind, index)`` for sign and canonical, an order
    -1/0/1 for compare and compare_sequences, a bool for equal and validate.
    """

    kind: str
    n: int
    texts: tuple[str, ...]
    expected: object


def word_text(letters) -> str:
    return " ".join(str(k) for k in letters)


def inverse(letters) -> list[int]:
    return [-k for k in reversed(letters)]


def random_word(rng: random.Random, n: int, length: int, low: int = 1) -> list[int]:
    """Uniform letters over generators low..n-1, both signs."""
    return [rng.choice((1, -1)) * rng.randint(low, n - 1) for _ in range(length)]


def core_word(rng: random.Random, n: int, length: int) -> tuple[list[int], tuple]:
    """A word whose sign is known by construction, and that sign.

    Either sigma-consistent (smallest generator i with one sign, at least
    once) or trivial as t * t^-1.
    """
    if rng.random() < 0.15:
        t = random_word(rng, n, length // 2)
        return t + inverse(t), ("trivial", None)
    i = rng.randint(1, n - 1) if rng.random() < 0.4 else 1
    s = rng.choice((1, -1))
    letters = [s * i]
    for _ in range(length - 1):
        if i == n - 1 or rng.random() < 0.3:
            letters.append(s * i)
        else:
            letters += random_word(rng, n, 1, low=i + 1)
    rng.shuffle(letters)
    return letters, ("positive" if s > 0 else "negative", i)


def scramble(rng: random.Random, letters, n: int, moves: int, insertions: int) -> list[int]:
    """Rewrite ``letters`` by braid-preserving moves.

    ``moves`` random positions try far commutation or the braid relation;
    ``insertions`` positions get x * x^-1 for random x of length 1 or 2.
    """
    w = list(letters)
    for _ in range(insertions):
        x = random_word(rng, n, rng.randint(1, 2))
        j = rng.randint(0, len(w))
        w[j:j] = x + inverse(x)
    for _ in range(moves):
        if len(w) < 2:
            break
        j = rng.randrange(len(w) - 1)
        a, b = w[j], w[j + 1]
        if abs(abs(a) - abs(b)) >= 2:
            w[j], w[j + 1] = b, a
        elif j + 2 < len(w):
            c = w[j + 2]
            # s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1}, and the same with inverses
            if a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
                w[j : j + 3] = [b, a, b]
    return w


def _sign_to_order(sign: tuple) -> int:
    return {"positive": 1, "negative": -1, "trivial": 0}[sign[0]]


class Images:
    """Reduced sequences of words, computed by the library.  These are the
    only library calls made while building a corpus.  Sizes are counted in
    tokens of the text form, which does not depend on the library's own
    encoding of letters."""

    def __init__(self, words, cutseq):
        self.words = words
        self.cutseq = cutseq

    def text(self, letters, n: int) -> str:
        word = self.words.BraidWord(n, tuple(letters))
        return self.cutseq.format_sequence(self.cutseq.word_to_cutseq(word))

    def size(self, letters, n: int) -> int:
        return len(self.text(letters, n).split())

    def grown(self, rng: random.Random, n: int, low: int, high: int) -> str:
        """The text of the image of a random word grown one letter at a time
        until the image has at least ``low`` letters; retried until it has
        fewer than ``high``."""
        cutseq = self.cutseq
        while True:
            s = cutseq.trivial_sequence(n)
            text = cutseq.format_sequence(s)
            while len(text.split()) < low:
                s = cutseq.apply_generator(s, rng.randint(1, n - 1), rng.choice((1, -1)))
                text = cutseq.format_sequence(s)
            if len(text.split()) < high:
                return text


def banded(draw, images: Images, n: int, band: tuple[int, int]):
    """Call ``draw`` until the word it returns first has an image with
    band[0]..band[1]-1 letters more than the n + 2 of the trivial sequence.

    Diagrams of random words grow exponentially.  Giving each size band a
    fixed share of a corpus makes every seed's corpus cost about the same,
    and the top band's limit keeps one operation from dominating a pass.
    """
    low, high = band
    while True:
        drawn = draw()
        if low <= images.size(drawn[0], n) - (n + 2) < high:
            return drawn


# --- random_words: decisions ---------------------------------------------------


# Letters of the main word's image beyond the trivial sequence, near the
# quartiles of unrestricted draws; the top limit is about their 98th
# percentile.
DECIDE_BANDS = ((0, 20), (20, 40), (40, 80), (80, 290))


def decide_ops(rng: random.Random, images: Images) -> list[Op]:
    """sign (40%), compare (40%) and equal (20%) on random words, n = 3..8.

    The mix of n, kinds and image-size bands is a fixed grid; only the words
    are random.
    """

    def draw_sign(n):
        p, sign = core_word(rng, n, rng.randint(6, 10 + n))
        return scramble(rng, p, n, moves=3 * len(p), insertions=2), sign

    def draw_pair(n):
        p, sign = core_word(rng, n, rng.randint(3, 4 + n // 2))
        b = random_word(rng, n, rng.randint(3, 2 + n))
        return scramble(rng, p + b, n, moves=3 * (len(p) + len(b)), insertions=1), b, sign

    ops = []
    for j in range(600):
        n = 3 + j % 6
        kind = ("sign", "compare", "sign", "compare", "equal")[j // 6 % 5]
        band = DECIDE_BANDS[j // 30 % len(DECIDE_BANDS)]
        if kind == "sign":
            a, sign = banded(lambda: draw_sign(n), images, n, band)
            ops.append(Op("sign", n, (word_text(a),), sign))
            continue
        a, b, sign = banded(lambda: draw_pair(n), images, n, band)
        if kind == "compare":
            ops.append(Op("compare", n, (word_text(a), word_text(b)), _sign_to_order(sign)))
        else:
            ops.append(Op("equal", n, (word_text(a), word_text(b)), sign[0] == "trivial"))
    return ops


# --- random_words: canonical forms ---------------------------------------------


# Image sizes of the input word, as for the decisions.
CANONICAL_BANDS = ((0, 10), (10, 18), (18, 32), (32, 140))


def canonical_ops(rng: random.Random, images: Images) -> list[Op]:
    """canonical_form on scrambled core words, n = 3..8, length about 8..16.

    The expected value is the core's sign: the canonical word must be
    sigma-consistent with that sign and index, and equal the input as a braid.
    """

    def draw(n):
        p, sign = core_word(rng, n, rng.randint(4, 10))
        return scramble(rng, p, n, moves=3 * len(p), insertions=rng.randint(1, 2)), sign

    ops = []
    for j in range(400):
        n = 3 + j % 6
        band = CANONICAL_BANDS[j // 6 % len(CANONICAL_BANDS)]
        a, sign = banded(lambda: draw(n), images, n, band)
        ops.append(Op("canonical", n, (word_text(a),), sign))
    return ops


# --- sequence_checks ------------------------------------------------------------

# Structurally well-formed sequences that validate must reject, with the
# reason for each: no family of disjoint curves realizes them, or they are
# not reduced.
INVALID_SEQUENCES = (
    "_0 ^ _2 _1 ^ _3",  # upper arcs _0.._2 and _1.._3 interleave
    "_0 v _2 _1 v _3",  # the same with lower arcs
    "_0 ^ _3 _2 _1 ^ _4",  # upper arcs _0.._3 and _1.._4 interleave
    "_0 _1 v _3 _2 v _4 _5",  # lower arcs _1.._3 and _2.._4 interleave
    "_0 ^ 0 ^ _1 _2 _3",  # not reduced: ^ 0 ^ collapses
    "_0 ^ 2 v _1 v _3 _2 ^ _4",  # _3 _2 joined directly, yet (2, 3) is crossed
)


# Image sizes of the validate operations, in letters: each band gets an
# equal share, so every corpus has the same spread of sizes.  validate costs
# about the square of the size; one sequence should not dominate a pass.
SEQUENCE_BANDS = ((20, 40), (40, 60), (60, 90), (90, 130), (130, 180), (180, 250), (250, 330), (330, 400))


def sequence_checks(rng: random.Random, images: Images) -> list[Op]:
    """validate and compare_sequences on sequences given as text.
    Images of braids always validate; each pair's order is the core's sign.
    """
    ops = []
    for j in range(240):
        n = 3 + j % 6
        low, high = SEQUENCE_BANDS[j // 6 % len(SEQUENCE_BANDS)]
        ops.append(Op("validate", n, (images.grown(rng, n, low, high),), True))
    for j in range(120):
        n = 3 + j % 6
        p, sign = core_word(rng, n, rng.randint(3, 4 + n // 2))
        b = random_word(rng, n, rng.randint(3, 2 + n))
        a = scramble(rng, p + b, n, moves=3 * (len(p) + len(b)), insertions=1)
        ops.append(Op("compare_sequences", n, (images.text(a, n), images.text(b, n)), _sign_to_order(sign)))
    for text in INVALID_SEQUENCES:
        ops.append(Op("validate", int(text.split()[-1][1:]) - 1, (text,), False))
    return ops


def build(workload: str, seed: int, images: Images) -> list[Op]:
    """The corpus of ``workload`` for ``seed``; same seed, same corpus."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "random_words":
        return decide_ops(rng, images) + canonical_ops(rng, images)
    if workload == "sequence_checks":
        return sequence_checks(rng, images)
    raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    import sys
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from braidorder import cutseq, words

    for op in build(args.workload, args.seed, Images(words, cutseq)):
        print(op.kind, op.n, " | ".join(op.texts), op.expected, sep="\t")


if __name__ == "__main__":
    main()
