"""Time ``braidorder.sign`` and ``braidorder.braid_equal`` on seeded random
words of growing length.

Prints two Markdown tables of median milliseconds per call, one row per
strand count, and the growth exponent fitted to each row (least squares of
log time against log length).  The first times ``sign`` on random words.
The second times ``braid_equal`` on equal pairs: a random word of half the
length against that word with trivial chunks (k -k, or a braid relator)
inserted at random spots until it has the full length.  Each word's time is
the best of five calls.

    PYTHONPATH=src python3 scripts/sign_scaling.py
"""

import math
import random
import statistics
import time

from braidorder import BraidWord, braid_equal, sign

LENGTHS = (100, 200, 400, 1000)
STRANDS = (3, 6, 10)
WORDS = 30


def random_letters(rng, n, length):
    gens = [k for k in range(1, n)] + [-k for k in range(1, n)]
    return [rng.choice(gens) for _ in range(length)]


def relator_inserted(rng, n, letters, length):
    """``letters`` with trivial chunks inserted until it has ``length``
    letters (``length`` minus the word's length must be even)."""
    letters = list(letters)
    while len(letters) < length:
        i = rng.randint(1, n - 1)
        if n >= 3 and len(letters) + 6 <= length and rng.random() < 0.5:
            i = min(i, n - 2)
            chunk = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
        else:
            chunk = [i, -i] if rng.random() < 0.5 else [-i, i]
        p = rng.randint(0, len(letters))
        letters[p:p] = chunk
    return letters


def best_ms(call):
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best * 1000


def sign_ms(rng, n, length):
    words = [BraidWord(n, tuple(random_letters(rng, n, length))) for _ in range(WORDS)]
    return statistics.median(best_ms(lambda: sign(w)) for w in words)


def equal_ms(rng, n, length):
    times = []
    for _ in range(WORDS):
        half = random_letters(rng, n, length // 2)
        a = BraidWord(n, tuple(relator_inserted(rng, n, half, length)))
        b = BraidWord(n, tuple(half))
        times.append(best_ms(lambda: braid_equal(a, b)))
    return statistics.median(times)


def slope(xs, ys):
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.mean(lx), statistics.mean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def table(title, rng, measure):
    print(title)
    print()
    print("| n | " + " | ".join(f"length {k}" for k in LENGTHS) + " | exponent |")
    print("|---" * (len(LENGTHS) + 2) + "|")
    for n in STRANDS:
        ms = [measure(rng, n, k) for k in LENGTHS]
        cells = " | ".join(f"{m:.2f}" for m in ms)
        print(f"| {n} | {cells} | {slope(LENGTHS, ms):.2f} |")


def main():
    table("`sign` on random words, ms", random.Random(1), sign_ms)
    print()
    table("`braid_equal` on relator-inserted equal pairs, ms", random.Random(2), equal_ms)


if __name__ == "__main__":
    main()
