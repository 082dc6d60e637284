"""Time ``braidorder.sign`` on seeded random words of growing length.

Prints a Markdown table of median milliseconds per call, one row per strand
count, and the growth exponent fitted to each row (least squares of log time
against log length).  Each word's time is the best of five calls.

    PYTHONPATH=src python3 scripts/sign_scaling.py
"""

import math
import random
import statistics
import time

from braidorder import BraidWord, sign

LENGTHS = (100, 200, 400, 1000)
STRANDS = (3, 6, 10)
WORDS = 30


def median_ms(rng, n, length):
    gens = [k for k in range(1, n)] + [-k for k in range(1, n)]
    times = []
    for _ in range(WORDS):
        w = BraidWord(n, tuple(rng.choice(gens) for _ in range(length)))
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            sign(w)
            best = min(best, time.perf_counter() - t0)
        times.append(best * 1000)
    return statistics.median(times)


def slope(xs, ys):
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.mean(lx), statistics.mean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main():
    rng = random.Random(1)
    print("| n | " + " | ".join(f"length {k}" for k in LENGTHS) + " | exponent |")
    print("|---" * (len(LENGTHS) + 2) + "|")
    for n in STRANDS:
        ms = [median_ms(rng, n, k) for k in LENGTHS]
        cells = " | ".join(f"{m:.2f}" for m in ms)
        print(f"| {n} | {cells} | {slope(LENGTHS, ms):.2f} |")


if __name__ == "__main__":
    main()
