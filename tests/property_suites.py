"""The randomized law suites behind the acceptance gate.

Each suite function draws its own cases from a caller-supplied RNG so the
whole battery is reproducible from one seed.  Sampling frame: word length at
most 12 (at most 40 in the suites that only sign and compare, c and g, whose
route does not build diagrams), and a strand range given by the caller, 2 to
5 strands by default.
"""

import itertools

from braidorder import (
    braid_equal,
    canonical_form,
    compare,
    sign,
    validate,
    word_to_cutseq,
)
from braidorder.cutseq import DOWN, UP, CuttingSequence, _try_rule
from braidorder.order import Ordering, _coordinates
from braidorder.words import is_sigma_consistent
from conftest import (
    STRAND_REGIMES,
    act_letters,
    insert_identity,
    random_word,
    reduce_sequence,
)

SMALL = STRAND_REGIMES[0]


def _is_hole(x):
    return x >= 0 and not x & 1


def _is_crossing(x):
    return x >= 0 and x & 1


def _random_order_reduce(rng, letters):
    """Reduce by firing a uniformly random redex until none is left."""
    letters = list(letters)
    while True:
        redexes = [
            p
            for p in range(len(letters) - 2)
            if _try_rule(letters[p], letters[p + 1], letters[p + 2]) is not None
        ]
        if not redexes:
            return tuple(letters)
        p = rng.choice(redexes)
        letters[p : p + 3] = _try_rule(letters[p], letters[p + 1], letters[p + 2])


def _expand_once(rng, n, letters):
    """Undo one reduction rule at a random admissible spot."""
    letters = list(letters)
    moves = []
    for p, x in enumerate(letters):
        if _is_crossing(x):
            moves.append(("split_gap", p))
        elif x == UP or x == DOWN:
            moves.append(("wrap_arrow", p))
        if p + 1 < len(letters) and _is_hole(x) and _is_hole(letters[p + 1]):
            moves.append(("arrow_between_holes", p))
    kind, p = rng.choice(moves)
    if kind == "split_gap":
        arrow = rng.choice((UP, DOWN))
        letters[p : p + 1] = [letters[p], arrow, letters[p]]
    elif kind == "wrap_arrow":
        g = 2 * rng.randint(0, n) + 1
        letters[p : p + 1] = [letters[p], g, letters[p]]
    else:
        letters.insert(p + 1, rng.choice((UP, DOWN)))
    return letters


def suite_a_reduction_confluence(rng, cases, strands=SMALL):
    """Randomized rule order reaches the same normal form as the library's
    scan, on word images padded with randomly re-expanded rule applications."""
    for _ in range(cases):
        n = rng.randint(*strands)
        image = word_to_cutseq(random_word(rng, n))
        letters = list(image.letters)
        for _ in range(rng.randint(1, 4)):
            letters = _expand_once(rng, n, letters)
        blown = CuttingSequence(n, tuple(letters))
        assert reduce_sequence(blown) == image
        assert _random_order_reduce(rng, letters) == image.letters


def suite_b_relator_invariance(rng, cases, strands=SMALL):
    """The sequence image is a braid invariant, not a word invariant.  The
    padded word also acts letter by letter, unshortened, so the inserted
    chunks reach the generator action itself."""
    for _ in range(cases):
        w = random_word(rng, rng.randint(*strands))
        padded = insert_identity(rng, w)
        image = word_to_cutseq(w)
        assert word_to_cutseq(padded) == image
        assert act_letters(padded) == image


def suite_c_right_invariance(rng, cases, strands=SMALL):
    """Multiplying both sides on the right never changes the comparison."""
    for _ in range(cases):
        n = rng.randint(*strands)
        a, b, c = (random_word(rng, n, max_len=40) for _ in range(3))
        assert compare(a * c, b * c) is compare(a, b)


def suite_d_three_way_agreement(rng, cases, strands=SMALL):
    """Free-group action, order trichotomy, sequence identity and Dynnikov
    coordinate identity all name the same equality relation."""
    for _ in range(cases):
        n = rng.randint(*strands)
        a = random_word(rng, n, max_len=8)
        if rng.random() < 0.5:
            b = insert_identity(rng, a)
        else:
            b = random_word(rng, n, max_len=8)
        by_oracle = braid_equal(a, b)
        by_order = compare(a, b) is Ordering.EQUAL
        by_sequence = word_to_cutseq(a) == word_to_cutseq(b)
        by_coordinates = _coordinates(a) == _coordinates(b)
        assert by_oracle == by_order == by_sequence == by_coordinates


def suite_e_canonical_form(rng, cases, strands=SMALL):
    """The canonical word presents the input braid, spells out the braid's
    sign consistently, and is identical across presentations."""
    for _ in range(cases):
        n = rng.randint(*strands)
        w = random_word(rng, n, max_len=8)
        r = canonical_form(w)
        assert braid_equal(r.word, w)
        assert r.sign == sign(w)
        syntactic = is_sigma_consistent(r.word)
        assert syntactic == r.sign
        assert canonical_form(insert_identity(rng, w)).word == r.word


def suite_f_subword_monotonicity(rng, cases, strands=SMALL):
    """Splicing a positive generator letter into a word gives a larger
    braid; splicing in an inverse letter gives a smaller one."""
    for _ in range(cases):
        n = rng.randint(*strands)
        w = random_word(rng, n)
        i = rng.randint(1, n - 1)
        p = rng.randint(0, len(w.letters))
        up = type(w)(n, w.letters[:p] + (i,) + w.letters[p:])
        down = type(w)(n, w.letters[:p] + (-i,) + w.letters[p:])
        assert compare(up, w) is Ordering.GREATER
        assert compare(down, w) is Ordering.LESS


def suite_g_sign_algebra(rng, cases, strands=SMALL):
    """Inversion flips the sign exactly; positivity survives products."""
    positives = []
    for _ in range(cases):
        n = rng.randint(*strands)
        w = random_word(rng, n, max_len=40)
        s = sign(w)
        t = sign(w.inverse())
        if s.kind == "trivial":
            assert t.kind == "trivial"
        else:
            assert t.kind == ("negative" if s.kind == "positive" else "positive")
            assert t.index == s.index
        if s.kind == "positive":
            positives.append(w)
    for a, b in zip(positives[::2], positives[1::2]):
        if a.n == b.n:
            assert sign(a * b).kind == "positive"


def _arcs_cross(coords, letters):
    upper, lower = [], []
    for p in range(1, len(letters) - 1):
        x = letters[p]
        if not (x == UP or x == DOWN):
            continue
        ends = sorted((coords[p - 1], coords[p + 1]))
        (upper if x == UP else lower).append(ends)
    for side in (upper, lower):
        for (a, b), (c, d) in itertools.combinations(side, 2):
            if a < c < b < d or c < a < d < b:
                return True
    return False


def suite_h_occurrence_order(rng, cases, strands=SMALL, max_assignments=5000):
    """Against brute force: of all ways to stack same-gap crossings, exactly
    one avoids arc intersections, and occurrence_order finds it."""
    from braidorder.geometry import occurrence_order

    accepted = 0
    attempts = 0
    while accepted < cases:
        attempts += 1
        assert attempts < 60 * cases, "sampling frame too tight"
        n = rng.randint(*strands)
        s = word_to_cutseq(random_word(rng, n, min_len=1))
        occs = {}
        for p, x in enumerate(s.letters):
            if _is_crossing(x):
                occs.setdefault(x >> 1, []).append(p)
        if not occs or any(len(v) > 8 for v in occs.values()):
            continue
        total = 1
        for v in occs.values():
            for i in range(2, len(v) + 1):
                total *= i
        if total > max_assignments:
            continue
        assert validate(s).ok
        keys = sorted(occs)
        winners = []
        for ranks in itertools.product(
            *(itertools.permutations(range(len(occs[k]))) for k in keys)
        ):
            coords = {}
            for k, perm in zip(keys, ranks):
                for idx, p in enumerate(occs[k]):
                    coords[p] = (2 * k + 1, perm[idx])
            for p, x in enumerate(s.letters):
                if _is_hole(x):
                    coords[p] = (x, 0)
            if not _arcs_cross(coords, s.letters):
                winners.append(
                    {k: tuple(sorted(occs[k], key=lambda q: coords[q][1])) for k in keys}
                )
        assert len(winners) == 1
        for k in keys:
            assert occurrence_order(s, k) == winners[0][k]
        accepted += 1


ALL_SUITES = (
    suite_a_reduction_confluence,
    suite_b_relator_invariance,
    suite_c_right_invariance,
    suite_d_three_way_agreement,
    suite_e_canonical_form,
    suite_f_subword_monotonicity,
    suite_g_sign_algebra,
    suite_h_occurrence_order,
)
