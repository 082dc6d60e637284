"""Tests for the string-reading and occurrence-ordering primitives.

The ground truth for occurrence ordering is an exhaustive oracle: enumerate
every joint assignment of vertical ranks to same-gap crossing points and keep
the ones whose half-plane arcs can be drawn without intersections.  On reduced
sequences exactly one assignment survives, and it must be the one the library
computes.

The second ground truth is a reference copy of the straightforward
algorithm: keys read with ``up_string``/``down_string``/``cyclic_key``
(defined here), sorted with a pairwise comparator, every pair of crossings
and of arcs checked.  The library's one-pass, adjacent-pair and stack-sweep version must
agree with it on orders, verdicts and error types.

The oracle and the reference read letters as ``Hole(k)``/``Gap(k)`` objects
and arrows, converted from the library's ints by :func:`as_objects`.
"""

import ast
import dataclasses
import functools
import itertools
import random

import pytest

from braidorder import (
    AmbiguityError,
    parse_sequence,
    parse_word,
    validate,
    word_to_cutseq,
)
from braidorder import geometry
from braidorder.cutseq import DOWN, UP, CuttingSequence, is_reduced, puncture_walk
from braidorder.geometry import _sort_crossings, occurrence_order
from conftest import random_word

TWO_LETTER_IMAGE = "_0 ^ 1 v _3 v _1 v 3 ^ _2 ^ _4"


@dataclasses.dataclass(frozen=True)
class Hole:
    k: int


@dataclasses.dataclass(frozen=True)
class Gap:
    k: int


def as_objects(letters):
    """Puncture 2k -> Hole(k), crossing 2k+1 -> Gap(k); arrows stay."""
    return [x if x < 0 else (Gap if x & 1 else Hole)(x >> 1) for x in letters]


def as_ints(objects):
    return tuple(x if isinstance(x, int) else 2 * x.k + isinstance(x, Gap) for x in objects)


@dataclasses.dataclass(frozen=True)
class DirectedString:
    """A walk from a crossing letter to the nearest puncture letter.

    ``doubled`` are the visited values on the doubled grid (crossings odd,
    punctures even); ``arrows`` the half-plane excursions between them;
    ``anchor`` the position of the starting letter in the source sequence.
    """

    doubled: tuple[int, ...]
    arrows: tuple[int, ...]
    anchor: int


def _read_string(s, pos, want):
    letters = s.letters
    x = letters[pos]
    if x < 0 or not x & 1:
        raise ValueError(f"position {pos} is not an interval crossing")
    # a crossing in a reduced sequence is flanked by one ^ and one v; read in
    # the direction of the requested one
    if letters[pos + 1] == want:
        step = 1
    elif letters[pos - 1] == want:
        step = -1
    else:
        raise ValueError("crossing not flanked by opposite arrows; sequence not reduced?")
    walk = puncture_walk(letters, pos, step)
    return DirectedString(walk[::2], walk[1::2], pos)


def up_string(s, pos):
    """The walk from the crossing at ``pos`` whose first excursion is upper."""
    return _read_string(s, pos, UP)


def down_string(s, pos):
    """The walk from the crossing at ``pos`` whose first excursion is lower."""
    return _read_string(s, pos, DOWN)


def cyclic_key(d, n):
    """Per-excursion turning amounts of the walk, on the doubled grid.

    For an upper excursion from x to y the entry is y - x modulo n+1, for a
    lower one x - y; representatives are chosen strictly between 0 and n+1,
    i.e. doubled in 1..2n+1.  A zero residue would mean two distinct curve
    points coincide modulo the period, which no embedded diagram produces.
    """
    mod = 2 * (n + 1)
    out = []
    for j, arrow in enumerate(d.arrows):
        diff = d.doubled[j + 1] - d.doubled[j]
        if arrow == DOWN:
            diff = -diff
        rep = diff % mod
        if rep == 0:
            raise AmbiguityError("zero cyclic difference in a comparison walk")
        out.append(rep)
    return tuple(out)


def test_up_and_down_strings_on_worked_example():
    s = parse_sequence(TWO_LETTER_IMAGE)
    # the single crossing of (1, 2) sits at letter position 2
    up = up_string(s, 2)
    assert up == DirectedString(doubled=(3, 0), arrows=(UP,), anchor=2)
    down = down_string(s, 2)
    assert down == DirectedString(doubled=(3, 6), arrows=(DOWN,), anchor=2)


def test_cyclic_keys_on_worked_example():
    s = parse_sequence(TWO_LETTER_IMAGE)
    assert cyclic_key(up_string(s, 2), 3) == (5,)
    assert cyclic_key(down_string(s, 2), 3) == (5,)


def test_single_occurrences_trivially_ordered():
    s = parse_sequence(TWO_LETTER_IMAGE)
    assert occurrence_order(s, 1) == (2,)
    assert occurrence_order(s, 3) == (8,)


def test_occurrence_positions_in_squared_generator():
    s = word_to_cutseq(parse_word("1 1", 3))
    # _0 ^ 2 v _1 _2 ^ 0 v _3 _4: single occurrences of gaps 2 and 0
    assert occurrence_order(s, 2) == (2,)
    assert occurrence_order(s, 0) == (7,)


def _arcs_cross(coords, letters):
    upper, lower = [], []
    for p in range(1, len(letters) - 1):
        x = letters[p]
        if not (x == UP or x == DOWN):
            continue
        a, b = coords[p - 1], coords[p + 1]
        lo, hi = min(a, b), max(a, b)
        (upper if x == UP else lower).append((lo, hi))
    for side in (upper, lower):
        for (a, b), (c, d) in itertools.combinations(side, 2):
            if a < c < b < d or c < a < d < b:
                return True
    return False


def exhaustive_orders(s):
    """All crossing-free joint rank assignments, as {gap: positions bottom-up}.

    Points are placed on the doubled grid: hole k at (2k, 0), the occurrence
    of gap k with rank r at (2k + 1, r).  Arcs join consecutive letters
    through the half plane named by the arrow between them.
    """
    letters = as_objects(s.letters)
    occs = {}
    for p, x in enumerate(letters):
        if isinstance(x, Gap):
            occs.setdefault(x.k, []).append(p)
    keys = sorted(occs)
    good = []
    for ranks in itertools.product(
        *(itertools.permutations(range(len(occs[k]))) for k in keys)
    ):
        coords = {}
        for k, perm in zip(keys, ranks):
            for idx, p in enumerate(occs[k]):
                coords[p] = (2 * k + 1, perm[idx])
        for p, x in enumerate(letters):
            if isinstance(x, Hole):
                coords[p] = (2 * x.k, 0)
        if not _arcs_cross(coords, letters):
            good.append(
                {
                    k: tuple(sorted(occs[k], key=lambda p: coords[p][1]))
                    for k in keys
                }
            )
    return good


def assignment_count(s):
    total = 1
    counts = {}
    for x in as_objects(s.letters):
        if isinstance(x, Gap):
            counts[x.k] = counts.get(x.k, 0) + 1
    for c in counts.values():
        f = 1
        for i in range(2, c + 1):
            f *= i
        total *= f
    return total, max(counts.values(), default=0)


def test_occurrence_order_matches_exhaustive_oracle(rng):
    checked = 0
    while checked < 60:
        n = rng.randint(2, 4)
        s = word_to_cutseq(random_word(rng, n, max_len=8, min_len=1))
        total, biggest = assignment_count(s)
        if biggest == 0 or biggest > 6 or total > 20000:
            continue
        good = exhaustive_orders(s)
        assert len(good) == 1, "reduced sequence should embed uniquely"
        for k, want in good[0].items():
            assert occurrence_order(s, k) == want
        checked += 1


def test_validate_accepts_word_images(rng):
    for _ in range(100):
        s = word_to_cutseq(random_word(rng, rng.randint(2, 5)))
        v = validate(s)
        assert v.ok, v.reason
        assert bool(v)


def test_validate_rejects_unreduced():
    v = validate(parse_sequence("_0 ^ 0 ^ _1 _2 _3 _4"))
    assert not v.ok
    assert "reduc" in v.reason


def test_validate_reports_crossing_arcs():
    # like the one-crossing diagram but with both arcs pushed to the same
    # side, where they must intersect
    v = validate(parse_sequence("_0 ^ _2 _1 ^ _3"))
    assert not v.ok
    assert "upper arcs cross" in v.reason
    v = validate(parse_sequence("_0 v _2 _1 v _3"))
    assert not v.ok
    assert "lower arcs cross" in v.reason


def test_validate_reports_crossed_interval():
    # punctures 0 and 1 visited consecutively, yet the curve also crosses
    # the interval between them
    v = validate(parse_sequence("_0 _1 v 2 ^ 0 v _2 ^ 0 v 1 ^ _3"))
    assert not v.ok
    assert "interval (0, 1) is crossed" in v.reason


def test_validation_is_falsy_with_reason():
    v = validate(parse_sequence("_0 ^ 0 ^ _1 _2 _3 _4"))
    assert not v
    assert isinstance(v.reason, str) and v.reason


def test_ambiguity_error_is_value_error():
    assert issubclass(AmbiguityError, ValueError)


# --- reference: every pair compared ------------------------------------------


def _reference_compare(u, v):
    for a, b in zip(u, v):
        if a != b:
            return -1 if a < b else 1
    if len(u) != len(v):
        raise AmbiguityError("one comparison key is a proper prefix of the other")
    return 0


def reference_sort(ups, downs, k):
    """Order the crossings keyed by ``ups``/``downs`` (position -> key) with
    the pairwise rule, then check every pair of the result."""

    def before(p, q):
        cu = _reference_compare(ups[p], ups[q])
        if cu != 0:
            return cu > 0
        cd = _reference_compare(downs[p], downs[q])
        if cd != 0:
            return cd < 0
        raise AmbiguityError(f"crossings of ({k}, {k + 1}) at {p} and {q} have identical walks")

    order = sorted(ups, key=functools.cmp_to_key(lambda p, q: -1 if before(p, q) else 1))
    for a, b in itertools.combinations(order, 2):
        if not before(a, b):
            raise AmbiguityError("pairwise order is inconsistent")
    return tuple(order)


def reference_occurrence_order(s, k):
    if not is_reduced(s):
        raise ValueError("input sequence must be reduced")
    letters = as_objects(s.letters)
    positions = [p for p, x in enumerate(letters) if isinstance(x, Gap) and x.k == k]
    if len(positions) < 2:
        return tuple(positions)
    ups = {p: cyclic_key(up_string(s, p), s.n) for p in positions}
    downs = {p: cyclic_key(down_string(s, p), s.n) for p in positions}
    return reference_sort(ups, downs, k)


def reference_arcs(s):
    """Arcs per side as sorted pairs of (doubled value, rank) coordinates."""
    letters = as_objects(s.letters)
    coord = {}
    for p, x in enumerate(letters):
        if isinstance(x, Hole):
            coord[p] = (2 * x.k, 0)
    for k in {x.k for x in letters if isinstance(x, Gap)}:
        for rank, p in enumerate(reference_occurrence_order(s, k)):
            coord[p] = (2 * k + 1, rank)
    arcs = {UP: [], DOWN: []}
    for p, x in enumerate(letters):
        if x == UP or x == DOWN:
            arcs[x].append(tuple(sorted((coord[p - 1], coord[p + 1]))))
    return arcs


def reference_validate(s):
    """(ok, reason) of the straightforward validation."""
    if not is_reduced(s):
        return False, "sequence is not reduced"
    letters = as_objects(s.letters)
    crossed = {x.k for x in letters if isinstance(x, Gap)}
    for a, b in zip(letters, letters[1:]):
        if isinstance(a, Hole) and isinstance(b, Hole) and min(a.k, b.k) in crossed:
            i = min(a.k, b.k)
            return False, (
                f"punctures {a.k} and {b.k} are joined directly "
                f"but the interval ({i}, {i + 1}) is crossed"
            )
    try:
        arcs = reference_arcs(s)
    except AmbiguityError as e:
        return False, f"no consistent realization: {e}"
    for side, side_arcs in arcs.items():
        for (a, b), (c, d) in itertools.combinations(sorted(side_arcs), 2):
            if a < c < b < d:
                name = "upper" if side == UP else "lower"
                return False, f"two {name} arcs cross: ({a}, {b}) and ({c}, {d})"
    return True, None


def perturbed(rng, s):
    """``s`` with one to three arrows flipped or crossing values changed."""
    letters = as_objects(s.letters)
    for _ in range(rng.randint(1, 3)):
        q = rng.randrange(len(letters))
        x = letters[q]
        if x == UP or x == DOWN:
            letters[q] = DOWN if x == UP else UP
        elif isinstance(x, Gap):
            letters[q] = Gap(rng.randint(0, s.n))
    return CuttingSequence(s.n, as_ints(letters))


def equivalence_cases(rng, count):
    """Images of random words at n = 2..8, every other one perturbed."""
    for j in range(count):
        n = 2 + j % 7
        s = word_to_cutseq(random_word(rng, n, max_len=10))
        yield perturbed(rng, s) if j % 2 else s


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # the error type is the outcome being compared
        return type(e)


def test_occurrence_order_matches_reference(rng):
    for s in equivalence_cases(rng, 600):
        for k in range(s.n + 1):
            want = outcome(reference_occurrence_order, s, k)
            assert outcome(occurrence_order, s, k) == want, (str(s), k)


def test_validate_matches_reference(rng):
    rejected = 0
    for s in equivalence_cases(rng, 600):
        ok, reason = reference_validate(s)
        v = validate(s)
        assert v.ok == ok, str(s)
        if not ok:
            rejected += 1
            assert v.reason.split(":")[0] == reason.split(":")[0], str(s)
    assert rejected > 100  # the perturbed half exercises the rejections


def test_named_crossing_arcs_really_cross(rng):
    named = 0
    for s in equivalence_cases(rng, 600):
        v = validate(s)
        if v.ok or " arcs cross: " not in v.reason:
            continue
        side = UP if v.reason.startswith("two upper") else DOWN
        first, second = v.reason.split(": ")[1].split(" and ")
        (a, b), (c, d) = ast.literal_eval(first), ast.literal_eval(second)
        assert a < c < b < d, v.reason
        assert {(a, b), (c, d)} <= set(reference_arcs(s)[side]), v.reason
        named += 1
    assert named > 10


def test_validate_checks_reducedness_once(monkeypatch):
    calls = []

    def counted(s):
        calls.append(s)
        return is_reduced(s)

    monkeypatch.setattr(geometry, "is_reduced", counted)
    s = word_to_cutseq(parse_word("1 2 -1 2 2 1 -2 1", 3))
    assert max(s.letters.count(2 * k + 1) for k in range(4)) >= 2
    assert validate(s).ok
    assert len(calls) == 1


# --- the sort-and-verify helper on synthetic keys ------------------------------
#
# No sequence searched so far reaches the AmbiguityError branches, so the
# helper is tested directly.  Upper keys are given in natural form and passed
# with every entry e replaced by MOD - e, as the helper expects.

MOD = 8


def entries(keys):
    """Helper input from {position: (upper key, lower key)}."""
    return [([MOD - e for e in up], list(down), p) for p, (up, down) in keys.items()]


def test_sort_crossings_orders_by_upper_then_lower():
    keys = {0: ((1, 2), (3,)), 1: ((2,), (1,)), 2: ((1, 3), (5,)), 3: ((1, 3), (4, 1))}
    # larger upper key first; on the tie (1, 3), the smaller lower key first
    assert _sort_crossings(entries(keys), 0) == (1, 3, 2, 0)


def test_sort_crossings_rejects_prefix_pair_separated_by_other_keys():
    # (2,) is a prefix of (2, 1, 1); (2, 1) sorts between them
    keys = {0: ((2,), (1,)), 1: ((2, 1), (1,)), 2: ((2, 1, 1), (1,)), 3: ((3,), (1,))}
    with pytest.raises(AmbiguityError, match="prefix"):
        _sort_crossings(entries(keys), 0)
    ups = {p: u for p, (u, _) in keys.items()}
    downs = {p: d for p, (_, d) in keys.items()}
    with pytest.raises(AmbiguityError):
        reference_sort(ups, downs, 0)


def test_sort_crossings_rejects_equal_uppers_with_equal_lowers():
    keys = {4: ((2, 5), (3, 1)), 9: ((2, 5), (3, 1))}
    with pytest.raises(AmbiguityError, match="identical walks"):
        _sort_crossings(entries(keys), 2)


def test_sort_crossings_rejects_equal_uppers_with_prefix_lowers():
    keys = {4: ((2, 5), (3, 1, 6)), 7: ((2, 5), (3, 2)), 9: ((2, 5), (3,))}
    with pytest.raises(AmbiguityError, match="prefix"):
        _sort_crossings(entries(keys), 2)


def test_sort_crossings_agrees_with_all_pairs_check():
    rng = random.Random(20261018)
    raised = 0
    for _ in range(3000):
        m = rng.randint(2, 7)
        keys = {
            p: tuple(
                tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))) for _ in range(2)
            )
            for p in rng.sample(range(50), m)
        }
        ups = {p: u for p, (u, _) in keys.items()}
        downs = {p: d for p, (_, d) in keys.items()}
        want = outcome(reference_sort, ups, downs, 0)
        assert outcome(_sort_crossings, entries(keys), 0) == want, keys
        raised += want is AmbiguityError
    assert 300 < raised < 2700  # both branches well exercised
