import collections
import random
import subprocess
import sys
from pathlib import Path

import pytest

from braidorder import (
    BraidWord,
    CuttingSequence,
    InvalidSequenceError,
    WordError,
    compare_sequences,
    format_sequence,
    parse_sequence,
    parse_word,
    word_to_cutseq,
)
from braidorder import cutseq
from braidorder.cutseq import (
    DOWN,
    UP,
    RewriteError,
    _check_well_formed,
    _positions,
    _reduce_letters,
    apply_generator,
    initial_hole_run,
    is_reduced,
    sign_of,
    trivial_sequence,
)
from braidorder.geometry import occurrence_order
from braidorder.words import MAX_STRANDS, _brief, _check_strands, free_reduce
from conftest import random_word, reduce_sequence, with_a_reducible_window


def seq_of(text, n):
    return word_to_cutseq(parse_word(text, n))


def test_trivial_sequence():
    s = trivial_sequence(3)
    assert format_sequence(s) == "_0 _1 _2 _3 _4"
    assert s.is_trivial()


def test_parse_format_round_trip():
    text = "_0 ^ 1 v _3 v _1 v 3 ^ _2 ^ _4"
    s = parse_sequence(text)
    assert s.n == 3
    assert format_sequence(s) == text


def test_parse_infers_strands():
    assert parse_sequence("_0 _1 _2 _3").n == 2
    assert parse_sequence("_0 ^ _2 _1 v _3").n == 2


def test_parse_rejects_malformed():
    with pytest.raises(InvalidSequenceError):
        parse_sequence("_0 _1")  # infers n=0, below the minimum
    with pytest.raises(InvalidSequenceError):
        parse_sequence("_0 _2 _1 _3")  # non-adjacent holes need an arrow
    with pytest.raises(InvalidSequenceError):
        parse_sequence("_0 ^ ^ _1 _2 _3")  # adjacent arrows
    with pytest.raises(InvalidSequenceError):
        parse_sequence("_0 _1 _1 _2 _3")  # duplicate hole
    with pytest.raises(InvalidSequenceError):
        parse_sequence("_1 _0 _2 _3")  # must start at the left boundary


def test_strand_count_is_bounded():
    assert len(trivial_sequence(MAX_STRANDS).letters) == MAX_STRANDS + 2
    with pytest.raises(InvalidSequenceError, match="strand count"):
        parse_sequence("_0 ^ _99999999")
    too_many = tuple(range(0, 2 * MAX_STRANDS + 5, 2))
    with pytest.raises(InvalidSequenceError, match="strand count"):
        CuttingSequence(MAX_STRANDS + 1, too_many)
    for n in (1, MAX_STRANDS + 1, 10**30):
        with pytest.raises(InvalidSequenceError, match="out of range 2..") as e:
            trivial_sequence(n)
        assert str(e.value) == word_strand_error(n)


def word_strand_error(n):
    """The message of ``BraidWord``'s refusal of the strand count n."""
    with pytest.raises(WordError) as e:
        BraidWord(n)
    return str(e.value)


@pytest.mark.parametrize("bad", [3.0, 2.0, True, "3", None])
def test_a_strand_count_that_is_not_an_int_is_refused(bad):
    # 3.0 == 3, so the float would otherwise build and validate as n = 3
    with pytest.raises(InvalidSequenceError, match="not an integer strand count"):
        CuttingSequence(bad, (0, 2, 4, 6, 8))
    with pytest.raises(InvalidSequenceError, match="not an integer strand count") as e:
        trivial_sequence(bad)
    assert str(e.value) == word_strand_error(bad)


@pytest.mark.parametrize("bad", [True, 1.0, -1.0, 2, 0, "1"])
def test_apply_generator_takes_only_the_int_signs(bad):
    # True and 1.0 equal 1, so a membership test alone lets them through
    with pytest.raises(ValueError, match="sign must be"):
        apply_generator(trivial_sequence(3), 1, bad)


@pytest.mark.parametrize("bad", [True, 1.0, 1.5])
def test_apply_generator_takes_only_an_int_index(bad):
    # True and 1.0 equal 1 and acted as generator 1; 1.0 then broke the
    # sequence with a float letter, and 1.5 failed inside the rewrite
    with pytest.raises(ValueError, match=f"generator index {bad!r} out of range"):
        apply_generator(trivial_sequence(3), bad)


@pytest.mark.parametrize(
    "n, letters",
    [(10**5000, (0,)), (3, (0, 10**5000, 8)), (3, (0, 10**5000 + 1, 8)), (3, (0, -(10**5000), 8))],
    ids=["strands", "hole", "gap", "negative"],
)
def test_huge_numbers_give_a_short_sequence_error(n, letters):
    # formatting the number itself would raise a plain ValueError past 4,300
    # digits; the message gives its bit length instead
    with pytest.raises(InvalidSequenceError) as e:
        CuttingSequence(n, letters)
    assert len(str(e.value)) < 100
    assert "-bit number" in str(e.value)


def test_positions_lists_every_occurrence_in_order(rng):
    for _ in range(100):
        letters = word_to_cutseq(random_word(rng, rng.randint(2, 6))).letters
        for x in set(letters) | {UP, DOWN, 99}:
            assert _positions(letters, x) == [p for p, y in enumerate(letters) if y == x]


def test_trivial_sequence_checks_the_bound_first():
    # the bound is checked before n + 2 letters are built
    with pytest.raises(InvalidSequenceError, match="strand count"):
        trivial_sequence(10**9)


def test_letters_are_ints_on_the_doubled_grid():
    s = parse_sequence("_0 ^ _2 _1 v _3")
    assert s.letters == (0, UP, 4, 2, DOWN, 6)
    assert UP < 0 and DOWN < 0
    crossings = parse_sequence("_0 ^ 1 v _3 v _1 v 3 ^ _2 ^ _4").letters[2::6]
    assert crossings == (3, 7)  # the crossings of (1, 2) and (3, 4)


def test_well_formed_requires_every_hole_once():
    with pytest.raises(InvalidSequenceError):
        CuttingSequence(2, (0, 3, 6))


def test_constructor_rejects_a_str_letter():
    with pytest.raises(InvalidSequenceError, match="not a cutting-sequence letter"):
        CuttingSequence(2, (0, "^", 4, 2, DOWN, 6))


def test_constructor_rejects_a_none_letter():
    with pytest.raises(InvalidSequenceError):
        CuttingSequence(2, (0, None, 6))
    with pytest.raises(InvalidSequenceError, match="not a cutting-sequence letter"):
        CuttingSequence(2, (0, UP, 4, None, DOWN, 6))


def test_constructor_rejects_a_float_letter():
    with pytest.raises(InvalidSequenceError, match="not a cutting-sequence letter"):
        CuttingSequence(2, (0, UP, 4.0, 2, DOWN, 6))


def test_constructor_rejects_an_int_below_the_sentinels():
    lowest = min(UP, DOWN)
    for x in (lowest - 1, lowest - 2, -(10**9)):
        with pytest.raises(InvalidSequenceError, match="not a cutting-sequence letter"):
            CuttingSequence(2, (0, UP, 4, x, DOWN, 6))


def test_parse_refuses_negative_crossing_token():
    # 2 * (-1) + 1 would be the UP sentinel
    with pytest.raises(InvalidSequenceError, match="bad token"):
        parse_sequence("_0 v -1 ^ _1 _2 _3")


def test_parse_refuses_negative_puncture_token():
    with pytest.raises(InvalidSequenceError, match="bad token"):
        parse_sequence("_0 _-1 _1 _2 _3")


def test_parse_refuses_a_plus_sign():
    # int() reads "+2" as 2; the text form allows one spelling only
    with pytest.raises(InvalidSequenceError, match="bad token"):
        parse_sequence("_0 ^ _+2 _1 v _3")


def test_parse_refuses_non_ascii_digits():
    # int() reads the Arabic-Indic digit two as 2
    with pytest.raises(InvalidSequenceError, match="bad token"):
        parse_sequence("_0 ^ _٢ _1 v _3")


def test_parse_refuses_digit_separators():
    # int() reads "1_0" as 10
    with pytest.raises(InvalidSequenceError, match="bad token"):
        parse_sequence("_0 ^ 1_0 v _2 _1 _3")


def test_parse_refuses_a_bare_underline():
    with pytest.raises(InvalidSequenceError, match="bad token"):
        parse_sequence("_0 ^ _ _1 v _3")


def test_parse_refuses_leading_zeros():
    # int() reads "00" as 0 and "02" as 2; the text form allows one spelling
    for text in ("_00 ^ _02 _1 v _03", "_0 ^ _02 _1 v _3", "_0 v 01 ^ _1 _2 _3"):
        with pytest.raises(InvalidSequenceError, match="bad token"):
            parse_sequence(text)
    # a lone zero is still the number zero
    assert parse_sequence("_0 ^ 0 ^ _1 _2 _3 _4").letters[:3] == (0, UP, 1)


def test_parse_refuses_more_digits_than_any_value_has():
    # past 4,300 digits int() raises a plain ValueError; no value needs more
    # digits than the largest hole, n + 1 = 10,001
    for digits in ("1" * 6, "1" * 5_000):
        with pytest.raises(InvalidSequenceError, match="bad token"):
            parse_sequence(f"_0 ^ {digits} v _1 _2 _3")
    assert parse_sequence(" ".join(f"_{k}" for k in range(MAX_STRANDS + 2))).n == MAX_STRANDS


def test_parse_error_quotes_a_long_token_by_its_start_and_length():
    with pytest.raises(InvalidSequenceError) as e:
        parse_sequence("_0 ^ x" + "y" * 5_000 + " _1")
    assert str(e.value) == "bad token: 'xyyyyyyyyyyyyyyyyyyy'... (5001 characters)"
    with pytest.raises(InvalidSequenceError) as e:
        parse_sequence("_0 ^ " + "1" * 5_000 + " v _1 _2 _3")
    assert str(e.value).startswith("bad token: '11111111111111111111'... (5000 characters): ")
    assert len(str(e.value)) < 120


def test_arrow_between_value_adjacent_holes_is_reducible_not_invalid():
    # hole pairs at distance one may sit together without an arrow
    s = parse_sequence("_0 ^ _2 _1 v _3 _4")
    assert is_reduced(s)


def test_generator_on_trivial_matches_coded_example():
    s = apply_generator(trivial_sequence(3), 1)
    assert format_sequence(s) == "_0 ^ _2 _1 v _3 _4"


def test_two_letter_word_matches_coded_example():
    s = seq_of("1 -2", 3)
    assert format_sequence(s) == "_0 ^ 1 v _3 v _1 v 3 ^ _2 ^ _4"


def test_more_generator_images():
    assert format_sequence(seq_of("1", 2)) == "_0 ^ _2 _1 v _3"
    assert format_sequence(seq_of("2", 3)) == "_0 _1 ^ _3 _2 v _4"
    assert format_sequence(seq_of("1 1", 3)) == "_0 ^ 2 v _1 _2 ^ 0 v _3 _4"
    assert format_sequence(seq_of("2 2", 3)) == "_0 _1 ^ 3 v _2 _3 ^ 1 v _4"


def test_generator_then_inverse_is_trivial(rng):
    for _ in range(100):
        n = rng.randint(2, 5)
        w = random_word(rng, n, max_len=8)
        i = rng.randint(1, n - 1)
        s = word_to_cutseq(w)
        t = apply_generator(apply_generator(s, i, 1), i, -1)
        assert t == s
        t = apply_generator(apply_generator(s, i, -1), i, 1)
        assert t == s


def test_malformed_generator_result_is_a_rewrite_error(monkeypatch):
    # a broken result is the generator action's bug, not bad input
    monkeypatch.setattr(cutseq, "_reduce_letters", lambda letters, start: [0, UP, 0, 6])
    with pytest.raises(RewriteError, match="generator action broke the sequence"):
        apply_generator(trivial_sequence(2), 1)


def reference_apply_generator(s, i, sign):
    """The generator action letter by letter, reduced from the first window:
    every letter is looked at, and the whole result is scanned."""
    up, down = (UP, DOWN) if sign > 0 else (DOWN, UP)
    low, high = 2 * i, 2 * i + 2
    below, mid, above = 2 * i - 1, 2 * i + 1, 2 * i + 3
    letters = s.letters
    out = []
    for pos, x in enumerate(letters):
        if x != low and x != high and x != mid:
            out.append(x)
            continue
        left, right = letters[pos - 1], letters[pos + 1]
        if x == low:
            if left == down:
                out += [below, up]
            elif left == low - 2:
                out.append(up)
            out.append(high)
            if right == down:
                out += [up, below]
            elif right == low - 2:
                out.append(up)
        elif x == high:
            if left == up:
                out += [above, down]
            elif left == high + 2:
                out.append(down)
            out.append(low)
            if right == up:
                out += [down, above]
            elif right == high + 2:
                out.append(down)
        elif left == down and right == up:
            out += [below, up, mid, down, above]
        elif left == up and right == down:
            out += [above, down, mid, up, below]
        else:
            raise RewriteError("crossing not flanked by opposite arrows")
    return tuple(cutseq._reduce_letters(out))


def test_generator_action_matches_the_letter_by_letter_reference():
    # random walks from the trivial sequence, each step one (sequence,
    # generator, sign) triple, until the image has several hundred letters
    # (at n = 2 a walk grows slowly, so it stops after 100 steps)
    rng = random.Random(60417)
    longest = steps = 0
    for walk in range(90):
        n = 2 + walk % 9
        s = trivial_sequence(n)
        for _ in range(100):
            if len(s.letters) >= 300:
                break
            i, sign = rng.randint(1, n - 1), rng.choice((1, -1))
            t = apply_generator(s, i, sign)
            assert t.letters == reference_apply_generator(s, i, sign), (format_sequence(s), i, sign)
            s = t
            steps += 1
        longest = max(longest, len(s.letters))
    assert steps > 3_000 and longest >= 300


# The first fault of a sequence with several, as the constructor reports it.
# The texts are those of a check that ran the conditions one after another:
# endpoints, then each letter's own faults, then missing holes, then the
# first adjacency fault.
MULTI_FAULT = [
    (2, (), "sequence must start with _0"),
    (2, (2, UP, UP), "sequence must start with _0"),
    (2, (0, "x", 4), "sequence must end with _3"),
    (2, (0, UP, UP, 3, 3, 6), "missing holes: [1, 2]"),
    (2, (0, 3, 3, UP, 6), "missing holes: [1, 2]"),
    (2, (0, 2, 2, UP, UP, 6), "hole 1 occurs more than once"),
    (2, (0, 3, 2, 2, 4, 6), "hole 1 occurs more than once"),
    (3, (0, 2, 6, UP, 4, 8, 6, 8), "hole 3 occurs more than once"),
    (2, (0, UP, DOWN, 2, 3, 4, 6), "two adjacent arrows"),
    (3, (0, UP, 2, UP, 6, 4, UP, UP, 8), "two adjacent arrows"),
    (2, (0, UP, 1, UP, 2, DOWN, DOWN, 4, 6), "two adjacent arrows"),
    (2, (0, 3, 2, UP, DOWN, 4, 6), "adjacent numbers _0 1 must be holes with adjacent values"),
    (2, (0, 4, 2, 6), "adjacent numbers _0 _2 must be holes with adjacent values"),
    (3, (0, UP, 3, 3, DOWN, 2, 4, 6, 8), "adjacent numbers 1 1 must be holes with adjacent values"),
    (3, (0, 2, UP, 3, 3, 4, DOWN, 6, 8), "adjacent numbers 1 1 must be holes with adjacent values"),
    (2, (0, 99, UP, "x", 6), "gap value 49 out of range 0..2"),
    (2, (0, UP, UP, 99, 2, 4, 6), "gap value 49 out of range 0..2"),
    (2, (0, UP, 20, 6), "hole value 10 out of range 0..3"),
    (2, (0, None, 0, 6), "not a cutting-sequence letter: None"),
    (2, (0, UP, UP, None, 6), "not a cutting-sequence letter: None"),
    (2, (0, True, 2, 4, 6), "not a cutting-sequence letter: True"),
    (2, (0, -3, 2, 4, 6), "not a cutting-sequence letter: -3"),
    (2, (0, 1.0, 2, 4, 6), "not a cutting-sequence letter: 1.0"),
]


@pytest.mark.parametrize("n, letters, message", MULTI_FAULT)
def test_first_of_several_faults_is_reported(n, letters, message):
    with pytest.raises(InvalidSequenceError) as e:
        CuttingSequence(n, letters)
    assert str(e.value) == message


def test_each_generator_checks_its_result_once(monkeypatch):
    checks, reduced_checks = [], []

    def check(n, letters, screened=False):
        checks.append(letters)
        return _check_well_formed(n, letters, screened)

    def reduced(s):
        reduced_checks.append(s)
        return is_reduced(s)

    monkeypatch.setattr(cutseq, "_check_well_formed", check)
    monkeypatch.setattr(cutseq, "is_reduced", reduced)
    w = parse_word("1 2 -2 -1 2 1 -2 3 -3 1", 4)
    m = len(free_reduce(w))
    assert 0 < m < len(w)
    word_to_cutseq(w)
    # the trivial sequence, then one check per generator
    assert len(checks) == m + 1
    assert reduced_checks == []


def test_word_inverse_gives_trivial(rng):
    for _ in range(60):
        n = rng.randint(2, 5)
        w = random_word(rng, n, max_len=10)
        assert word_to_cutseq(w * w.inverse()).is_trivial()


def test_reduction_example():
    s = parse_sequence("_0 ^ 0 ^ _1 _2 _3 _4")
    assert reduce_sequence(s).is_trivial()


def test_reduce_is_idempotent(rng):
    for _ in range(100):
        s = word_to_cutseq(random_word(rng, rng.randint(2, 5)))
        assert reduce_sequence(s) == s
        assert is_reduced(s)


def test_initial_hole_run():
    assert initial_hole_run(trivial_sequence(3)) == 5
    assert initial_hole_run(seq_of("1", 3)) == 1
    assert initial_hole_run(seq_of("2", 3)) == 2
    assert initial_hole_run(seq_of("-2", 3)) == 2


def test_sign_of_sequences():
    assert str(sign_of(trivial_sequence(3))) == "trivial"
    assert str(sign_of(seq_of("1", 3))) == "positive i=1"
    assert str(sign_of(seq_of("-1", 3))) == "negative i=1"
    assert str(sign_of(seq_of("2", 3))) == "positive i=2"
    assert str(sign_of(seq_of("-2 1 2", 3))) == "positive i=1"


@pytest.mark.parametrize("text", ["_0 ^ _1 _2 _3 ^ _4", "_0 _1 ^ 1 ^ _2 _3"])
def test_an_unreduced_sequence_from_outside_is_refused(text):
    # both reduce to the trivial sequence; unchecked, the first read as
    # "positive i=1" and acted on into another unreduced sequence, and the
    # second broke the generator action (RewriteError)
    s = parse_sequence(text)
    with pytest.raises(InvalidSequenceError, match="must be reduced"):
        sign_of(s)
    with pytest.raises(InvalidSequenceError, match="must be reduced"):
        apply_generator(s, s.n - 1, 1)
    with pytest.raises(ValueError, match="generator index"):  # checked first
        apply_generator(s, s.n, 1)


def test_seeded_unreduced_sequences_are_refused():
    rng = random.Random(3)
    intervals = random.Random(4)  # a stream of its own: the sequences stay those of rng
    for _ in range(400):
        n = rng.randint(2, 5)
        s = word_to_cutseq(random_word(rng, n, max_len=6))
        t = CuttingSequence(n, with_a_reducible_window(rng, s.letters, n))
        assert not is_reduced(t) and reduce_sequence(t) == s
        with pytest.raises(InvalidSequenceError, match="must be reduced"):
            sign_of(t)
        with pytest.raises(InvalidSequenceError, match="must be reduced"):
            apply_generator(t, rng.randint(1, n - 1), rng.choice((1, -1)))
        with pytest.raises(InvalidSequenceError, match="must be reduced"):
            occurrence_order(t, intervals.randint(0, n))
        with pytest.raises(InvalidSequenceError, match="must be reduced"):
            compare_sequences(t, s)
        with pytest.raises(InvalidSequenceError, match="must be reduced"):
            compare_sequences(s, t)


def test_hole_and_gap_letters_print_distinctly():
    assert format_sequence(seq_of("1 1", 3)).count("_") == 5
    letters = seq_of("1 1", 3).letters
    assert 5 in letters and 1 in letters  # the crossings of (2, 3) and (0, 1)
    assert letters.count(UP) == 2 and letters.count(DOWN) == 2


def test_up_to_eight_missing_holes_are_all_listed():
    with pytest.raises(InvalidSequenceError) as e:
        CuttingSequence(8, (0, 18))
    assert str(e.value) == "missing holes: [1, 2, 3, 4, 5, 6, 7, 8]"


@pytest.mark.parametrize("n", [9, MAX_STRANDS])
def test_past_eight_missing_holes_give_the_count_and_the_first_eight(n):
    with pytest.raises(InvalidSequenceError) as e:
        CuttingSequence(n, (0, 2 * n + 2))
    message = str(e.value)
    assert message == f"missing holes: {n} of {n + 2}, the first 8: [1, 2, 3, 4, 5, 6, 7, 8]"
    assert len(message) < 120


def test_word_action_matches_letter_by_letter_generators():
    # seeded random walks from the trivial sequence, taken a chunk of
    # letters at a time; every letter is one step of the comparison
    rng = random.Random(90211)
    steps = 0
    for walk in range(120):
        n = 2 + walk % 9
        s = trivial_sequence(n)
        while steps < 30 * (walk + 1) and len(s.letters) < 300:
            length = rng.randint(1, 6)
            word = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
            one_by_one = s
            for k in word:
                one_by_one = apply_generator(one_by_one, abs(k), 1 if k > 0 else -1)
            t = cutseq._act_word(s, word)
            assert t == one_by_one, (format_sequence(s), word)
            s = t
            steps += len(word)
    assert steps >= 3_000


def test_word_action_of_the_empty_word_is_its_input():
    s = seq_of("1 -2", 3)
    assert cutseq._act_word(s, ()) is s


def test_generator_indices_are_range_checked_where_they_enter():
    # the word action checks no index: a word's indices are checked where
    # the word enters, so these never reach it
    s = trivial_sequence(3)
    for word in [(3,), (1, -3), (1, 0)]:
        with pytest.raises(WordError, match="out of range for 3 strands"):
            BraidWord(3, word)
        k = word[-1]
        with pytest.raises(ValueError, match="out of range 1..2"):
            apply_generator(s, abs(k), 1 if k > 0 else -1)


def test_malformed_result_under_word_to_cutseq_is_a_rewrite_error(monkeypatch):
    # a fault in a middle generator's result, not only in the last one's
    results = iter([None, [0, UP, 0, 6]])

    def broken(letters, start):
        made = next(results)
        return _reduce_letters(letters, start) if made is None else made

    monkeypatch.setattr(cutseq, "_reduce_letters", broken)
    with pytest.raises(RewriteError, match="generator action broke the sequence"):
        word_to_cutseq(parse_word("1 1 1", 2))


def reference_check_well_formed(n, letters):
    """The constructor's check as one loop that tests each letter's type
    and range where it meets the letter."""
    _check_strands(n, InvalidSequenceError)
    top = 2 * n + 2
    if not letters or letters[0] != 0:
        raise InvalidSequenceError("sequence must start with _0")
    if letters[-1] != top:
        raise InvalidSequenceError(f"sequence must end with _{n + 1}")
    seen = set()
    adjacency = None
    prev = UP
    for x in letters:
        if type(x) is not int or x < DOWN:
            raise InvalidSequenceError(f"not a cutting-sequence letter: {_brief(x)}")
        if x < 0:
            if prev < 0 and adjacency is None:
                adjacency = "two adjacent arrows"
        else:
            if x & 1:
                if x > top:
                    raise InvalidSequenceError(f"gap value {_brief(x >> 1)} out of range 0..{n}")
            elif x > top:
                raise InvalidSequenceError(f"hole value {_brief(x >> 1)} out of range 0..{n + 1}")
            elif x in seen:
                raise InvalidSequenceError(f"hole {x >> 1} occurs more than once")
            else:
                seen.add(x)
            if prev >= 0 and adjacency is None and (x & 1 or prev & 1 or abs(x - prev) != 2):
                adjacency = (
                    f"adjacent numbers {cutseq._format_letter(prev)} {cutseq._format_letter(x)} "
                    "must be holes with adjacent values"
                )
        prev = x
    if len(seen) < n + 2:
        missing = [k for k in range(n + 2) if 2 * k not in seen]
        if len(missing) > 8:
            raise InvalidSequenceError(
                f"missing holes: {len(missing)} of {n + 2}, the first 8: {missing[:8]}"
            )
        raise InvalidSequenceError(f"missing holes: {missing}")
    if adjacency is not None:
        raise InvalidSequenceError(adjacency)


def reference_parse_sequence(text):
    """Every token read on its own, then :func:`reference_check_well_formed`:
    ``(n, letters)``."""
    letters = []
    known = {"^": UP, "v": DOWN}
    for token in text.split():
        x = known.get(token)
        if x is None:
            hole = token.startswith("_")
            digits = token[1:] if hole else token
            if not (digits.isascii() and digits.isdigit()) or (
                digits[0] == "0" and len(digits) > 1
            ):
                raise InvalidSequenceError(f"bad token: {_brief(token)}")
            if len(digits) > cutseq._MAX_DIGITS:
                raise InvalidSequenceError(
                    f"bad token: {_brief(token)}: value out of range for any strand count"
                    f" up to {MAX_STRANDS}"
                )
            k = int(digits)
            x = known[token] = 2 * k if hole else 2 * k + 1
        letters.append(x)
    if not letters or letters[-1] < 0 or letters[-1] & 1:
        raise InvalidSequenceError("cannot infer strand count: no final hole")
    n = (letters[-1] >> 1) - 1
    reference_check_well_formed(n, tuple(letters))
    return n, tuple(letters)


def outcome(parse, text):
    """``(n, letters)`` of what parse(text) gives, or its error's type and
    message."""
    try:
        s = parse(text)
    except Exception as e:
        return type(e), str(e)
    return s if isinstance(s, tuple) else (s.n, s.letters)


# Tokens the spelling tables must refuse, each for the reason the reference
# gives: a bare underline, leading zeros, signs, a digit separator, other
# scripts' digits, a letter no table holds, and digit runs longer than any
# value has, one past int()'s limit among them.
SEQUENCE_FAULTS = ["_", "_01", "01", "_00", "+1", "-1", "_+1", "_-1", "1_0", "_1_0", "\u0663",
                   "_\u0662", "\uff11", "_\uff12", "x", "V", "1" * (cutseq._MAX_DIGITS + 1),
                   "_" + "2" * (cutseq._MAX_DIGITS + 1), "9" * 4_301]
SEPARATORS = (" ", " ", " ", "  ", "\t", "\n", "\xa0", "\x1c")
# Strand counts around the table cap and at the bound, drawn now and then.
WIDE_STRANDS = (63, 64, 65, MAX_STRANDS)


def faulty_sequence_text(rng, tokens, n):
    """The tokens of a sequence on n strands with up to three faults: a
    token of ``SEQUENCE_FAULTS`` put in, a value past n, a final token
    that is not a hole, or a token dropped, swapped or repeated; joined by
    ``SEPARATORS``."""
    tokens = list(tokens)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        fault = rng.randrange(6)
        p = rng.randrange(len(tokens))
        if fault == 0:
            tokens.insert(p, rng.choice(SEQUENCE_FAULTS))
        elif fault == 1:
            tokens[p] = rng.choice((str(n + 1), f"_{n + 2}", str(rng.randint(n, 99_999)),
                                    f"_{rng.randint(n + 2, 99_999)}"))
        elif fault == 2:
            tokens[-1] = rng.choice(("^", "v", str(n), "0", *SEQUENCE_FAULTS))
        elif fault == 3:
            del tokens[p]
        elif fault == 4:
            q = rng.randrange(len(tokens))
            tokens[p], tokens[q] = tokens[q], tokens[p]
        else:
            tokens.insert(p, tokens[rng.randrange(len(tokens))])
        if not tokens:
            break
    seps = [rng.choice(SEPARATORS) for _ in tokens]
    text = "".join(sep + token for sep, token in zip(seps, tokens))
    return text if rng.random() < 0.5 else text.strip()


def test_parse_sequence_matches_the_reference_on_seeded_texts():
    rng = random.Random(19)
    wide = {}  # the images on the strand counts of WIDE_STRANDS, made once each
    parsed, refused, on_wide = 0, 0, collections.Counter()
    for j in range(6_000):
        if j % 40 == 0:
            n = WIDE_STRANDS[j // 40 % len(WIDE_STRANDS)]
            if n not in wide:
                wide[n] = format_sequence(word_to_cutseq(random_word(rng, n, 4, 1))).split()
            tokens = wide[n]
        else:
            n = rng.randint(2, 12)
            tokens = format_sequence(word_to_cutseq(random_word(rng, n, 10))).split()
        text = faulty_sequence_text(rng, tokens, n)
        got, want = outcome(parse_sequence, text), outcome(reference_parse_sequence, text)
        assert got == want, text[:80]
        if isinstance(got[1], tuple):
            parsed += 1
            on_wide[got[0]] += got[0] in WIDE_STRANDS
        else:
            refused += 1
    assert parsed > 2_000 and refused > 2_000
    assert all(on_wide[n] > 10 for n in WIDE_STRANDS)


def test_sequence_spelling_tables_stay_within_their_bound():
    top = cutseq._TABLE_STRANDS
    for n in [*range(2, 300), 1_000, 4_321, MAX_STRANDS - 1, MAX_STRANDS]:
        s = word_to_cutseq(BraidWord(n, (1, 1 - n)))
        assert parse_sequence(format_sequence(s)) == s
    info = cutseq._spellings.cache_info()
    assert info.currsize <= top - 1
    # the holes _0.._{n+1}, the crossings 0..n and the two arrows
    assert len(cutseq._spellings(top)) == 2 * top + 5
    assert sum(len(cutseq._spellings(m)) for m in range(2, top + 1)) == 4_473
    assert cutseq._spellings.cache_info().currsize == info.currsize  # none built above
    # and none at import
    code = "import braidorder.cutseq as c; print(c._spellings.cache_info().currsize)"
    src = Path(cutseq.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "0"


# Letters the constructor must refuse, each for the reason the reference
# gives: other types (a bool passes for an int, a float compares equal to
# one), ints below the arrows, and values past every hole.
BAD_LETTERS = [True, False, 1.0, 0.0, "1", None, -3, -(10**30), 10**30]


def test_constructor_check_matches_the_reference_on_seeded_letters():
    rng = random.Random(20)
    refused = collections.Counter()
    for _ in range(3_000):
        n = rng.randint(2, 9)
        letters = list(word_to_cutseq(random_word(rng, n, 10)).letters)
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            p = rng.randrange(len(letters))
            fault = rng.randrange(4)
            if fault == 0:
                letters[p] = rng.choice(BAD_LETTERS)
            elif fault == 1:
                letters[p] = rng.choice((2 * n + 3, 2 * n + 4, 2 * rng.randint(0, n + 1)))
            elif fault == 2:
                letters.insert(p, rng.choice((UP, DOWN, 2 * rng.randint(0, 2 * n) + 1)))
            else:
                del letters[p]
        letters = tuple(letters)
        got = outcome(lambda t: CuttingSequence(n, t), letters)
        want = outcome(lambda t: (n, reference_check_well_formed(n, t) or t), letters)
        assert got == want, letters
        refused[got[1].split(":")[0] if got[0] is InvalidSequenceError else "ok"] += 1
    assert refused["ok"] > 500 and len(refused) > 8
