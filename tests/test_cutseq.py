import pytest

from braidorder import (
    CuttingSequence,
    InvalidSequenceError,
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
    apply_generator,
    initial_hole_run,
    is_reduced,
    sign_of,
    trivial_sequence,
)
from braidorder.words import MAX_STRANDS, free_reduce
from conftest import random_word, reduce_sequence


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
    assert parse_sequence("_0 ^ _2 _1 v _3", n=2).n == 2


def test_parse_rejects_malformed():
    with pytest.raises(InvalidSequenceError):
        parse_sequence("_0 _1")  # infers n=0, below the minimum
    with pytest.raises(InvalidSequenceError):
        parse_sequence("_0 _2 _1 _3", n=2)  # non-adjacent holes need an arrow
    with pytest.raises(InvalidSequenceError):
        parse_sequence("_0 ^ ^ _1 _2 _3", n=2)  # adjacent arrows
    with pytest.raises(InvalidSequenceError):
        parse_sequence("_0 _1 _1 _2 _3", n=2)  # duplicate hole
    with pytest.raises(InvalidSequenceError):
        parse_sequence("_1 _0 _2 _3", n=2)  # must start at the left boundary


def test_strand_count_is_bounded():
    assert len(trivial_sequence(MAX_STRANDS).letters) == MAX_STRANDS + 2
    with pytest.raises(InvalidSequenceError, match="strand count"):
        parse_sequence("_0 ^ _99999999")
    too_many = tuple(range(0, 2 * MAX_STRANDS + 5, 2))
    with pytest.raises(InvalidSequenceError, match="strand count"):
        CuttingSequence(MAX_STRANDS + 1, too_many)


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
        parse_sequence("_0 _-1 _1 _2 _3", n=2)


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
    monkeypatch.setattr(cutseq, "_reduce_letters", lambda letters: [0, UP, 0, 6])
    with pytest.raises(RewriteError, match="generator action broke the sequence"):
        apply_generator(trivial_sequence(2), 1)


def test_each_generator_checks_its_result_once(monkeypatch):
    checks, reduced_checks = [], []

    def check(n, letters):
        checks.append(letters)
        return _check_well_formed(n, letters)

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


def test_hole_and_gap_letters_print_distinctly():
    assert format_sequence(seq_of("1 1", 3)).count("_") == 5
    letters = seq_of("1 1", 3).letters
    assert 5 in letters and 1 in letters  # the crossings of (2, 3) and (0, 1)
    assert letters.count(UP) == 2 and letters.count(DOWN) == 2
