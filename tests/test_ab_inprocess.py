"""The summary of ``scripts/ab_inprocess.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_inprocess.py"
spec = importlib.util.spec_from_file_location("ab_inprocess", SCRIPT)
ab_inprocess = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_inprocess)

KINDS = ["sign", "canonical", "sign", "canonical", "equal"]
BEST = {
    "parent": [0.001, 0.004, 0.003, 0.006, 0.002],  # 16 ms in all
    "change": [0.001, 0.002, 0.003, 0.004, 0.002],  # 12 ms in all
}


def test_rows_follow_the_kinds_in_first_seen_order():
    rows, _ = ab_inprocess.summary(KINDS, BEST)
    assert [(kind, ops) for kind, ops, *_ in rows] == [("sign", 2), ("canonical", 2), ("equal", 1)]


def test_milliseconds_per_operation_and_their_ratio():
    rows, _ = ab_inprocess.summary(KINDS, BEST)
    by_kind = {kind: cells for kind, _, *cells in rows}
    assert by_kind["sign"] == pytest.approx([2.0, 2.0, 1.0])
    assert by_kind["canonical"] == pytest.approx([5.0, 3.0, 0.6])
    assert by_kind["equal"] == pytest.approx([2.0, 2.0, 1.0])


def test_ops_per_s_ratio_is_the_inverse_ratio_of_the_time_sums():
    # 5 ops in 16 ms against 5 ops in 12 ms
    _, ratio = ab_inprocess.summary(KINDS, BEST)
    assert ratio == pytest.approx(16 / 12)


def test_split_ratio_is_the_odd_rounds_over_the_even_rounds_per_kind():
    odd = [0.001, 0.005, 0.003, 0.007, 0.002]
    ratios = ab_inprocess.split_ratios(KINDS, odd, BEST["parent"])
    assert list(ratios) == ["sign", "canonical", "equal"]
    assert ratios == pytest.approx({"sign": 1.0, "canonical": 1.2, "equal": 1.0})


def test_perturbed_copies_stay_well_formed_and_touch_only_arrows_and_crossings():
    import random

    from braidorder.cutseq import CuttingSequence, word_to_cutseq
    from braidorder.words import BraidWord

    rng = random.Random(5)
    changed = 0
    for j in range(300):
        n = 2 + j % 8
        s = word_to_cutseq(BraidWord(n, ab_inprocess.random_letters(rng, n)))
        copy = ab_inprocess.perturbed(rng, n, s.letters)
        CuttingSequence(n, copy)  # raises if the copy is malformed
        for x, y in zip(s.letters, copy):
            assert x == y or (x < 0 and y < 0) or (x & 1 and y & 1 and y >= 0)
        changed += copy != s.letters
    assert changed > 200


def test_agreement_of_a_checkout_with_itself():
    run = ab_inprocess.load_bench_run()
    root = SCRIPT.parent.parent
    libs = {side: ab_inprocess.load_library(root, f"braidorder_self_{side}", run.MODULES)
            for side in ab_inprocess.SIDES}
    differ, differ_sequences, checked, rejected = ab_inprocess.agreement(libs, seed=3, count=200)
    assert differ == [] and differ_sequences == []
    assert checked == 400
    assert 50 < rejected < 250  # the perturbed copies exercise the rejections


def local_libs(package):
    run = ab_inprocess.load_bench_run()
    root = SCRIPT.parent.parent
    return {side: ab_inprocess.load_library(root, f"{package}_{side}", run.MODULES)
            for side in ab_inprocess.SIDES}


def test_sequence_order_is_the_value_or_the_error():
    lib = local_libs("braidorder_order")["parent"]
    make = lib["braidorder.words"].BraidWord
    image = lib["braidorder.cutseq"].word_to_cutseq
    s, t = image(make(3, (1,))), image(make(3, (-2,)))
    assert ab_inprocess.sequence_order(lib, s, t) == 1
    assert ab_inprocess.sequence_order(lib, t, s) == -1
    assert ab_inprocess.sequence_order(lib, s, s) == 0
    assert ab_inprocess.sequence_order(lib, s, image(make(2, ()))) == (
        "InvalidSequenceError",
        "strand count mismatch: 3 vs 2",
    )


def test_agreement_checks_the_value_of_compare_sequences(monkeypatch):
    libs = local_libs("braidorder_flipped")
    order = libs["change"]["braidorder.order"]
    right = order.compare_sequences
    monkeypatch.setattr(
        order, "compare_sequences", lambda s, t: order.Ordering(-right(s, t).value)
    )
    differ, differ_sequences, _, _ = ab_inprocess.agreement(libs, seed=3, count=50)
    # the partners that are other braids are ordered the other way round
    assert len(differ) > 10 and differ_sequences == []


@pytest.mark.parametrize("message, differs", [("a message", False), ("another message", True)])
def test_agreement_checks_the_error_of_compare_sequences(monkeypatch, message, differs):
    libs = local_libs("braidorder_refusing" + "_other" * differs)

    def refusing(order, text):
        def compare_sequences(s, t):
            raise order.AmbiguityError(text)

        return compare_sequences

    for side, text in (("parent", "a message"), ("change", message)):
        order = libs[side]["braidorder.order"]
        monkeypatch.setattr(order, "compare_sequences", refusing(order, text))
    differ, _, _, _ = ab_inprocess.agreement(libs, seed=3, count=20)
    assert len(differ) == (20 if differs else 0)


def test_difference_gives_the_verdicts_or_the_first_differing_interval():
    reduced = ("ValueError", "input sequence must be reduced")
    renamed = ("InvalidSequenceError", "input sequence must be reduced")
    kind, detail = ab_inprocess.difference(
        (False, "sequence is not reduced", ()), (True, None, ())
    )
    assert kind == "validate"
    assert detail == "validate: parent (False, 'sequence is not reduced'), change (True, None)"
    kind, detail = ab_inprocess.difference(
        (False, "r", ((), reduced, reduced)), (False, "r", ((), renamed, renamed))
    )
    assert kind == "error type ValueError -> InvalidSequenceError, same message"
    assert detail == f"interval 1: parent {reduced}, change {renamed}"
    kind, detail = ab_inprocess.difference(
        (True, None, ((3, 7), (5,))), (True, None, ((7, 3), (5,)))
    )
    assert (kind, detail) == ("occurrence_order", "interval 0: parent (3, 7), change (7, 3)")
    # a renamed error and a changed order: not a renaming only
    kind, _ = ab_inprocess.difference(
        (False, "r", (reduced, (3, 7))), (False, "r", (renamed, (7, 3)))
    )
    assert kind == "occurrence_order"


def test_agreement_shows_what_each_side_gave_for_a_differing_sequence(monkeypatch):
    # the parent side refuses an unreduced sequence with a plain ValueError
    libs = local_libs("braidorder_renamed")
    geometry = libs["parent"]["braidorder.geometry"]
    right = geometry.occurrence_order

    def plain(s, k):
        try:
            return right(s, k)
        except libs["parent"]["braidorder.cutseq"].InvalidSequenceError as e:
            raise ValueError(str(e)) from None

    monkeypatch.setattr(geometry, "occurrence_order", plain)
    differ, differ_sequences, _, _ = ab_inprocess.agreement(libs, seed=3, count=50)
    assert differ == [] and len(differ_sequences) > 5
    for text, kind in differ_sequences:
        assert kind == "error type ValueError -> InvalidSequenceError, same message"
        assert "parent ('ValueError', 'input sequence must be reduced'), change (" in text


def test_parse_outcome_is_the_letters_or_the_error():
    lib = local_libs("braidorder_parse")["parent"]
    assert ab_inprocess.parse_outcome(lib, "1 -2", 3) == (1, -2)
    assert ab_inprocess.parse_outcome(lib, "", 3) == ()
    assert ab_inprocess.parse_outcome(lib, "3", 3) == (
        "WordError",
        "letter 3 out of range for 3 strands",
    )
    assert ab_inprocess.parse_outcome(lib, "3 +1", 3) == ("WordError", "not an integer letter: '+1'")


def test_random_texts_mix_valid_words_faults_and_separators():
    import random

    rng = random.Random(4)
    texts = [ab_inprocess.random_text(rng, 5) for _ in range(400)]
    assert any("\xa0" in t for t in texts) and any("\x1c" in t for t in texts)
    for fault in ("+1", "1" * 4_301):
        assert any(fault in t.split() for t in texts)
    assert 200 < sum(all(t in {"1", "2", "3", "4", "-1", "-2", "-3", "-4"} for t in x.split())
                     for x in texts) < 300


def test_parse_agreement_of_a_checkout_with_itself():
    libs = local_libs("braidorder_parse_self")
    differ, refused = ab_inprocess.parse_agreement(libs, seed=3, count=300)
    assert differ == []
    assert 60 < refused < 200  # malformed texts and letters out of range


def test_parse_agreement_shows_what_each_side_gave(monkeypatch):
    # the change side reads "+1" as the letter 1
    libs = local_libs("braidorder_parse_plus")
    words = libs["change"]["braidorder.words"]
    right = words.parse_word
    monkeypatch.setattr(words, "parse_word", lambda text, n: right(text.replace("+1", "1"), n))
    differ, _ = ab_inprocess.parse_agreement(libs, seed=3, count=300)
    assert differ
    for text in differ:
        assert "+1" in text
        assert "parent ('WordError', \"not an integer letter: '+1'\"), change (" in text


def test_letters_outcome_is_the_letters_or_the_error():
    lib = local_libs("braidorder_letters")["parent"]
    assert ab_inprocess.letters_outcome(lib, "1 -12", 3) == (1, -12)
    assert ab_inprocess.letters_outcome(lib, "3 +1", 3) == (
        "WordError",
        "not an integer letter: '+1'",
    )


def test_parse_letters_agreement_of_a_checkout_with_itself():
    libs = local_libs("braidorder_letters_self")
    differ, refused = ab_inprocess.parse_agreement(
        libs, seed=3, count=300, outcome=ab_inprocess.letters_outcome
    )
    assert differ == []
    assert 40 < refused < 150  # malformed texts only: no letter is out of range


def test_parse_letters_agreement_shows_what_each_side_gave(monkeypatch):
    # the change side reads "+1" as the letter 1
    libs = local_libs("braidorder_letters_plus")
    words = libs["change"]["braidorder.words"]
    right = words.parse_letters
    monkeypatch.setattr(words, "parse_letters", lambda text: right(text.replace("+1", "1")))
    differ, _ = ab_inprocess.parse_agreement(
        libs, seed=3, count=300, outcome=ab_inprocess.letters_outcome
    )
    assert differ
    for text in differ:
        assert "+1" in text
        assert "parent ('WordError', \"not an integer letter: '+1'\"), change (" in text


def test_sequence_outcome_is_the_letters_or_the_error():
    lib = local_libs("braidorder_parse_sequence")["parent"]
    assert ab_inprocess.sequence_outcome(lib, "_0 ^ _2 _1 v _3") == (0, -1, 4, 2, -2, 6)
    assert ab_inprocess.sequence_outcome(lib, "_0 ^ _+2 _1 v _3") == (
        "InvalidSequenceError",
        "bad token: '_+2'",
    )
    assert ab_inprocess.sequence_outcome(lib, "_0 _1 _2 ^") == (
        "InvalidSequenceError",
        "cannot infer strand count: no final hole",
    )


def test_random_sequence_texts_mix_images_faults_and_separators():
    import random

    rng = random.Random(4)
    tokens = ["_0", "^", "_2", "_1", "v", "_3"]
    texts = [ab_inprocess.random_sequence_text(rng, 2, tokens) for _ in range(600)]
    assert any("\xa0" in t for t in texts) and any("\x1c" in t for t in texts)
    for fault in ("_01", "+1", "9" * 4_301, "3", "_4"):
        assert any(fault in t.split() for t in texts)
    assert any(t.split()[-1] in ("^", "v", "2") for t in texts)
    assert tokens == ["_0", "^", "_2", "_1", "v", "_3"]
    assert 350 < sum(t.split() == tokens for t in texts) < 450


def test_parse_sequence_agreement_of_a_checkout_with_itself():
    libs = local_libs("braidorder_parse_sequence_self")
    differ, refused = ab_inprocess.parse_sequence_agreement(libs, seed=3, count=300)
    assert differ == []
    assert 50 < refused < 200  # malformed texts and perturbed copies


def test_parse_sequence_agreement_shows_what_each_side_gave(monkeypatch):
    # the change side reads "_01" as the hole 1
    libs = local_libs("braidorder_parse_sequence_zero")
    cutseq = libs["change"]["braidorder.cutseq"]
    right = cutseq.parse_sequence
    monkeypatch.setattr(cutseq, "parse_sequence", lambda text: right(text.replace("_01", "_1")))
    differ, _ = ab_inprocess.parse_sequence_agreement(libs, seed=3, count=600)
    assert differ
    for text in differ:
        assert "_01" in text
        assert "parent ('InvalidSequenceError', \"bad token: '_01'\"), change (" in text


def test_slide_agreement_of_a_checkout_with_itself():
    libs = local_libs("braidorder_slides_self")
    differ, slides, tied = ab_inprocess.slide_agreement(libs, seed=3, count=300)
    assert differ == []
    assert slides > 800 and tied > 50  # the opposite walks break some ties


def test_slide_agreement_shows_what_each_side_gave(monkeypatch):
    # the change side slides along the last usable arc
    libs = local_libs("braidorder_slides_last")
    canonical = libs["change"]["braidorder.canonical"]
    monkeypatch.setattr(
        canonical, "leftmost_useful_subword", lambda s: canonical.find_useful_subwords(s)[-1]
    )
    differ, slides, _ = ab_inprocess.slide_agreement(libs, seed=3, count=300)
    assert 100 < len(differ) < slides
    for text in differ:
        assert ", change (" in text and "\n    parent (" in text
