import json

import pytest
from click.testing import CliRunner

from braidorder import cli
from braidorder.canonical import CanonicalError
from braidorder.cli import main
from braidorder.cutseq import RewriteError
from braidorder.geometry import AmbiguityError


def run(*args):
    return CliRunner().invoke(main, args)


def test_sign_plain():
    r = run("sign", "-n", "3", "1")
    assert r.exit_code == 0
    assert r.output.strip() == "positive i=1"


def test_sign_trivial_empty_word():
    r = run("sign", "-n", "3", "")
    assert r.exit_code == 0
    assert r.output.strip() == "trivial"


def test_sign_negative_word():
    r = run("sign", "-n", "3", "-2 -1 2 2 2 -1 2 -1")
    assert r.exit_code == 0
    assert r.output.strip() == "negative i=1"


def test_sign_json():
    r = run("sign", "--json", "-n", "3", "1 -2")
    assert r.exit_code == 0
    assert json.loads(r.output) == {"kind": "positive", "index": 1}


def test_sign_infers_strands():
    r = run("sign", "1 -2")
    assert r.exit_code == 0
    assert r.output.strip() == "positive i=1"


def test_compare():
    assert run("compare", "-n", "3", "", "1 -2").output.strip() == "<"
    assert run("compare", "1 -2", "1 -2").output.strip() == "="
    assert run("compare", "1", "1 -2").output.strip() == ">"


def test_compare_json():
    r = run("compare", "--json", "1 -2", "1")
    assert r.exit_code == 0
    assert json.loads(r.output) == {"order": "<"}


def test_canonical():
    r = run("canonical", "1 2 -1")
    assert r.exit_code == 0
    assert r.output.strip() == "-2 1 2"


def test_canonical_of_trivial_prints_empty():
    r = run("canonical", "-n", "3", "1 -1")
    assert r.exit_code == 0
    assert r.output.strip() == ""


def test_canonical_fixed_point_word():
    r = run("canonical", "2 1 2 2 1 2 2 1 2")
    assert r.exit_code == 0
    assert r.output.strip() == "2 1 2 2 1 2 2 1 2"


def test_canonical_json_carries_sign_and_iterations():
    r = run("canonical", "--json", "1 2 -1")
    data = json.loads(r.output)
    assert data["word"] == "-2 1 2"
    assert data["kind"] == "positive"
    assert data["index"] == 1
    assert data["iterations"] >= 1


def test_cutseq():
    r = run("cutseq", "-n", "3", "1")
    assert r.exit_code == 0
    assert r.output.strip() == "_0 ^ _2 _1 v _3 _4"


def test_cutseq_json():
    r = run("cutseq", "--json", "-n", "3", "1 -2")
    data = json.loads(r.output)
    assert data == {
        "sequence": "_0 ^ 1 v _3 v _1 v 3 ^ _2 ^ _4",
        "strands": 3,
    }


def test_validate_valid():
    r = run("validate", "_0 _1 _2 _3")
    assert r.exit_code == 0
    assert r.output.strip() == "valid"


def test_validate_invalid_gives_reason():
    r = run("validate", "_0 ^ 0 ^ _1 _2 _3 _4")
    assert r.exit_code == 0
    assert r.output.strip().startswith("invalid: ")


def test_validate_json():
    r = run("validate", "--json", "_0 ^ _2 _1 ^ _3")
    data = json.loads(r.output)
    assert data["valid"] is False
    assert "cross" in data["reason"]


def test_validate_rejects_malformed_text():
    r = run("validate", "_0 ^ ^ _1 _2 _3")
    assert r.exit_code == 1


def test_validate_text_starting_with_minus_is_not_an_option():
    r = run("validate", "-1 _0")
    assert r.exit_code == 1
    assert "bad token" in r.stderr
    r = run("validate", "--json", "-1 _0")
    assert r.exit_code == 1
    assert "bad token" in r.stderr


def test_equal():
    r = run("equal", "-n", "4", "1 2 -3 2 -1", "-2 -3 1 -2 1 3 2")
    assert r.exit_code == 0
    assert r.output.strip() == "true"
    r = run("equal", "1", "2")
    assert r.output.strip() == "false"


def test_equal_json():
    r = run("equal", "--json", "-n", "4", "1 2 -3 2 -1", "-2 -3 1 -2 1 3 2")
    assert json.loads(r.output) == {"equal": True}


def test_words_starting_with_minus_are_not_options():
    r = run("equal", "-2 -3 1 -2 1 3 2", "1 2 -3 2 -1")
    assert r.exit_code == 0
    assert r.output.strip() == "true"


def test_parse_error_exits_nonzero():
    r = run("sign", "-n", "2", "3")
    assert r.exit_code == 1
    r = run("sign", "one")
    assert r.exit_code == 1


def test_letters_int_would_read_differently_exit_1():
    for word in ("1_0", "+1", "01"):
        r = run("sign", word)
        assert r.exit_code == 1
        assert "not an integer letter" in r.stderr
    r = run("compare", "1", "1_0")
    assert r.exit_code == 1
    assert "not an integer letter" in r.stderr


def test_overlong_digit_runs_exit_1_without_traceback():
    # past 4,300 digits int() raises a plain ValueError
    digits = "1" * 5_000
    for args, message in [
        (("validate", "--", f"_0 ^ {digits} v _1 _2 _3"), "bad token"),
        (("sign", digits), "out of range"),
    ]:
        r = run(*args)
        assert r.exit_code == 1
        assert message in r.stderr
        assert isinstance(r.exception, SystemExit), repr(r.exception)


def test_strand_mismatch_exits_nonzero():
    r = run("compare", "-n", "2", "1", "2")
    assert r.exit_code == 1


def test_too_many_strands_exits_1():
    r = run("sign", "1000000000")
    assert r.exit_code == 1
    assert "out of range" in r.stderr
    r = run("validate", "_0 ^ _99999999")
    assert r.exit_code == 1
    assert "out of range" in r.stderr


@pytest.mark.parametrize("error", [RewriteError, CanonicalError, AmbiguityError])
def test_internal_error_exits_3_with_one_line(monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("invariant broken")

    monkeypatch.setattr(cli, "canonical_form", broken)
    r = run("canonical", "1 2")
    assert r.exit_code == 3
    assert r.stdout == ""
    assert r.stderr == "internal error (a bug): invariant broken\n"
