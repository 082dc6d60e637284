"""Command line front end."""

from __future__ import annotations

import json

import click

from .canonical import CanonicalError, canonical_form
from .cutseq import (
    InvalidSequenceError,
    RewriteError,
    format_sequence,
    parse_sequence,
    word_to_cutseq,
)
from .geometry import AmbiguityError, validate
from .oracle import braid_equal
from .order import Ordering, compare, sign
from .words import WordError, format_word, parse_letters, parse_word


def _parse(text: str, n: int | None, *context: str):
    """The word of ``text``; without ``n``, on as many strands as the largest
    index in ``text`` and the ``context`` texts needs."""
    try:
        if n is None:
            n = max([2] + [abs(k) + 1 for t in (text, *context) for k in parse_letters(t)])
        return parse_word(text, n)
    except WordError as exc:
        raise click.ClickException(str(exc)) from exc


def _emit(as_json: bool, data: dict, text: str) -> None:
    click.echo(json.dumps(data) if as_json else text)


strands_option = click.option(
    "-n", "--strands", type=int, default=None, help="number of strands (default: inferred)"
)
json_option = click.option("--json", "as_json", is_flag=True, help="emit JSON")

# words like "-2 1" and sequence texts like "-1 _0" start with a dash;
# don't let them parse as options
word_args = {"ignore_unknown_options": True}


class _Group(click.Group):
    """Reports an error that only a bug can raise in one line, exit code 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (RewriteError, CanonicalError, AmbiguityError) as exc:
            click.echo(f"internal error (a bug): {exc}", err=True)
            ctx.exit(3)


@click.group(cls=_Group)
def main():
    """Decide and exhibit the right-invariant order on braid words.

    Words are space-separated nonzero integers: "1 -2" means the first
    generator followed by the inverse of the second.
    """


@main.command("sign", context_settings=word_args)
@click.argument("word")
@strands_option
@json_option
def sign_cmd(word, strands, as_json):
    """Whether WORD is a positive, negative, or trivial braid."""
    res = sign(_parse(word, strands))
    _emit(as_json, {"kind": res.kind, "index": res.index}, str(res))


@main.command("compare", context_settings=word_args)
@click.argument("left")
@click.argument("right")
@strands_option
@json_option
def compare_cmd(left, right, strands, as_json):
    """Order LEFT against RIGHT: prints <, =, or >."""
    a, b = _parse(left, strands, right), _parse(right, strands, left)
    out = {Ordering.LESS: "<", Ordering.EQUAL: "=", Ordering.GREATER: ">"}[compare(a, b)]
    _emit(as_json, {"order": out}, out)


@main.command("canonical", context_settings=word_args)
@click.argument("word")
@strands_option
@json_option
def canonical_cmd(word, strands, as_json):
    """The canonical form of WORD."""
    res = canonical_form(_parse(word, strands))
    text = format_word(res.word)
    data = {
        "word": text,
        "kind": res.sign.kind,
        "index": res.sign.index,
        "iterations": res.iterations,
    }
    _emit(as_json, data, text)


@main.command("cutseq", context_settings=word_args)
@click.argument("word")
@strands_option
@json_option
def cutseq_cmd(word, strands, as_json):
    """The reduced cutting sequence of WORD's curve diagram."""
    seq = word_to_cutseq(_parse(word, strands))
    text = format_sequence(seq)
    _emit(as_json, {"sequence": text, "strands": seq.n}, text)


@main.command("validate", context_settings=word_args)
@click.argument("sequence")
@json_option
def validate_cmd(sequence, as_json):
    """Whether SEQUENCE is realized by an actual curve diagram."""
    try:
        seq = parse_sequence(sequence)
    except InvalidSequenceError as exc:
        raise click.ClickException(str(exc)) from exc
    res = validate(seq)
    text = "valid" if res.ok else f"invalid: {res.reason}"
    _emit(as_json, {"valid": res.ok, "reason": res.reason}, text)


@main.command("equal", context_settings=word_args)
@click.argument("left")
@click.argument("right")
@strands_option
@json_option
def equal_cmd(left, right, strands, as_json):
    """Whether LEFT and RIGHT are the same braid (by free-group action)."""
    res = braid_equal(_parse(left, strands, right), _parse(right, strands, left))
    _emit(as_json, {"equal": res}, "true" if res else "false")
