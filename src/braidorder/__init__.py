"""A decidable right-invariant total order on the braid groups.

Braid words act on curve diagrams in the punctured disk; the diagram is
encoded as a cutting sequence along the real axis, and the first deviation
of the reduced sequence from the straight one reads off the braid's sign.
That sign gives a total order invariant under right multiplication, plus a
canonical form for every braid word.  ``sign``, ``compare`` and
``braid_equal`` read the sign from the diagram's Dynnikov coordinates, in
time quadratic in the word length; cutting sequences serve the diagram
itself, its validation, the comparison of two sequences and the canonical
form.  ``oracle``'s free-group action is the independent referee.

The public names load on first use: ``import braidorder`` imports none of
the package's modules, and the first use of a name imports the module that
defines it, so a start compiles only what it runs.
"""

# Each public name and the module that defines it.
_HOMES = {
    "parse_word": "words",
    "word_to_cutseq": "cutseq",
    "format_sequence": "cutseq",
    "sign": "order",
    "compare": "order",
    "compare_sequences": "order",
    "canonical_form": "canonical",
    "braid_equal": "order",
    "parse_sequence": "cutseq",
    "validate": "geometry",
    "BraidWord": "words",
    "SignResult": "words",
    "Ordering": "order",
    "CuttingSequence": "cutseq",
    "Validation": "geometry",
    "CanonicalResult": "canonical",
    "WordError": "words",
    "InvalidSequenceError": "words",
    "RewriteError": "words",
    "CanonicalError": "words",
    "AmbiguityError": "words",
}
__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, imported from its module and kept here (PEP 562), or
    one of the modules that define them."""
    from importlib import import_module

    if name in _HOMES.values():
        return import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value
