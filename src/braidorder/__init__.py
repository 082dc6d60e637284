"""A decidable right-invariant total order on the braid groups.

Braid words act on curve diagrams in the punctured disk; the diagram is
encoded as a cutting sequence along the real axis, and the first deviation
of the reduced sequence from the straight one reads off the braid's sign.
That sign gives a total order invariant under right multiplication, plus a
canonical form for every braid word.  ``sign`` and ``compare`` read the
sign from the diagram's Dynnikov coordinates, in time quadratic in the
word length; cutting sequences serve the diagram itself, its validation,
the comparison of two sequences and the canonical form.
"""

from .canonical import CanonicalError, CanonicalResult, canonical_form
from .cutseq import (
    CuttingSequence,
    InvalidSequenceError,
    RewriteError,
    format_sequence,
    parse_sequence,
    word_to_cutseq,
)
from .geometry import AmbiguityError, Validation, validate
from .oracle import braid_equal
from .order import Ordering, compare, compare_sequences, sign
from .words import BraidWord, SignResult, WordError, parse_word

__all__ = [
    "parse_word",
    "word_to_cutseq",
    "format_sequence",
    "sign",
    "compare",
    "compare_sequences",
    "canonical_form",
    "braid_equal",
    "parse_sequence",
    "validate",
    "BraidWord",
    "SignResult",
    "Ordering",
    "CuttingSequence",
    "Validation",
    "CanonicalResult",
    "WordError",
    "InvalidSequenceError",
    "RewriteError",
    "CanonicalError",
    "AmbiguityError",
]

__version__ = "0.1.0"
