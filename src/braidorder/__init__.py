"""A decidable right-invariant total order on the braid groups.

Braid words act on curve diagrams in the punctured disk; the diagram is
encoded as a cutting sequence along the real axis, and the first deviation
of the reduced sequence from the straight one reads off the braid's sign.
That sign gives a total order invariant under right multiplication, plus a
canonical form for every braid word.
"""

from .canonical import (
    CanonicalError,
    CanonicalResult,
    UsefulSubword,
    canonical_form,
    complexity,
    emit_slide_word,
    find_useful_subwords,
    leftmost_useful_subword,
)
from .cutseq import (
    DOWN,
    UP,
    Arrow,
    CuttingSequence,
    Gap,
    Hole,
    InvalidSequenceError,
    RewriteError,
    apply_generator,
    format_sequence,
    initial_hole_run,
    is_reduced,
    parse_sequence,
    reduce,
    sign_of,
    trivial_sequence,
    word_to_cutseq,
)
from .geometry import (
    AmbiguityError,
    DirectedString,
    Validation,
    cyclic_key,
    down_string,
    occurrence_order,
    up_string,
    validate,
)
from .oracle import (
    ArtinAutomorphism,
    artin_action,
    braid_equal,
    enumerate_constrained,
)
from .order import Ordering, compare, compare_sequences, sign
from .words import (
    BraidWord,
    SignResult,
    WordError,
    crossing_numbers,
    format_word,
    free_reduce,
    is_sigma_consistent,
    parse_word,
    permutation_image,
)

__all__ = [
    "AmbiguityError",
    "Arrow",
    "ArtinAutomorphism",
    "BraidWord",
    "CanonicalError",
    "CanonicalResult",
    "CuttingSequence",
    "DirectedString",
    "DOWN",
    "Gap",
    "Hole",
    "InvalidSequenceError",
    "Ordering",
    "RewriteError",
    "SignResult",
    "UP",
    "UsefulSubword",
    "Validation",
    "WordError",
    "apply_generator",
    "artin_action",
    "braid_equal",
    "canonical_form",
    "compare",
    "compare_sequences",
    "complexity",
    "crossing_numbers",
    "cyclic_key",
    "down_string",
    "emit_slide_word",
    "enumerate_constrained",
    "find_useful_subwords",
    "format_sequence",
    "format_word",
    "free_reduce",
    "initial_hole_run",
    "is_reduced",
    "is_sigma_consistent",
    "leftmost_useful_subword",
    "occurrence_order",
    "parse_sequence",
    "parse_word",
    "permutation_image",
    "reduce",
    "sign",
    "sign_of",
    "trivial_sequence",
    "up_string",
    "validate",
    "word_to_cutseq",
]

__version__ = "0.1.0"
