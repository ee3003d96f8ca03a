"""SNAP applications: NLU parsing, inheritance, classification.

The three application families the paper used to validate and evaluate
the architecture (§II-B, §IV).
"""

from . import nlu
from .speech import (
    CONFUSION_PAIRS,
    LatticeError,
    MAX_ALTERNATIVES,
    SpeechParser,
    SpeechResult,
    WordHypothesis,
    WordLattice,
    synthesize_lattice,
)
from .inheritance import (
    inheritance_program,
    property_lookup_program,
)
from .classification import (
    ClassificationError,
    ClassificationResult,
    classification_program,
    classify,
    install_property,
)

__all__ = [
    "nlu",
    "CONFUSION_PAIRS",
    "LatticeError",
    "MAX_ALTERNATIVES",
    "SpeechParser",
    "SpeechResult",
    "WordHypothesis",
    "WordLattice",
    "synthesize_lattice",
    "inheritance_program",
    "property_lookup_program",
    "ClassificationError",
    "ClassificationResult",
    "classification_program",
    "classify",
    "install_property",
]
