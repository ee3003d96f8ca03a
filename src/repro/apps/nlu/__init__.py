"""NLU parsing on SNAP: the paper's primary application (§IV).

A phrasal parser (serial, controller-resident) chunks newswire
sentences; the memory-based parser then parses each chunk by marker
propagation over the "terrorism in Latin America" knowledge base,
resolving competing hypotheses with cancel markers.
"""

from .lexicon import CORE_VOCABULARY, LexEntry, Lexicon, POS, tokenize
from .kbgen import (
    AUX_SEQUENCES,
    CORE_SEQUENCES,
    DOMAIN_HIERARCHY,
    DOMAIN_SYNTAX,
    DomainKB,
    build_domain_kb,
)
from .phrasal import Phrase, PhraseKind, PhrasalParser, PhrasalResult
from .parser import MemoryBasedParser, ParseResult, ALL_PARSE_MARKERS
from .extraction import EventTemplate, extract_template
from .corpus import MUC4_SENTENCES, NEWSWIRE_PASSAGE, sentences

__all__ = [
    "CORE_VOCABULARY", "LexEntry", "Lexicon", "POS", "tokenize",
    "AUX_SEQUENCES", "CORE_SEQUENCES", "DOMAIN_HIERARCHY",
    "DOMAIN_SYNTAX", "DomainKB", "build_domain_kb",
    "Phrase", "PhraseKind", "PhrasalParser", "PhrasalResult",
    "MemoryBasedParser", "ParseResult", "ALL_PARSE_MARKERS",
    "EventTemplate", "extract_template",
    "MUC4_SENTENCES", "NEWSWIRE_PASSAGE", "sentences",
]
