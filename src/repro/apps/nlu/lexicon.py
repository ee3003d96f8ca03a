"""Lexicon for the newswire NLU domain.

The paper's evaluation application *"accepts newswire text as input
and generates the meaning of the sentence as output ... by passing
markers through a knowledge base about terrorism in Latin America"*
(§IV), the MUC-4 task.  This module provides the lexical layer: a
hand-built core vocabulary for that domain with part-of-speech and
semantic-class assignments, plus an open-class fallback so arbitrary
newswire-like sentences tokenize and tag deterministically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple


class POS:
    """Part-of-speech tags used by the phrasal parser."""

    NOUN = "noun"
    VERB = "verb"
    DET = "determiner"
    ADJ = "adjective"
    ADV = "adverb"
    PREP = "preposition"
    PRON = "pronoun"
    CONJ = "conjunction"
    NUM = "number"


@dataclass(frozen=True)
class LexEntry:
    """One word: its part of speech and semantic classes."""

    word: str
    pos: str
    #: Semantic classes in the concept-type hierarchy (e.g. *human*,
    #: *attack-act*); the word's lexical node links ``is-a`` to these.
    classes: Tuple[str, ...] = ()

    @property
    def syntax_class(self) -> str:
        """The syntactic category node this word activates."""
        return _POS_SYNTAX[self.pos]


_POS_SYNTAX = {
    POS.NOUN: "noun",
    POS.VERB: "verb",
    POS.DET: "determiner",
    POS.ADJ: "adjective",
    POS.ADV: "adverb",
    POS.PREP: "preposition",
    POS.PRON: "noun",       # pronouns head noun phrases
    POS.CONJ: "conjunction",
    POS.NUM: "adjective",
}

#: The hand-built core vocabulary: (word, pos, semantic classes).
CORE_VOCABULARY: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    # --- actors ----------------------------------------------------------
    ("terrorists", POS.NOUN, ("terrorist", "human", "animate")),
    ("terrorist", POS.NOUN, ("terrorist", "human", "animate")),
    ("guerrillas", POS.NOUN, ("guerrilla", "human", "animate")),
    ("guerrilla", POS.NOUN, ("guerrilla", "human", "animate")),
    ("rebels", POS.NOUN, ("guerrilla", "human", "animate")),
    ("soldiers", POS.NOUN, ("military", "human", "animate")),
    ("army", POS.NOUN, ("military", "organization")),
    ("police", POS.NOUN, ("authority", "organization")),
    ("government", POS.NOUN, ("authority", "organization")),
    ("mayor", POS.NOUN, ("official", "human", "animate")),
    ("president", POS.NOUN, ("official", "human", "animate")),
    ("ambassador", POS.NOUN, ("official", "human", "animate")),
    ("judge", POS.NOUN, ("official", "human", "animate")),
    ("civilians", POS.NOUN, ("civilian", "human", "animate")),
    ("peasants", POS.NOUN, ("civilian", "human", "animate")),
    ("journalists", POS.NOUN, ("civilian", "human", "animate")),
    ("group", POS.NOUN, ("organization",)),
    ("men", POS.NOUN, ("human", "animate")),
    ("we", POS.PRON, ("human", "animate")),
    ("they", POS.PRON, ("human", "animate")),
    # --- targets / objects -------------------------------------------------
    ("embassy", POS.NOUN, ("building", "target")),
    ("headquarters", POS.NOUN, ("building", "target")),
    ("office", POS.NOUN, ("building", "target")),
    ("residence", POS.NOUN, ("building", "target")),
    ("pipeline", POS.NOUN, ("infrastructure", "target")),
    ("bridge", POS.NOUN, ("infrastructure", "target")),
    ("vehicle", POS.NOUN, ("vehicle", "target")),
    ("vehicles", POS.NOUN, ("vehicle", "target")),
    ("car", POS.NOUN, ("vehicle", "target")),
    ("bus", POS.NOUN, ("vehicle", "target")),
    ("bomb", POS.NOUN, ("weapon",)),
    ("dynamite", POS.NOUN, ("weapon",)),
    ("weapons", POS.NOUN, ("weapon",)),
    ("attack", POS.NOUN, ("attack-act", "event-noun")),
    ("attacks", POS.NOUN, ("attack-act", "event-noun")),
    ("explosion", POS.NOUN, ("attack-act", "event-noun")),
    ("kidnapping", POS.NOUN, ("kidnap-act", "event-noun")),
    ("murder", POS.NOUN, ("kill-act", "event-noun")),
    ("statement", POS.NOUN, ("communication",)),
    ("responsibility", POS.NOUN, ("communication",)),
    ("damage", POS.NOUN, ("effect",)),
    ("casualties", POS.NOUN, ("effect",)),
    # --- places / times ----------------------------------------------------
    ("bogota", POS.NOUN, ("city", "place")),
    ("lima", POS.NOUN, ("city", "place")),
    ("medellin", POS.NOUN, ("city", "place")),
    ("salvador", POS.NOUN, ("city", "place")),
    ("colombia", POS.NOUN, ("country", "place")),
    ("peru", POS.NOUN, ("country", "place")),
    ("city", POS.NOUN, ("place",)),
    ("neighborhood", POS.NOUN, ("place",)),
    ("yesterday", POS.NOUN, ("time-expr",)),
    ("today", POS.NOUN, ("time-expr",)),
    ("morning", POS.NOUN, ("time-expr",)),
    ("night", POS.NOUN, ("time-expr",)),
    ("monday", POS.NOUN, ("time-expr",)),
    # --- verbs -------------------------------------------------------------
    ("attacked", POS.VERB, ("attack-act",)),
    ("bombed", POS.VERB, ("attack-act",)),
    ("exploded", POS.VERB, ("attack-act",)),
    ("destroyed", POS.VERB, ("attack-act",)),
    ("damaged", POS.VERB, ("attack-act",)),
    ("kidnapped", POS.VERB, ("kidnap-act",)),
    ("abducted", POS.VERB, ("kidnap-act",)),
    ("killed", POS.VERB, ("kill-act",)),
    ("murdered", POS.VERB, ("kill-act",)),
    ("assassinated", POS.VERB, ("kill-act",)),
    ("injured", POS.VERB, ("kill-act",)),
    ("claimed", POS.VERB, ("statement-act",)),
    ("reported", POS.VERB, ("statement-act",)),
    ("announced", POS.VERB, ("statement-act",)),
    ("said", POS.VERB, ("statement-act",)),
    ("occurred", POS.VERB, ("happen-act",)),
    ("took", POS.VERB, ("happen-act",)),
    ("place", POS.NOUN, ("place",)),
    ("saw", POS.VERB, ("see-act",)),
    ("found", POS.VERB, ("see-act",)),
    # --- function words -----------------------------------------------------
    ("the", POS.DET, ()),
    ("a", POS.DET, ()),
    ("an", POS.DET, ()),
    ("this", POS.DET, ()),
    ("several", POS.DET, ()),
    ("two", POS.NUM, ()),
    ("three", POS.NUM, ()),
    ("five", POS.NUM, ()),
    ("in", POS.PREP, ()),
    ("at", POS.PREP, ()),
    ("on", POS.PREP, ()),
    ("of", POS.PREP, ()),
    ("near", POS.PREP, ()),
    ("against", POS.PREP, ()),
    ("with", POS.PREP, ()),
    ("for", POS.PREP, ()),
    ("by", POS.PREP, ()),
    ("and", POS.CONJ, ()),
    ("powerful", POS.ADJ, ()),
    ("armed", POS.ADJ, ()),
    ("unidentified", POS.ADJ, ()),
    ("urban", POS.ADJ, ()),
    ("downtown", POS.ADJ, ()),
    ("heavily", POS.ADV, ()),
    ("reportedly", POS.ADV, ()),
)


class Lexicon:
    """Word → lexical entry lookup with open-class fallback."""

    def __init__(
        self,
        entries: Iterable[Tuple[str, str, Tuple[str, ...]]] = CORE_VOCABULARY,
    ) -> None:
        self._entries: Dict[str, LexEntry] = {}
        for word, pos, classes in entries:
            self.add(word, pos, classes)

    def add(
        self, word: str, pos: str, classes: Sequence[str] = ()
    ) -> LexEntry:
        """Append one entry."""
        entry = LexEntry(word.lower(), pos, tuple(classes))
        self._entries[entry.word] = entry
        return entry

    def lookup(self, word: str) -> LexEntry:
        """Entry for ``word``; unknown words default to generic nouns.

        The open-class fallback keeps arbitrary newswire input
        parseable, as the MUC systems did.
        """
        key = word.lower()
        entry = self._entries.get(key)
        if entry is not None:
            return entry
        return LexEntry(key, POS.NOUN, ("entity",))

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def words(self) -> List[str]:
        """All words, sorted."""
        return sorted(self._entries)

    def entries(self) -> List[LexEntry]:
        """All lexical entries, sorted by word."""
        return [self._entries[w] for w in sorted(self._entries)]


_TOKEN_RE = re.compile(r"[a-zA-Z]+|\d+")


def tokenize(sentence: str) -> List[str]:
    """Lowercased word tokens (punctuation stripped)."""
    return [t.lower() for t in _TOKEN_RE.findall(sentence)]
