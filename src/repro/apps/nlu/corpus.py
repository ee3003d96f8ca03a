"""MUC-4-style evaluation sentences (paper Table III).

The paper parses newswire sentences from the MUC-4 "terrorism in Latin
America" corpus; the originals are not reprinted in the paper, so this
module provides four newswire-style sentences (S1–S4) of increasing
length built from the domain vocabulary, preserving the property the
paper measures: *"the overall execution time is roughly proportional
to the sentence length in words"* (§IV).
"""

from __future__ import annotations

from typing import List, Tuple

#: Table III stand-ins: id -> sentence.  Lengths step roughly evenly
#: so the length-vs-time proportionality is measurable.
MUC4_SENTENCES: Tuple[Tuple[str, str], ...] = (
    ("S1", "terrorists attacked the mayor in bogota yesterday"),
    ("S2",
     "guerrillas bombed the embassy of colombia and killed two civilians"),
    ("S3",
     "several armed men kidnapped the ambassador near the residence "
     "in lima on monday morning"),
    ("S4",
     "the army reported unidentified terrorists exploded a powerful bomb "
     "against the pipeline and damaged several vehicles in medellin "
     "yesterday night"),
)


def sentences() -> List[str]:
    """The sentence texts, in Table III order."""
    return [text for _sid, text in MUC4_SENTENCES]


#: A longer newswire passage for bulk-text-understanding runs
#: ("we have processed tens of pages of newswire text", §I-B).
NEWSWIRE_PASSAGE: Tuple[str, ...] = (
    "terrorists bombed the embassy in bogota",
    "the explosion damaged several vehicles near the residence",
    "guerrillas claimed responsibility for the attack",
    "the army reported three casualties in the city",
    "unidentified men kidnapped a judge in medellin yesterday",
    "police found weapons and dynamite in the neighborhood",
    "the president announced a statement against the guerrillas",
    "soldiers attacked the rebels near the bridge on monday",
    "the attack occurred in downtown lima this morning",
    "journalists saw the damage at the headquarters",
)
