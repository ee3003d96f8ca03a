"""Information extraction: from parse to MUC-style event template.

The paper's application *"accepts newswire text as input and generates
the meaning of the sentence as output"* (§IV) — i.e. a filled event
template in the MUC-4 style (who did what to whom, where, when).  This
module turns a :class:`~repro.apps.nlu.parser.ParseResult` into that
meaning representation:

* the **event type** is the winning concept sequence;
* each confirmed element of the winner becomes a **role**, filled with
  the sentence words whose semantic classes licensed it (recovered
  through the marker *origin addresses* — the 15-bit origin field that
  complex markers carry precisely so results can be bound back to
  their sources, Fig. 4);
* completed auxiliary sequences contribute **time/location modifiers**.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .kbgen import DomainKB
from .lexicon import tokenize
from .parser import ParseResult


@dataclass
class EventTemplate:
    """A filled MUC-style event template."""

    event_type: str
    confidence_cost: float
    #: role (element short name) -> filler words from the sentence.
    roles: Dict[str, List[str]] = field(default_factory=dict)
    #: Modifier constituents (time-case, location-case) with fillers.
    modifiers: Dict[str, List[str]] = field(default_factory=dict)
    sentence: str = ""

    def render(self) -> str:
        """Human-readable text rendering."""
        lines = [f"event: {self.event_type} (cost {self.confidence_cost})"]
        for role, fillers in self.roles.items():
            lines.append(f"  {role:<12} = {' '.join(fillers) or '?'}")
        for modifier, fillers in self.modifiers.items():
            lines.append(f"  [{modifier}]   = {' '.join(fillers) or '?'}")
        return "\n".join(lines)


def _classes_of_word(kb: DomainKB, word: str) -> Set[str]:
    """Transitive is-a closure of a word's classes in the KB."""
    network = kb.network
    name = f"w:{word.lower()}"
    if name not in network:
        return set()
    closure: Set[str] = set()
    frontier = [network.resolve(name)]
    while frontier:
        nid = frontier.pop()
        for link in network.outgoing_by_relation(nid, "is-a"):
            dest = network.node(link.dest).name
            if dest not in closure:
                closure.add(dest)
                frontier.append(network.resolve(dest))
    return closure


def _element_constraints(kb: DomainKB, element: str) -> Set[str]:
    """The classes an element constrains on (its is-a links)."""
    network = kb.network
    return {
        network.node(link.dest).name
        for link in network.outgoing_by_relation(element, "is-a")
    }


def _ordered_elements(kb: DomainKB, root: str) -> List[str]:
    """A concept sequence's elements in first/next order."""
    network = kb.network
    out: List[str] = []
    first = network.outgoing_by_relation(root, "first")
    if not first:
        return out
    current = network.node(first[0].dest).name
    seen: Set[str] = set()
    while current and current not in seen:
        seen.add(current)
        out.append(current)
        nxt = network.outgoing_by_relation(current, "next")
        current = network.node(nxt[0].dest).name if nxt else None
    return out


def extract_template(
    result: ParseResult, kb: DomainKB
) -> Optional[EventTemplate]:
    """Build the event template for a parse (None if nothing won)."""
    if result.winner is None:
        return None
    template = EventTemplate(
        event_type=result.winner,
        confidence_cost=result.cost if result.cost is not None else 0.0,
        sentence=result.sentence,
    )
    words = tokenize(result.sentence)
    word_classes = {word: _classes_of_word(kb, word) for word in words}
    confirmed = {name for name, _cost, _origin in result.binding_details}

    # Elements fill in sequence order and sentence order jointly: the
    # i-th confirmed element takes the earliest matching word after
    # the previous element's filler (concept sequences encode word
    # order, which is how two human-constrained roles like
    # kidnapper/victim disambiguate).
    prefix = f"{result.winner}."
    cursor = 0
    for element in _ordered_elements(kb, result.winner):
        if element not in confirmed:
            continue
        role = element[len(prefix):]
        constraints = _element_constraints(kb, element)
        filler: List[str] = []
        for position in range(cursor, len(words)):
            if word_classes[words[position]] & constraints:
                filler = [words[position]]
                cursor = position + 1
                break
        if not filler:
            # No positional match (e.g. scrambled input): fall back to
            # any matching word.
            filler = [
                w for w in words if word_classes[w] & constraints
            ][:1]
        template.roles[role] = filler

    for aux in dict.fromkeys(result.auxiliaries):
        constraints: Set[str] = set()
        for name, _cost, _origin in result.binding_details:
            if name.startswith(f"{aux}."):
                constraints |= _element_constraints(kb, name)
        if not constraints:
            # Fall back to the aux sequence's own first element.
            network = kb.network
            first = network.outgoing_by_relation(aux, "first")
            if first:
                constraints = _element_constraints(
                    kb, network.node(first[0].dest).name
                )
        template.modifiers[aux] = [
            word for word in words if word_classes[word] & constraints
        ]
    return template
