"""Knowledge-base generator for the newswire NLU domain.

Builds the "terrorism in Latin America" knowledge base at a requested
size.  The core is hand-built: a concept-type hierarchy covering the
domain's actors, acts, targets, places and times; syntactic
categories; and the basic concept sequences (attack-event,
kidnap-event, ... plus the paper's Fig. 1 seeing-event) with auxiliary
time-case and location-case sequences.  The lexical layer comes from
:mod:`repro.apps.nlu.lexicon`.

To reach the evaluation sizes (the paper measures 5 K- and 9 K-node
KBs, and the full application uses ~12 K nodes / 48 K links), the core
is padded with *filler knowledge* of the published layer mix — extra
hierarchy concepts and extra concept sequences whose elements
constrain on the **core** classes.  Filler sequences therefore
activate during parsing and must be cancelled during multiple-
hypothesis resolution, which is exactly why the paper's propagation
count grows with KB size (Fig. 20).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from ...network.builder import KnowledgeBaseBuilder
from ...network.graph import SemanticNetwork
from ...network.node import Color
from .lexicon import CORE_VOCABULARY, Lexicon

#: Concept-type hierarchy of the domain: (class, parents).
DOMAIN_HIERARCHY: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    # The hierarchy is deliberately deep (7-9 levels from the lexical
    # layer to the root): the paper reports maximum propagation path
    # distances of 10-15 steps through its knowledge base (§IV).
    ("thing", ()),
    ("living-thing", ("thing",)),
    ("organism", ("living-thing",)),
    ("animate", ("organism",)),
    ("person", ("animate",)),
    ("human", ("person",)),
    ("combatant", ("human",)),
    ("terrorist", ("combatant",)),
    ("guerrilla", ("combatant",)),
    ("military", ("combatant",)),
    ("public-figure", ("human",)),
    ("official", ("public-figure",)),
    ("civilian", ("human",)),
    ("social-entity", ("thing",)),
    ("organization", ("social-entity",)),
    ("authority", ("organization",)),
    ("physical", ("thing",)),
    ("physical-object", ("physical",)),
    ("artifact", ("physical-object",)),
    ("target", ("artifact",)),
    ("structure", ("target",)),
    ("building", ("structure",)),
    ("infrastructure", ("structure",)),
    ("conveyance", ("target",)),
    ("vehicle", ("conveyance",)),
    ("device", ("artifact",)),
    ("weapon", ("device",)),
    ("region", ("physical",)),
    ("place", ("region",)),
    ("settlement", ("place",)),
    ("city", ("settlement",)),
    ("country", ("place",)),
    ("abstraction", ("thing",)),
    ("time-expr", ("abstraction",)),
    ("action", ("abstraction",)),
    ("event-noun", ("action",)),
    ("violent-act", ("event-noun",)),
    ("attack-act", ("violent-act",)),
    ("kidnap-act", ("violent-act",)),
    ("kill-act", ("violent-act",)),
    ("speech-act", ("event-noun",)),
    ("statement-act", ("speech-act",)),
    ("perception-act", ("event-noun",)),
    ("see-act", ("perception-act",)),
    ("happen-act", ("event-noun",)),
    ("communication", ("abstraction",)),
    ("effect", ("abstraction",)),
    ("entity", ("thing",)),
)

#: Syntactic categories (middle layer of Fig. 1).
DOMAIN_SYNTAX: Tuple[str, ...] = (
    "noun", "verb", "determiner", "adjective", "adverb",
    "preposition", "conjunction", "noun-phrase", "verb-phrase",
    "prep-phrase",
)

#: Basic concept sequences: (name, cost, ((element, constraints), ...)).
#: Lower cost = preferred reading; costs are the link weights markers
#: accumulate, so the winning hypothesis is the cheapest completed one.
CORE_SEQUENCES: Tuple[Tuple[str, float, Tuple[Tuple[str, Tuple[str, ...]], ...]], ...] = (
    ("attack-event", 1.0, (
        ("attacker", ("human",)),
        ("attack", ("attack-act",)),
        ("victim", ("target", "human")),
    )),
    ("bombing-event", 1.05, (
        ("agent", ("human",)),
        ("bombing", ("attack-act",)),
        ("device", ("weapon",)),
    )),
    ("kill-event", 1.1, (
        ("killer", ("human",)),
        ("kill", ("kill-act",)),
        ("victim", ("human",)),
    )),
    ("kidnap-event", 1.2, (
        ("kidnapper", ("human",)),
        ("kidnap", ("kidnap-act",)),
        ("victim", ("human",)),
    )),
    ("statement-event", 1.3, (
        ("speaker", ("human",)),
        ("statement", ("statement-act",)),
        ("content", ("communication",)),
    )),
    ("casualty-report", 1.25, (
        ("reporter", ("human", "organization")),
        ("report", ("statement-act",)),
        ("effect", ("effect",)),
    )),
    ("damage-event", 1.15, (
        ("cause", ("event-noun",)),
        ("damage", ("attack-act",)),
        ("damaged", ("target",)),
    )),
    ("discovery-event", 1.35, (
        ("finder", ("human", "organization")),
        ("find", ("see-act",)),
        ("found", ("physical",)),
    )),
    # The paper's Fig. 1 example.
    ("seeing-event", 1.4, (
        ("experiencer", ("animate", "noun-phrase")),
        ("see", ("see-act",)),
        ("object", ("thing",)),
    )),
    ("happening-event", 1.5, (
        ("event", ("event-noun",)),
        ("happen", ("happen-act",)),
        ("location", ("place",)),
    )),
)

#: Auxiliary concept sequences (optional constituents of Fig. 1:
#: "the time-case concept sequence is combined with a ... basic
#: concept sequence to indicate when it happened").
AUX_SEQUENCES: Tuple[Tuple[str, float, Tuple[Tuple[str, Tuple[str, ...]], ...], str], ...] = (
    ("time-case", 0.5, (("when", ("time-expr",)),), "attack-event"),
    ("location-case", 0.5, (("where", ("place",)),), "attack-event"),
)

#: Core classes filler sequences may constrain on — this is what makes
#: them activate (and need cancelling) on real sentences.
FILLER_CONSTRAINT_POOL: Tuple[str, ...] = (
    "human", "target", "place", "attack-act", "weapon", "organization",
    "time-expr", "event-noun", "thing",
)


@dataclass
class DomainKB:
    """The built knowledge base plus its application-level indexes."""

    network: SemanticNetwork
    lexicon: Lexicon
    #: Names of basic concept-sequence roots (core + filler).
    cs_roots: List[str]
    #: Names of the hand-built core sequences.
    core_roots: List[str]
    target_nodes: int = 0

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self.network.num_nodes

    @property
    def num_links(self) -> int:
        """Number of links."""
        return self.network.num_links

    def has_word(self, word: str) -> bool:
        """Whether the word has a lexical node in this KB."""
        return f"w:{word.lower()}" in self.network


def build_domain_kb(
    total_nodes: int = 5000,
    seed: int = 11,
    filler_constraint_bias: float = 0.35,
) -> DomainKB:
    """Build the newswire KB padded to approximately ``total_nodes``.

    ``filler_constraint_bias`` is the probability that a filler
    concept-sequence element constrains on a *core* class (making it a
    competing hypothesis on real input) rather than on inert filler
    classes.
    """
    rng = random.Random(seed)
    builder = KnowledgeBaseBuilder()
    lexicon = Lexicon()

    # --- core hierarchy + syntax ----------------------------------------
    for name, parents in DOMAIN_HIERARCHY:
        builder.add_class(name, parents, color=Color.SEMANTIC)
    for name in DOMAIN_SYNTAX:
        builder.add_syntax_class(name)

    # --- core concept sequences ------------------------------------------
    core_roots: List[str] = []
    for name, cost, elements in CORE_SEQUENCES:
        builder.add_concept_sequence(name, elements, cost=cost)
        core_roots.append(name)
    for name, cost, elements, attaches_to in AUX_SEQUENCES:
        builder.add_concept_sequence(name, elements, auxiliary=True, cost=cost)
        builder.network.add_link(name, "aux", attaches_to)

    # --- lexical layer ------------------------------------------------------
    for word, pos, classes in CORE_VOCABULARY:
        entry = lexicon.lookup(word)
        builder.add_word(word, tuple(classes) + (entry.syntax_class,))

    cs_roots = list(core_roots)
    network = builder.network

    # --- filler to target size (paper layer mix) -------------------------
    deficit = total_nodes - network.num_nodes
    if deficit > 0:
        n_hier = int(deficit * 0.15)
        n_cs = int(deficit * 0.75)
        n_aux = int(deficit * 0.05)
        n_lex = deficit - n_hier - n_cs - n_aux

        # Filler hierarchy: subtrees under core classes.
        filler_leaves: List[str] = []
        hierarchy_roots = [name for name, _ in DOMAIN_HIERARCHY]
        for i in range(n_hier):
            # Chaining mostly onto existing filler leaves keeps the
            # taxonomy deep, matching the paper's 10-15 step paths.
            parent = (
                rng.choice(filler_leaves)
                if filler_leaves and rng.random() < 0.7
                else rng.choice(hierarchy_roots)
            )
            name = f"fc-{i}"
            builder.add_class(name, (parent,), color=Color.SEMANTIC)
            filler_leaves.append(name)
        if not filler_leaves:
            filler_leaves = ["entity"]

        # Filler concept sequences.
        used = 0
        index = 0
        while used + 3 <= n_cs:
            k = rng.randint(2, 4)
            k = min(k, n_cs - used - 1)
            elements = []
            for e in range(k):
                if rng.random() < filler_constraint_bias:
                    constraint = rng.choice(FILLER_CONSTRAINT_POOL)
                else:
                    constraint = rng.choice(filler_leaves)
                elements.append((f"e{e}", (constraint,)))
            name = f"fcs-{index}"
            builder.add_concept_sequence(
                name, elements, cost=round(rng.uniform(2.5, 4.0), 3)
            )
            cs_roots.append(name)
            used += 1 + k
            index += 1

        # Filler auxiliary sequences.
        used = 0
        index = 0
        while used + 2 <= n_aux:
            constraint = rng.choice(filler_leaves)
            name = f"faux-{index}"
            builder.add_concept_sequence(
                name, ((f"a0", (constraint,)),), auxiliary=True,
                cost=round(rng.uniform(0.5, 1.0), 3),
            )
            builder.network.add_link(name, "aux", rng.choice(cs_roots))
            used += 2
            index += 1

        # Filler lexicon: open-class vocabulary mapped into the filler
        # hierarchy.
        for i in range(max(0, n_lex)):
            word = f"xword{i}"
            classes = (rng.choice(filler_leaves), "noun")
            builder.add_word(word, classes)
            lexicon.add(word, "noun", classes[:1])

    network.validate()
    return DomainKB(
        network=network,
        lexicon=lexicon,
        cs_roots=cs_roots,
        core_roots=core_roots,
        target_nodes=total_nodes,
    )
