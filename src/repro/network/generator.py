"""Synthetic knowledge-base generator.

Produces layered linguistic knowledge bases with the statistical
profile of the paper's hand-built KB (§I-B): a lexicon at the bottom, a
concept-type hierarchy and syntactic patterns in the middle, and
concept sequences on top, with nonlexical proportions of roughly
75 % concept sequences / 15 % hierarchy / 5 % syntax / 5 % auxiliary
and a mean fanout near 4 (the evaluation KB had 12 000 nodes and
48 000 links).

Generation is deterministic for a given seed (``random.Random``), so
every experiment is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .builder import KnowledgeBaseBuilder
from .graph import SemanticNetwork
from .node import Color


@dataclass
class GeneratorSpec:
    """Parameters controlling synthetic KB generation.

    Defaults reproduce the statistical shape of the paper's
    "terrorism in Latin America" evaluation knowledge base.
    """

    #: Total node budget (lexical + nonlexical), before fanout split.
    total_nodes: int = 12_000
    #: Fraction of nodes that are lexical (10K words / ~30K total ≈ 1/3).
    lexical_fraction: float = 0.33
    #: Nonlexical mix (paper §I-B).
    cs_fraction: float = 0.75
    hierarchy_fraction: float = 0.15
    syntax_fraction: float = 0.05
    aux_fraction: float = 0.05
    #: Branching factor of the concept-type hierarchy.
    hierarchy_branching: int = 4
    #: Elements per basic concept sequence (min, max), inclusive.
    cs_elements: Tuple[int, int] = (2, 5)
    #: Constraints per concept-sequence element (min, max).
    constraints_per_element: Tuple[int, int] = (1, 2)
    #: ``is-a`` parents per word (min, max).
    classes_per_word: Tuple[int, int] = (1, 3)
    #: Random seed.
    seed: int = 1991

    def __post_init__(self) -> None:
        total = (
            self.cs_fraction
            + self.hierarchy_fraction
            + self.syntax_fraction
            + self.aux_fraction
        )
        if abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"nonlexical fractions must sum to 1.0 (got {total})"
            )
        if self.total_nodes < 50:
            raise ValueError("total_nodes too small for a layered KB")


#: Root of every generated concept-type hierarchy.
HIERARCHY_ROOT = "thing"

#: Core syntactic classes every generated KB contains.
BASE_SYNTAX_CLASSES = (
    "noun-phrase",
    "verb-phrase",
    "prep-phrase",
    "determiner",
    "adjective",
    "adverb",
    "noun",
    "verb",
    "preposition",
)


def _make_hierarchy(
    builder: KnowledgeBaseBuilder, count: int, branching: int, rng: random.Random
) -> List[str]:
    """Build a concept-type tree of ``count`` nodes; return leaf names."""
    builder.add_class(HIERARCHY_ROOT, (), color=Color.SEMANTIC)
    names = [HIERARCHY_ROOT]
    children: Dict[str, int] = {HIERARCHY_ROOT: 0}
    frontier = [HIERARCHY_ROOT]
    for i in range(1, count):
        parent = frontier[0]
        name = f"concept-{i}"
        builder.add_class(name, (parent,), color=Color.SEMANTIC)
        names.append(name)
        children[parent] = children.get(parent, 0) + 1
        children[name] = 0
        frontier.append(name)
        if children[parent] >= branching:
            frontier.pop(0)
    leaves = [n for n in names if children.get(n, 0) == 0]
    return leaves or names


def _make_syntax(
    builder: KnowledgeBaseBuilder, count: int, rng: random.Random
) -> List[str]:
    """Build syntactic pattern classes; return all class names."""
    classes = list(BASE_SYNTAX_CLASSES)
    builder.add_syntax_class("syntax-root")
    for cls in BASE_SYNTAX_CLASSES:
        builder.add_syntax_class(cls, ("syntax-root",))
    for i in range(max(0, count - len(BASE_SYNTAX_CLASSES) - 1)):
        parent = rng.choice(classes)
        name = f"syn-{i}"
        builder.add_syntax_class(name, (parent,))
        classes.append(name)
    return classes


def generate_kb(spec: Optional[GeneratorSpec] = None) -> SemanticNetwork:
    """Generate a layered knowledge base matching ``spec``.

    The returned network is *logical*; callers load it into a machine,
    which applies the fanout pre-processor.
    """
    spec = spec or GeneratorSpec()
    rng = random.Random(spec.seed)
    builder = KnowledgeBaseBuilder()

    num_lexical = int(spec.total_nodes * spec.lexical_fraction)
    nonlexical = spec.total_nodes - num_lexical
    num_hierarchy = max(2, int(nonlexical * spec.hierarchy_fraction))
    num_syntax = max(
        len(BASE_SYNTAX_CLASSES) + 1, int(nonlexical * spec.syntax_fraction)
    )
    num_cs_nodes = max(3, int(nonlexical * spec.cs_fraction))
    num_aux_nodes = max(3, int(nonlexical * spec.aux_fraction))

    leaves = _make_hierarchy(
        builder, num_hierarchy, spec.hierarchy_branching, rng
    )
    syntax_classes = _make_syntax(builder, num_syntax, rng)

    # Basic concept sequences: each consumes 1 root + k element nodes.
    def add_sequences(prefix: str, budget: int, auxiliary: bool) -> List[str]:
        roots: List[str] = []
        used = 0
        index = 0
        while used + 1 + spec.cs_elements[0] <= budget:
            k = rng.randint(*spec.cs_elements)
            k = min(k, budget - used - 1)
            if k < 1:
                break
            elements = []
            for e in range(k):
                n_constraints = rng.randint(*spec.constraints_per_element)
                constraints = [rng.choice(leaves)]
                if n_constraints > 1:
                    constraints.append(rng.choice(syntax_classes))
                elements.append((f"e{e}", constraints))
            name = f"{prefix}-{index}"
            builder.add_concept_sequence(
                name,
                elements,
                auxiliary=auxiliary,
                cost=round(rng.uniform(0.5, 2.0), 3),
            )
            roots.append(name)
            used += 1 + k
            index += 1
        return roots

    cs_roots = add_sequences("cs", num_cs_nodes, auxiliary=False)
    aux_roots = add_sequences("aux", num_aux_nodes, auxiliary=True)

    # Attach auxiliary sequences to basic ones (e.g. time-case modifies
    # seeing-event).
    for aux in aux_roots:
        target = rng.choice(cs_roots) if cs_roots else HIERARCHY_ROOT
        builder.network.add_link(aux, "aux", target)

    # Lexicon: each word is-a one or more hierarchy leaves + a syntax
    # class, mirroring "the word *we* connects to *animate* and
    # *noun-phrase*".
    for i in range(num_lexical):
        n_classes = rng.randint(*spec.classes_per_word)
        classes = [rng.choice(leaves)]
        classes.append(rng.choice(syntax_classes))
        for _ in range(max(0, n_classes - 2)):
            classes.append(rng.choice(leaves))
        builder.add_word(f"word{i}", classes, weight=round(rng.uniform(0, 1), 3))

    network = builder.build(physical=False)
    network.validate()
    return network


def generate_hierarchy_kb(
    num_nodes: int,
    branching: int = 4,
    properties_at_root: int = 4,
    seed: int = 7,
) -> SemanticNetwork:
    """A pure concept hierarchy for inheritance workloads (Fig. 15).

    ``num_nodes`` concepts in a ``branching``-ary tree; the root holds
    ``properties_at_root`` property nodes whose values leaves inherit.
    Every node links ``is-a`` to its parent, and the *root-to-leaf*
    inheritance propagates along the inverse direction installed here
    as ``inverse:is-a`` links.
    """
    builder = KnowledgeBaseBuilder()
    builder.add_class(HIERARCHY_ROOT, (), color=Color.SEMANTIC)
    network = builder.network
    names = [HIERARCHY_ROOT]
    for i in range(1, num_nodes):
        parent = names[(i - 1) // branching]
        name = f"c{i}"
        builder.add_class(name, (parent,), color=Color.SEMANTIC)
        network.add_link(parent, "inverse:is-a", name)
        names.append(name)
    for p in range(properties_at_root):
        builder.add_property(HIERARCHY_ROOT, f"attr{p}")
    network.validate()
    return network
