"""Layered organization of the linguistic knowledge base (paper Fig. 1).

The SNAP knowledge base is organized hierarchically into layers:

1. the **lexical layer** at the bottom — all words in the vocabulary;
2. **semantic and syntactic constraints** in the middle;
3. **concept sequences** at the highest layer.

This module gives those layers a first-class representation used by the
synthetic generator and by KB statistics/validation: which colors
belong to which layer, the paper's published layer proportions, and
checks that a knowledge base respects the layering (e.g. lexical nodes
only link upward).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from .graph import SemanticNetwork
from .node import Color


@dataclass(frozen=True)
class Layer:
    """A named knowledge-base layer covering a set of node colors."""

    name: str
    colors: Tuple[int, ...]
    level: int  # 0 = bottom (lexical)

    def contains(self, color: int) -> bool:
        """Whether a color belongs to this layer."""
        return color in self.colors


#: The three layers of Fig. 1, bottom to top.
LEXICAL_LAYER = Layer("lexical", (Color.LEXICAL,), 0)
CONSTRAINT_LAYER = Layer(
    "constraints", (Color.SYNTAX, Color.SEMANTIC, Color.PROPERTY), 1
)
CONCEPT_SEQUENCE_LAYER = Layer(
    "concept-sequences",
    (Color.CS_ROOT, Color.CS_ELEMENT, Color.CS_AUX),
    2,
)

LAYERS: Tuple[Layer, ...] = (
    LEXICAL_LAYER,
    CONSTRAINT_LAYER,
    CONCEPT_SEQUENCE_LAYER,
)

#: Paper §I-B: proportions of the ~20K *nonlexical* concepts.
#: "Roughly 15K nodes (75%) represent basic concept sequences, 3K (15%)
#: compose the concept-type hierarchy, 1K (5%) form syntactic patterns,
#: and 1K (5%) are used for auxiliary concept storage."
PAPER_NONLEXICAL_PROPORTIONS: Mapping[str, float] = {
    "concept-sequences": 0.75,
    "hierarchy": 0.15,
    "syntax": 0.05,
    "auxiliary": 0.05,
}


def layer_of_color(color: int) -> Layer:
    """The layer a node color belongs to (generic colors → constraints)."""
    for layer in LAYERS:
        if layer.contains(color):
            return layer
    return CONSTRAINT_LAYER


def layer_histogram(network: SemanticNetwork) -> Dict[str, int]:
    """Node counts per layer (subnodes counted with their layer's parent)."""
    hist: Dict[str, int] = {layer.name: 0 for layer in LAYERS}
    hist["subnodes"] = 0
    for node in network.nodes():
        if node.is_subnode:
            hist["subnodes"] += 1
        else:
            hist[layer_of_color(node.color).name] += 1
    return hist


def nonlexical_proportions(network: SemanticNetwork) -> Dict[str, float]:
    """Measured proportions comparable to the paper's published mix."""
    counts = {
        "concept-sequences": 0,
        "hierarchy": 0,
        "syntax": 0,
        "auxiliary": 0,
    }
    for node in network.nodes():
        if node.is_subnode or node.color == Color.LEXICAL:
            continue
        if node.color in (Color.CS_ROOT, Color.CS_ELEMENT):
            counts["concept-sequences"] += 1
        elif node.color == Color.CS_AUX:
            counts["auxiliary"] += 1
        elif node.color == Color.SYNTAX:
            counts["syntax"] += 1
        else:
            counts["hierarchy"] += 1
    total = sum(counts.values())
    if total == 0:
        return {k: 0.0 for k in counts}
    return {k: v / total for k, v in counts.items()}


def layering_violations(network: SemanticNetwork) -> List[str]:
    """Return descriptions of links that break the layer discipline.

    The discipline checked: lexical nodes never receive ``is-a`` links
    (they are the bottom of the hierarchy).
    """
    violations: List[str] = []
    is_a = network.relations.get("is-a")
    if is_a is None:
        return violations
    for link in network.links():
        dest = network.node(link.dest)
        if link.relation == is_a and dest.color == Color.LEXICAL:
            src = network.node(link.source)
            violations.append(
                f"is-a link into lexical layer: {src.name} -> {dest.name}"
            )
    return violations
