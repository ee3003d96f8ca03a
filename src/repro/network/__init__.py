"""Semantic-network substrate: nodes, relations, graphs, partitioning.

This package implements the *static infrastructure* of the SNAP
reasoning system (paper §I-B/§I-C): the semantic network itself, its
layered linguistic organization, the fanout pre-processor that fits
nodes into 16-slot relation-table rows, the cluster partitioning
policies, and a synthetic generator reproducing the statistics of the
paper's evaluation knowledge base.
"""

from .node import Color, Link, Node, NodeError, MAX_FANOUT, NUM_COLORS
from .relation import (
    MAX_RELATION_TYPES,
    RelationError,
    RelationRegistry,
    STANDARD_RELATIONS,
)
from .graph import GraphError, NodeRef, SemanticNetwork
from .builder import (
    CONT_RELATION,
    KnowledgeBaseBuilder,
    preprocess_fanout,
)
from .partition import (
    MAX_NODES_PER_CLUSTER,
    PARTITIONERS,
    PartitionError,
    Partitioning,
    community_partition,
    detect_communities,
    make_partition,
    round_robin_partition,
    semantic_partition,
    sequential_partition,
)
from .layers import (
    CONCEPT_SEQUENCE_LAYER,
    CONSTRAINT_LAYER,
    LAYERS,
    LEXICAL_LAYER,
    Layer,
    PAPER_NONLEXICAL_PROPORTIONS,
    layer_histogram,
    layer_of_color,
    layering_violations,
    nonlexical_proportions,
)
from .generator import (
    GeneratorSpec,
    HIERARCHY_ROOT,
    generate_hierarchy_kb,
    generate_kb,
)
from .io import (
    FormatError,
    load_network,
    loads,
    save_network,
    saves,
)

__all__ = [
    "Color",
    "Link",
    "Node",
    "NodeError",
    "MAX_FANOUT",
    "NUM_COLORS",
    "MAX_RELATION_TYPES",
    "RelationError",
    "RelationRegistry",
    "STANDARD_RELATIONS",
    "GraphError",
    "NodeRef",
    "SemanticNetwork",
    "CONT_RELATION",
    "KnowledgeBaseBuilder",
    "preprocess_fanout",
    "MAX_NODES_PER_CLUSTER",
    "PARTITIONERS",
    "PartitionError",
    "Partitioning",
    "community_partition",
    "detect_communities",
    "make_partition",
    "round_robin_partition",
    "semantic_partition",
    "sequential_partition",
    "CONCEPT_SEQUENCE_LAYER",
    "CONSTRAINT_LAYER",
    "LAYERS",
    "LEXICAL_LAYER",
    "Layer",
    "PAPER_NONLEXICAL_PROPORTIONS",
    "layer_histogram",
    "layer_of_color",
    "layering_violations",
    "nonlexical_proportions",
    "GeneratorSpec",
    "HIERARCHY_ROOT",
    "generate_hierarchy_kb",
    "generate_kb",
    "FormatError",
    "load_network",
    "loads",
    "save_network",
    "saves",
]
