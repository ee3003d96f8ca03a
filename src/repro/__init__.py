"""SNAP-1: Semantic Network Array Processor — a Python reproduction.

Reproduction of *"The SNAP-1 Parallel AI Prototype"* (R. F. DeMara and
D. I. Moldovan, ISCA 1991): a marker-propagation architecture for
knowledge representation and reasoning, built as a 144-processor,
32-cluster array with multiport memories, a 4-ary hypercube
interconnect, and tiered barrier synchronization.

Packages
--------
``repro.network``
    Semantic-network substrate: nodes, relations, layered knowledge
    bases, partitioning, synthetic generation.
``repro.isa``
    The 20-instruction marker-propagation ISA of Table II, propagation
    rules, marker functions, programs, and the assembler.
``repro.core``
    Distributed knowledge-base tables (Fig. 4), activation messages,
    and exact instruction semantics.
``repro.machine``
    Discrete-event simulator of the SNAP-1 hardware: clusters
    (PU/MU/CU), global bus, hypercube ICN, tiered synchronization,
    controller pipeline (performance collection is ``repro.obs``).
``repro.baselines``
    Serial (single-PE) and CM-2-style SIMD comparison machines.
``repro.apps``
    NLU parsing, property inheritance, and concept classification.
``repro.analysis``
    Instruction profiles, speedup, traffic, and overhead analysis.
``repro.experiments``
    One module per table/figure of the paper's evaluation.
"""

__version__ = "1.0.0"

from .network import KnowledgeBaseBuilder, SemanticNetwork, generate_kb
from .isa import SnapProgram, assemble
from .core import FunctionalEngine, MachineState, run_program

__all__ = [
    "__version__",
    "KnowledgeBaseBuilder",
    "SemanticNetwork",
    "generate_kb",
    "SnapProgram",
    "assemble",
    "FunctionalEngine",
    "MachineState",
    "run_program",
]
