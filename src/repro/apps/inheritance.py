"""Property inheritance over a concept hierarchy (Fig. 15 workload).

*"Performance was also measured for some basic inferencing operations
such as inheritance of attributes from concepts in the knowledge base
hierarchy"* (§IV).  Inheritance from *root to leaf* pushes a property
marker down the hierarchy (along ``inverse:is-a`` links installed by
the hierarchy generator), so every concept inherits the root's
attributes; the length of the critical path is the hierarchy depth,
which is what the CM-2's per-step controller round-trip multiplies.
"""

from __future__ import annotations


from ..isa.instructions import (
    AndMarker,
    ClearMarker,
    CollectNode,
    Propagate,
    SearchNode,
    complex_marker,
)
from ..isa.program import SnapProgram
from ..isa.rules import chain, step
from ..network.generator import HIERARCHY_ROOT

M_SRC = complex_marker(20)
M_INHERIT = complex_marker(21)
M_PROP = complex_marker(22)
M_HAS = complex_marker(23)


def inheritance_program(
    root: str = HIERARCHY_ROOT,
    num_properties: int = 4,
) -> SnapProgram:
    """Root-to-leaf inheritance of the root's attributes.

    One flood per attribute (matching *"inheritance of attributes"* —
    every attribute's value must reach every concept), each followed by
    retrieval of the inheriting concepts.  Attribute floods use
    distinct markers, so the controller overlaps them (β-parallelism);
    each COLLECT then forces a barrier.
    """
    program = SnapProgram(name="inheritance")
    program.append(ClearMarker(M_SRC))
    for k in range(num_properties):
        program.append(ClearMarker(complex_marker(21 + k)))
    program.append(SearchNode(root, M_SRC, 0.0))
    for k in range(num_properties):
        marker = complex_marker(21 + k)
        program.append(
            Propagate(M_SRC, marker, chain("inverse:is-a"), "add-weight")
        )
    for k in range(num_properties):
        program.append(CollectNode(complex_marker(21 + k)))
    return program


def property_lookup_program(concept: str, prop: str) -> SnapProgram:
    """Does ``concept`` inherit property ``prop``? (upward inheritance)

    Marks the concept, climbs ``is-a`` to its ancestors, steps onto
    their properties, and intersects with the property node.
    """
    program = SnapProgram(name="property-lookup")
    for marker in (M_SRC, M_INHERIT, M_PROP, M_HAS):
        program.append(ClearMarker(marker))
    program.append(SearchNode(concept, M_SRC, 0.0))
    program.append(
        Propagate(M_SRC, M_INHERIT, chain("is-a"), "count-hops")
    )
    program.append(
        Propagate(M_INHERIT, M_PROP, step("has-property"), "identity")
    )
    program.append(SearchNode(f"p:{prop}", M_HAS, 0.0))
    program.append(AndMarker(M_PROP, M_HAS, M_HAS, "first"))
    program.append(CollectNode(M_HAS))
    return program
