"""Concept classification by property intersection.

One of the applications used to validate the instruction set during
functional simulation (§II-B: *"NLU, concept classification, and
property inheritance applications were coded with these
instructions"*).  Classification answers: *which concepts exhibit all
of the given properties?* — each property floods the concepts that
have (or inherit) it, and an AND-tree of markers intersects the
floods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from ..isa.instructions import (
    AndMarker,
    ClearMarker,
    CollectNode,
    Propagate,
    SearchNode,
    complex_marker,
)
from ..isa.program import SnapProgram
from ..isa.rules import chain, seq

#: Marker bank used by classification programs (away from the NLU
#: parser's assignments so both can coexist on one machine).
M_BASE = 30
M_RESULT = complex_marker(46)


class ClassificationError(ValueError):
    """Raised for unusable queries."""


def classification_program(properties: Sequence[str]) -> SnapProgram:
    """Find concepts having *all* ``properties``.

    For each property ``p``: mark the property node, walk back along
    ``inverse:has-property``-like paths — concretely, owners are the
    sources of ``has-property`` links, so we mark owners by seeding
    the property node and traversing the *reverse* binding installed
    at KB build time (``binding-inverse``) or, in hierarchy KBs, by
    flooding downward from each owner.  The standard encoding used by
    our KBs is: owner --has-property--> p:prop, plus the hierarchy's
    ``inverse:is-a`` downward links, so a concept *exhibits* a property
    if one of its ancestors owns it.  The program therefore floods
    downward from direct owners and intersects the floods.
    """
    props = list(properties)
    if not props:
        raise ClassificationError("classification needs >= 1 property")
    if len(props) > 8:
        raise ClassificationError("at most 8 properties per query")

    program = SnapProgram(name="classification")
    program.append(ClearMarker(M_RESULT))
    flood_markers: List[int] = []
    for i, prop in enumerate(props):
        m_prop = complex_marker(M_BASE + 2 * i)
        m_flood = complex_marker(M_BASE + 2 * i + 1)
        flood_markers.append(m_flood)
        program.append(ClearMarker(m_prop))
        program.append(ClearMarker(m_flood))
        program.append(SearchNode(f"p:{prop}", m_prop, 0.0))
        # Owners sit one inverse hop from the property node; flooding
        # their subtrees marks every concept inheriting the property.
        program.append(
            Propagate(
                m_prop, m_flood,
                seq("inverse:has-property", "inverse:is-a"),
                "identity",
            )
        )
        program.append(
            Propagate(m_flood, m_flood, chain("inverse:is-a"), "identity")
        )
    # Intersect all floods.
    first = flood_markers[0]
    program.append(AndMarker(first, first, M_RESULT, "first"))
    for m_flood in flood_markers[1:]:
        program.append(AndMarker(M_RESULT, m_flood, M_RESULT, "first"))
    program.append(CollectNode(M_RESULT))
    return program


def install_property(network, owner: str, prop: str) -> None:
    """Attach a property with the reverse link classification needs."""
    prop_node = f"p:{prop}"
    network.ensure_node(prop_node)
    network.add_link(owner, "has-property", prop_node, 1.0)
    network.add_link(prop_node, "inverse:has-property", owner, 1.0)


@dataclass
class ClassificationResult:
    """Concepts matching a property query, with timing."""

    properties: Tuple[str, ...]
    matches: List[str]
    time_us: float


def classify(machine: Any, properties: Sequence[str]) -> ClassificationResult:
    """Run a classification query on any machine."""
    report = machine.run(classification_program(properties))
    results = report.results()
    names = [name for _gid, name in (results[-1] if results else [])]
    return ClassificationResult(
        properties=tuple(properties),
        matches=names,
        time_us=report.total_time_us,
    )
