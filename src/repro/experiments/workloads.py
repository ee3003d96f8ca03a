"""Synthetic workloads with controlled α and β parallelism.

The speedup studies of Figs. 16–17 vary the two parallelism degrees
independently:

* **α** — source activations per PROPAGATE: the workload KB contains
  exactly α independent chains of a given path length, all of whose
  head nodes carry a distinguished color, so one SEARCH-COLOR + one
  PROPAGATE activates exactly α simultaneous propagation streams;
* **β** — overlapped PROPAGATE statements: β disjoint chain families
  (separate relations and separate markers) give β data-independent
  PROPAGATEs the controller can keep in flight together.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instructions import (
    ClearMarker,
    CollectNode,
    Propagate,
    SearchColor,
    complex_marker,
)
from ..isa.program import SnapProgram
from ..isa.rules import chain
from ..network.graph import SemanticNetwork
from ..network.node import Color

#: Color given to chain-head (seed) nodes; one per β stream.
SEED_COLOR_BASE = 100


def alpha_network(
    alpha: int, path_length: int = 10, streams: int = 1
) -> SemanticNetwork:
    """A KB of ``streams`` families × ``alpha`` chains × ``path_length``.

    Chain heads of stream ``s`` have color ``SEED_COLOR_BASE + s`` and
    links of relation ``link<s>`` with unit weights.
    """
    if alpha < 1 or path_length < 1 or streams < 1:
        raise ValueError("alpha, path_length, streams must be >= 1")
    network = SemanticNetwork()
    for s in range(streams):
        relation = f"link{s}"
        seed_color = SEED_COLOR_BASE + s
        for a in range(alpha):
            head = network.add_node(f"s{s}-head{a}", seed_color)
            previous = head.node_id
            for step_index in range(path_length):
                node = network.add_node(
                    f"s{s}-c{a}-n{step_index}", Color.GENERIC
                )
                network.add_link(previous, relation, node.node_id, 1.0)
                previous = node.node_id
    network.validate()
    return network


def alpha_program(streams: int = 1, collect: bool = False) -> SnapProgram:
    """One independent SEARCH + PROPAGATE pair per stream.

    All pairs are marker-disjoint, so the controller overlaps the
    propagates (β = ``streams``); with ``streams=1`` the program
    isolates pure α-parallelism.
    """
    if streams > 32:
        raise ValueError("at most 32 streams (marker pairs)")
    program = SnapProgram(name=f"alpha-x{streams}")
    for s in range(streams):
        src = complex_marker(s)
        dst = complex_marker(32 + s)
        program.append(ClearMarker(src))
        program.append(ClearMarker(dst))
    for s in range(streams):
        src = complex_marker(s)
        program.append(SearchColor(SEED_COLOR_BASE + s, src, 0.0))
    for s in range(streams):
        src = complex_marker(s)
        dst = complex_marker(32 + s)
        program.append(
            Propagate(src, dst, chain(f"link{s}"), "add-weight")
        )
    if collect:
        program.append(CollectNode(complex_marker(32)))
    return program


@dataclass(frozen=True)
class AlphaWorkload:
    """A bound (network, program) pair for one α/β setting."""

    alpha: int
    path_length: int
    streams: int
    network: SemanticNetwork
    program: SnapProgram

    @property
    def total_nodes(self) -> int:
        """Total nodes in the workload network."""
        return self.network.num_nodes


def make_alpha_workload(
    alpha: int, path_length: int = 10, streams: int = 1,
    collect: bool = False,
) -> AlphaWorkload:
    """Build a complete α-controlled workload."""
    return AlphaWorkload(
        alpha=alpha,
        path_length=path_length,
        streams=streams,
        network=alpha_network(alpha, path_length, streams),
        program=alpha_program(streams, collect=collect),
    )


def make_beta_workload(
    beta: int, alpha_per_stream: int = 8, path_length: int = 10
) -> AlphaWorkload:
    """Workload with β overlappable PROPAGATEs of equal size."""
    return AlphaWorkload(
        alpha=alpha_per_stream,
        path_length=path_length,
        streams=beta,
        network=alpha_network(alpha_per_stream, path_length, beta),
        program=alpha_program(beta),
    )
