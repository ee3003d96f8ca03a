"""Marker activation memory: the capacity-accounted outbound message store."""

from repro.isa import assemble
from repro.machine import ACTIVATION_QUEUE_CAPACITY, MachineConfig, SnapMachine
from repro.network.graph import SemanticNetwork


def star_report(leaves: int):
    """One seed scan on a 2-cluster machine emits every remote arrival
    of a hub with ``leaves`` links at once (round-robin placement puts
    the hub, id 0, on cluster 0 and the odd-numbered leaves on 1)."""
    network = SemanticNetwork()
    network.add_node("hub")
    for index in range(leaves):
        network.add_node(f"leaf{index}")
        network.add_link("hub", "has", f"leaf{index}", 1.0)
    machine = SnapMachine(network, MachineConfig(num_clusters=2))
    report = machine.run(assemble(
        "SEARCH-NODE hub b0\nPROPAGATE b0 b1 chain(has)\nCOLLECT-NODE b1\n"
    ))
    assert len(report.results()[0]) == leaves
    return report.cluster_busy[0], (leaves + 1) // 2


class TestActivationMemory:
    def test_peak_tracking(self):
        hub, remote = star_report(40)
        assert hub["activation_peak"] == remote
        assert hub["activation_overflows"] == 0

    def test_soft_capacity_counts_overflow(self):
        hub, remote = star_report(2 * ACTIVATION_QUEUE_CAPACITY + 20)
        # Over capacity, every message is still held and sent.
        assert hub["activation_peak"] == remote
        assert (hub["activation_overflows"]
                == remote - ACTIVATION_QUEUE_CAPACITY)
