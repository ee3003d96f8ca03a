"""Per-cluster hardware model: PU, MU pool, CU, and memory queues.

Each SNAP-1 cluster executes *"three stages of SNAP instruction
processing"* (paper §III-A): the **PU** dequeues broadcast instructions
from the dual-port memory and decomposes them into marker-propagation
tasks; up to three **MUs** execute those tasks asynchronously from the
marker processing memory; the **CU** moves inter-cluster activation
messages between the marker activation memory and the hypercube ICN
memories.

The DES maps each unit onto a FIFO server: the PU and CU are single
servers, the MUs a server pool.  The marker activation memory is
capacity-accounted (occupancy, peak and overflows) so burst pressure
(Fig. 8) is observable.
"""

from __future__ import annotations

from typing import List

from ..core.state import WorkReport
from .config import MachineConfig, Timing
from .des import Server, ServerPool, Simulator


def work_service_time(work: WorkReport, timing: Timing) -> float:
    """Convert a primitive's work counters into MU busy time (µs)."""
    return (
        timing.t_task_overhead
        + work.words * timing.t_status_word
        + work.nodes * timing.t_node_visit
        + work.slots * timing.t_slot_scan
        + work.sets * timing.t_marker_set
        + work.fp_ops * timing.t_fp_op
        + work.messages * timing.t_msg_write
        + work.links_made * timing.t_link_write
    )


#: Default marker-activation-memory capacity, in messages.  The IDT
#: four-port parts gave "a large buffering capacity"; 256 64-bit
#: messages fit comfortably in a 2K x 32 region.
ACTIVATION_QUEUE_CAPACITY = 256

#: PU circular instruction-queue capacity, in instructions.
PU_QUEUE_CAPACITY = 64


class ClusterSim:
    """Simulation-side state of one cluster."""

    def __init__(
        self,
        sim: Simulator,
        cluster_id: int,
        num_mus: int,
        config: MachineConfig,
        failed: bool = False,
    ) -> None:
        self.cluster_id = cluster_id
        self.num_mus = num_mus
        #: PU/CU stuck: the cluster is offline (fault injection).  Its
        #: units exist but are never dispatched to.
        self.failed = failed
        self.pu = Server(sim, name=f"pu{cluster_id}")
        self.mus = ServerPool(sim, num_mus, name=f"mu{cluster_id}")
        self.cu = Server(sim, name=f"cu{cluster_id}")
        #: Broadcast instructions awaiting/undergoing PU decode.
        self.instructions_queued = 0
        #: Marker activation memory: outbound messages awaiting their
        #: CU DMA, the most ever held, and how often a message arrived
        #: with :data:`ACTIVATION_QUEUE_CAPACITY` already held.
        #: Capacity is soft: the message is still held -- on the
        #: hardware the sending MU would block until space frees
        #: (§II-C), and the simulator surfaces that pressure through
        #: the overflow count rather than by dropping markers.
        self.activation_held = 0
        self.activation_peak = 0
        self.activation_overflows = 0

    @property
    def idle(self) -> bool:
        """All functional units idle (the cluster's AND-tree inputs)."""
        return self.pu.idle and self.mus.idle and self.cu.idle

    def busy_summary(self) -> dict:
        """Busy-time accounting for utilization reports.

        Uses *elapsed* busy time (``busy_time_until``), so a run cut
        off mid-service by a ``budget_us`` abort never counts service
        that had not yet happened; for completed runs the values equal
        the plain ``busy_time`` accumulators exactly.
        """
        now = self.pu.sim.now
        summary = {
            "pu_busy": self.pu.busy_time_until(now),
            "mu_busy": self.mus.busy_time_until(now),
            "cu_busy": self.cu.busy_time_until(now),
            "mu_jobs": self.mus.jobs_done,
            "cu_jobs": self.cu.jobs_done,
            "activation_peak": self.activation_peak,
            "activation_overflows": self.activation_overflows,
        }
        # Only faulty machines carry the extra key, so fault-free
        # reports stay byte-identical to the pre-fault-layer output.
        if self.failed:
            summary["failed"] = True
        return summary


def build_clusters(
    sim: Simulator, config: MachineConfig, faults=None
) -> List[ClusterSim]:
    """Instantiate every cluster of a machine configuration.

    ``faults`` is an optional :class:`repro.machine.faults.FaultInjector`
    whose realized pattern shrinks MU pools (server loss) and marks
    whole clusters offline (PU/CU stuck).
    """
    counts = config.mu_counts()
    failed = frozenset()
    if faults is not None:
        counts = list(faults.effective_mu_counts)
        failed = faults.failed_clusters
    return [
        ClusterSim(sim, cid, mus, config, failed=cid in failed)
        for cid, mus in enumerate(counts)
    ]
