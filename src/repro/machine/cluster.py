"""Per-cluster hardware model: PU, MU pool, CU, and memory queues.

Each SNAP-1 cluster executes *"three stages of SNAP instruction
processing"* (paper §III-A): the **PU** dequeues broadcast instructions
from the dual-port memory and decomposes them into marker-propagation
tasks; up to three **MUs** execute those tasks asynchronously from the
marker processing memory; the **CU** moves inter-cluster activation
messages between the marker activation memory and the hypercube ICN
memories.

The DES maps each unit onto a FIFO server: the PU and CU are single
servers, the MUs a server pool.  The marker activation memory is a
capacity-accounted queue so burst pressure (Fig. 8) is observable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

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


@dataclass
class BoundedQueue:
    """Capacity-accounted FIFO for the marker activation memory.

    A single-writer/single-reader queue area (paper §III-A, type-3
    traffic) needs no arbiter.  The DES records its overflow pressure:
    the Fig. 8 burst-absorption requirement says that when a burst
    exceeds buffering, *"the sending processor will be blocked"*.
    Arbitration of the shared marker memory (type-1 traffic) is not
    modelled per access; its cost is folded into
    ``Timing.t_task_overhead``.
    """

    capacity: int
    _items: Deque = field(default_factory=deque)
    peak: int = 0
    overflows: int = 0

    def push(self, item) -> bool:
        """Enqueue; returns False (and counts an overflow) when the
        occupancy exceeds capacity.

        Capacity is *soft*: the item is still queued — on the hardware
        the sending MU would block until space frees (§II-C), and the
        simulator surfaces that pressure through the overflow count
        rather than by dropping markers.
        """
        over = len(self._items) >= self.capacity
        if over:
            self.overflows += 1
        self._items.append(item)
        self.peak = max(self.peak, len(self._items))
        return not over

    def pop(self):
        """Dequeue the oldest item; raises IndexError when empty."""
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)


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
        #: Marker activation memory occupancy (outbound + forwarded).
        self.activation_queue = BoundedQueue(ACTIVATION_QUEUE_CAPACITY)

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
            "activation_peak": self.activation_queue.peak,
            "activation_overflows": self.activation_queue.overflows,
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


def pe_index_of_cluster(config: MachineConfig, cluster_id: int) -> int:
    """Global PE id of a cluster's first unit (for sync reporting).

    PEs are numbered cluster by cluster: PU, MUs..., CU.
    """
    counts = config.mu_counts()
    base = 0
    for cid in range(cluster_id):
        base += 2 + counts[cid]
    return base
