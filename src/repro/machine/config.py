"""Machine configuration: topology, functional-unit counts, latencies.

Defaults encode the constructed SNAP-1 prototype (paper §II/§III):

* 32 tightly-coupled clusters — *"Presently, 16 clusters are
  implemented in the full five PE configuration while the remaining 16
  clusters have four PE's each, totaling 144 PE's"* — i.e. a PU + CU
  plus 3 or 2 marker units per cluster;
* 32 MHz controller, 25 MHz array clock;
* 4-ary hypercube ICN with 80 ns 8-bit port-to-port transfers and
  64-bit activation messages;
* up to 1024 nodes per cluster, 32 K machine capacity.

All latency parameters are in **microseconds** and are calibrated so
the paper's reported operating points hold: SET/CLEAR ≈ 50 µs,
PROPAGATE several hundred µs at path lengths 10–15 (§IV).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from .faults import FaultConfig


class ConfigError(ValueError):
    """Raised for inconsistent machine configurations."""


@dataclass(frozen=True)
class Timing:
    """Latency parameters, in microseconds."""

    # --- controller (32 MHz) -----------------------------------------
    #: PCP program-flow work per SNAP instruction.
    t_pcp: float = 2.0
    #: SCP operand instantiation + global-bus broadcast occupancy.
    t_broadcast: float = 4.0
    # --- cluster pipeline (25 MHz TMS320C30) --------------------------
    #: PU dequeue + opcode decomposition per instruction.
    t_decode: float = 8.0
    #: Fixed MU task pickup overhead (point-to-point control).
    t_task_overhead: float = 2.0
    #: Per 32-bit marker-status word processed.
    t_status_word: float = 0.2
    #: Per node-table row visited (address computation + access).
    t_node_visit: float = 0.5
    #: Per relation-table slot scanned.
    t_slot_scan: float = 0.25
    #: Per marker bit written.
    t_marker_set: float = 0.15
    #: Per floating-point value update (single-cycle FPU + indexing).
    t_fp_op: float = 0.05
    #: Per activation message written to marker activation memory.
    t_msg_write: float = 0.5
    #: Per relation slot written (runtime binding).
    t_link_write: float = 0.5
    # --- interconnection network ---------------------------------------
    #: CU DMA per message between activation memory and ICN memory.
    t_cu_dma: float = 0.5
    #: Port-to-port transfer of a 64-bit message over one hop:
    #: 8 transfers x 80 ns.
    t_hop: float = 0.64
    #: CU store-and-forward handling at an intermediate cluster.
    t_forward: float = 0.3
    # --- synchronization ---------------------------------------------
    #: AND-tree settle + SCP check, base cost.
    t_sync_base: float = 2.0
    #: Additional sync cost per processor (counter reporting); the
    #: paper notes barrier overhead "proportional to the number of
    #: processors, but the dependency is small".
    t_sync_per_pe: float = 0.12
    # --- collection ------------------------------------------------------
    #: Controller setup to address one cluster's dual-port memory.
    t_collect_cluster: float = 15.0
    #: Per result item transferred to the controller.
    t_collect_item: float = 1.5


@dataclass(frozen=True)
class MachineConfig:
    """Full machine description."""

    num_clusters: int = 32
    #: Marker units per cluster: an int, or one entry per cluster.
    mus_per_cluster: Union[int, Tuple[int, ...]] = field(
        default_factory=lambda: tuple([3] * 16 + [2] * 16)
    )
    #: PU instruction queue depth: "up to 64 instructions can be
    #: overlapped".
    instruction_queue_depth: int = 64
    #: Node capacity per cluster (the prototype's table sizing).
    nodes_per_cluster: int = 1024
    #: Enforce the per-cluster capacity when loading a KB.  Off by
    #: default so cluster-sweep studies can hold a fixed KB at every
    #: machine size (the published sweeps require this).
    enforce_capacity: bool = False
    #: Partition policy for KB loading.
    partition_policy: str = "round-robin"
    timing: Timing = field(default_factory=Timing)
    #: Clock speeds, for reporting only (latencies are already in µs).
    controller_mhz: float = 32.0
    array_mhz: float = 25.0
    #: Model per-message wire packing (bfloat16 value truncation).
    pack_messages: bool = False
    #: Fault-injection pattern; ``None`` (or a disabled config) runs
    #: the fault-free simulator with zero overhead.
    faults: Optional[FaultConfig] = None

    def __post_init__(self) -> None:
        if self.num_clusters < 1:
            raise ConfigError("need at least one cluster")
        mus = self.mu_counts()
        if len(mus) != self.num_clusters or any(m < 1 for m in mus):
            raise ConfigError(
                "mus_per_cluster must provide >=1 MU for each cluster"
            )

    def mu_counts(self) -> List[int]:
        """Marker units per cluster, expanded to one entry per cluster."""
        if isinstance(self.mus_per_cluster, int):
            return [self.mus_per_cluster] * self.num_clusters
        counts = list(self.mus_per_cluster)
        if len(counts) < self.num_clusters:
            counts = (counts * self.num_clusters)[: self.num_clusters]
        return counts[: self.num_clusters]

    @property
    def total_mus(self) -> int:
        """Total marker units across clusters."""
        return sum(self.mu_counts())

    @property
    def total_pes(self) -> int:
        """All functional units: PU + CU + MUs per cluster."""
        return self.num_clusters * 2 + self.total_mus

    @property
    def node_capacity(self) -> int:
        """Total node capacity (clusters x nodes/cluster)."""
        return self.num_clusters * self.nodes_per_cluster


def snap1_full() -> MachineConfig:
    """The full 144-PE prototype: 16 five-PE + 16 four-PE clusters."""
    return MachineConfig(
        num_clusters=32,
        mus_per_cluster=tuple([3] * 16 + [2] * 16),
    )


def snap1_16cluster() -> MachineConfig:
    """The 72-processor array used for the §IV experiments.

    16 clusters, 72 PEs total: 8 clusters with 3 MUs (five PEs) and 8
    with 2 MUs (four PEs) gives 16 PU + 16 CU + 40 MU = 72.
    """
    return MachineConfig(
        num_clusters=16,
        mus_per_cluster=tuple([3] * 8 + [2] * 8),
    )


def uniprocessor() -> MachineConfig:
    """A single cluster with one marker unit (serial reference point)."""
    return MachineConfig(num_clusters=1, mus_per_cluster=1)


def cluster_sweep(max_clusters: int = 16) -> List[MachineConfig]:
    """Configurations for the 1→16 cluster sweep of Fig. 18."""
    sizes = [1, 2, 4, 8, 16]
    return [
        MachineConfig(num_clusters=n, mus_per_cluster=_mix(n))
        for n in sizes
        if n <= max_clusters
    ]


def _mix(num_clusters: int) -> Tuple[int, ...]:
    """Half 3-MU, half 2-MU clusters (rounding up the 3-MU share)."""
    threes = (num_clusters + 1) // 2
    return tuple([3] * threes + [2] * (num_clusters - threes))


def processor_sweep() -> List[MachineConfig]:
    """Configurations spanning ~2 to 72 PEs for the Fig. 16/17 sweeps.

    Every configuration keeps the cluster granularity of the prototype;
    the x-axis of the speedup figures is :attr:`MachineConfig.total_pes`.
    """
    configs: List[MachineConfig] = [
        MachineConfig(num_clusters=1, mus_per_cluster=1),   # 3 PEs
        MachineConfig(num_clusters=1, mus_per_cluster=2),   # 4
        MachineConfig(num_clusters=1, mus_per_cluster=3),   # 5
        MachineConfig(num_clusters=2, mus_per_cluster=2),   # 8
        MachineConfig(num_clusters=2, mus_per_cluster=3),   # 10
        MachineConfig(num_clusters=4, mus_per_cluster=2),   # 16
        MachineConfig(num_clusters=4, mus_per_cluster=3),   # 20
        MachineConfig(num_clusters=8, mus_per_cluster=2),   # 32
        MachineConfig(num_clusters=8, mus_per_cluster=3),   # 40
        MachineConfig(num_clusters=16, mus_per_cluster=2),  # 64
        snap1_16cluster(),                                  # 72
    ]
    return configs
