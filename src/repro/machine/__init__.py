"""Discrete-event simulator of the SNAP-1 hardware (paper §II–III).

Component models: clusters of PU/MU/CU functional units over multiport
memories, the global broadcast bus, the 4-ary hypercube interconnect,
tiered barrier synchronization, and the dual-processor controller.
The performance-collection network is the tracer
(:mod:`repro.obs.tracer`), attached per run.  The façade is
:class:`SnapMachine`.
"""

from .config import (
    ConfigError,
    MachineConfig,
    Timing,
    cluster_sweep,
    processor_sweep,
    snap1_16cluster,
    snap1_full,
    uniprocessor,
)
from .des import (
    Server,
    ServerPool,
    SimulationError,
    Simulator,
    Timeout,
    utilization,
)
from .faults import (
    EVENT_KINDS,
    REGION_EVENT_KINDS,
    FaultConfig,
    FaultConfigError,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    FaultStats,
    RegionEvent,
    RegionSchedule,
    RetryPolicy,
    failed_clusters_for,
)
from .icn import HypercubeTopology, IcnStats, TopologyError, link_key
from .sync import (
    SyncError,
    SyncPoint,
    SyncStats,
    TieredSynchronizer,
    barrier_cost,
)
from .cluster import (
    ACTIVATION_QUEUE_CAPACITY,
    ClusterSim,
    build_clusters,
    work_service_time,
)
from .report import InstructionTrace, MachineRunReport, OverheadBreakdown
from .simulator import SnapSimulation
from .machine import SnapMachine

__all__ = [
    "ConfigError", "MachineConfig", "Timing", "cluster_sweep",
    "processor_sweep", "snap1_16cluster", "snap1_full", "uniprocessor",
    "Server", "ServerPool", "SimulationError", "Simulator",
    "Timeout", "utilization",
    "EVENT_KINDS", "REGION_EVENT_KINDS",
    "FaultConfig", "FaultConfigError", "FaultEvent",
    "FaultInjector", "FaultSchedule", "FaultStats",
    "RegionEvent", "RegionSchedule",
    "RetryPolicy", "failed_clusters_for",
    "HypercubeTopology", "IcnStats", "TopologyError", "link_key",
    "SyncError", "SyncPoint", "SyncStats", "TieredSynchronizer",
    "barrier_cost",
    "ACTIVATION_QUEUE_CAPACITY", "ClusterSim", "build_clusters",
    "work_service_time",
    "InstructionTrace", "MachineRunReport", "OverheadBreakdown",
    "SnapSimulation", "SnapMachine",
]
