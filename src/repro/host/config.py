"""Serving-host configuration.

The host views the array as ``num_replicas`` independent **replica
groups** of ``clusters_per_replica`` clusters each, every group
holding a full copy of the knowledge base (the scale-out analogue of
the paper's single-host setup: queries are independent, so capacity
grows by replication rather than by partitioning one propagation
across more clusters).  Faults are injected per replica through the
PR 1 fault layer: a seed-driven subset of replicas receives a
:class:`repro.machine.faults.FaultConfig` derived from
``replica_fault_template``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import FrozenSet, Optional, Tuple

from ..machine.faults import FaultConfig, RetryPolicy
from .admission import SHED_POLICIES, REJECT_NEWEST


class HostConfigError(ValueError):
    """Raised for inconsistent serving-host configurations."""


@dataclass(frozen=True)
class ReplicaFaultEvent:
    """One entry of a replica-level fault timeline.

    From ``time_us`` on (host clock), attempts dispatched to
    ``replica`` run against a machine built with ``faults``; ``None``
    means the replica is healthy from that instant (repair).  Work
    already in flight on the replica finishes under the old regime —
    the switch applies to the next dispatched attempt, matching how a
    real repair only helps queries that arrive after it.
    """

    time_us: float
    replica: int
    faults: Optional[FaultConfig] = None

    def __post_init__(self) -> None:
        if self.time_us < 0:
            raise HostConfigError(
                f"replica fault event time must be >= 0: {self.time_us}"
            )
        if self.replica < 0:
            raise HostConfigError(
                f"replica id must be >= 0: {self.replica}"
            )


def default_replica_faults() -> FaultConfig:
    """Template for a *degraded* replica: half its clusters offline,
    light transfer corruption and SCP flakiness, a tight retry budget
    (so damage actually reaches the query level and the breaker)."""
    return FaultConfig(
        failed_cluster_fraction=0.5,
        transfer_corrupt_prob=0.05,
        scp_timeout_prob=0.05,
        remap_nodes=False,
        retry=RetryPolicy(max_retries=1),
    )


@dataclass(frozen=True)
class HostConfig:
    """Everything the serving layer needs beyond the machine itself."""

    #: Replica groups the array is carved into.
    num_replicas: int = 4
    #: Clusters per replica group (each holds a full KB copy).
    clusters_per_replica: int = 4
    #: Marker units per cluster within each replica.
    mus_per_cluster: int = 2
    #: KB partition policy within each replica.
    partition_policy: str = "round-robin"
    # -- admission control ----------------------------------------------
    #: Bounded admission-queue depth; ``None`` = unbounded (no shedding).
    queue_capacity: Optional[int] = 64
    #: ``reject-newest`` or ``reject-over-deadline``.
    shed_policy: str = REJECT_NEWEST
    #: Deadline applied to queries that carry none (``None`` = no
    #: default deadline).
    default_deadline_us: Optional[float] = None
    # -- retries and hedging ---------------------------------------------
    #: Primary + sequential retry attempts per query (hedges excluded).
    max_attempts: int = 2
    #: Re-issue a straggling attempt onto another replica once it has
    #: been in flight this long (``None`` disables hedging).
    hedge_after_us: Optional[float] = None
    #: Maximum hedge attempts per query.
    hedge_max: int = 1
    # -- circuit breakers -------------------------------------------------
    breakers_enabled: bool = True
    #: Consecutive failures that trip a replica's breaker.
    breaker_failure_threshold: int = 3
    #: Simulated µs a tripped breaker stays open.
    breaker_cooldown_us: float = 20_000.0
    #: Probe attempts admitted while half-open.
    breaker_probe_quota: int = 1
    # -- fault feed -------------------------------------------------------
    #: Fraction of replicas built degraded (seed-driven choice).
    faulty_replica_fraction: float = 0.0
    #: Fault pattern applied to each degraded replica (per-replica
    #: seeds are derived, so patterns differ across replicas).
    replica_fault_template: Optional[FaultConfig] = None
    #: Root seed for replica selection and per-replica fault seeds.
    fault_seed: int = 0
    #: Mid-run regime changes: each event swaps one replica's fault
    #: pattern at a host-clock instant (``None`` faults = repaired).
    replica_timeline: Tuple[ReplicaFaultEvent, ...] = ()
    # -- health lifecycle --------------------------------------------------
    #: Enable the phi-accrual health detector + quarantine lifecycle.
    health_enabled: bool = False
    #: Sliding-window length of the phi detector.
    health_window: int = 12
    #: Observations before the detector may accuse.
    health_min_samples: int = 4
    #: Spread floor so steady degradation still accrues suspicion.
    health_sigma_floor: float = 0.08
    #: Score added per unit of query-visible damage.
    health_damage_weight: float = 0.5
    #: Phi level at which a replica is quarantined.
    health_phi_quarantine: float = 8.0
    #: Simulated µs quarantined before probing begins.
    health_probe_after_us: float = 30_000.0
    #: Consecutive healthy probes required to readmit.
    health_probe_successes: int = 2
    #: Service ratio a probe must stay under to count as healthy.
    health_readmit_ratio: float = 1.5
    # -- answer-integrity auditing ----------------------------------------
    #: Shadow-re-execute every Nth served answer on a healthy replica
    #: and compare results (``None`` disables auditing).
    audit_interval: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("num_replicas", "clusters_per_replica",
                     "mus_per_cluster", "max_attempts", "hedge_max"):
            value = getattr(self, name)
            if name != "hedge_max" and value < 1:
                raise HostConfigError(f"{name} must be >= 1: {value}")
            if name == "hedge_max" and value < 0:
                raise HostConfigError(f"{name} must be >= 0: {value}")
        if self.queue_capacity is not None and self.queue_capacity < 0:
            raise HostConfigError(
                f"queue_capacity must be >= 0: {self.queue_capacity}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise HostConfigError(
                f"shed_policy must be one of {SHED_POLICIES}: "
                f"{self.shed_policy!r}"
            )
        if (self.default_deadline_us is not None
                and self.default_deadline_us <= 0):
            raise HostConfigError(
                f"default_deadline_us must be > 0: {self.default_deadline_us}"
            )
        if self.hedge_after_us is not None and self.hedge_after_us <= 0:
            raise HostConfigError(
                f"hedge_after_us must be > 0: {self.hedge_after_us}"
            )
        if not 0.0 <= self.faulty_replica_fraction <= 1.0:
            raise HostConfigError(
                "faulty_replica_fraction must be in [0, 1]: "
                f"{self.faulty_replica_fraction}"
            )
        bad = sorted(
            {e.replica for e in self.replica_timeline
             if e.replica >= self.num_replicas}
        )
        if bad:
            raise HostConfigError(
                "replica_timeline names replicas outside the "
                f"{self.num_replicas}-replica array: {bad}"
            )
        if self.health_window < 2:
            raise HostConfigError(
                f"health_window must be >= 2: {self.health_window}"
            )
        if not 1 <= self.health_min_samples <= self.health_window:
            raise HostConfigError(
                "health_min_samples must be in [1, health_window]: "
                f"{self.health_min_samples}"
            )
        for name in ("health_sigma_floor", "health_phi_quarantine",
                     "health_readmit_ratio"):
            value = getattr(self, name)
            if value <= 0:
                raise HostConfigError(f"{name} must be > 0: {value}")
        if self.health_damage_weight < 0:
            raise HostConfigError(
                "health_damage_weight must be >= 0: "
                f"{self.health_damage_weight}"
            )
        if self.health_probe_after_us < 0:
            raise HostConfigError(
                "health_probe_after_us must be >= 0: "
                f"{self.health_probe_after_us}"
            )
        if self.health_probe_successes < 1:
            raise HostConfigError(
                "health_probe_successes must be >= 1: "
                f"{self.health_probe_successes}"
            )
        if self.audit_interval is not None and self.audit_interval < 1:
            raise HostConfigError(
                f"audit_interval must be >= 1: {self.audit_interval}"
            )

    # ------------------------------------------------------------------
    def faulty_replicas(self) -> FrozenSet[int]:
        """Seed-driven set of degraded replica ids (may be empty)."""
        count = int(round(self.faulty_replica_fraction * self.num_replicas))
        if count <= 0:
            return frozenset()
        count = min(count, self.num_replicas)
        rng = random.Random(f"{self.fault_seed}/replicas")
        return frozenset(rng.sample(range(self.num_replicas), count))

    def fault_config_for(self, replica_id: int) -> Optional[FaultConfig]:
        """The fault pattern a replica is built with (``None`` = healthy)."""
        if replica_id not in self.faulty_replicas():
            return None
        template = self.replica_fault_template or default_replica_faults()
        return replace(template, seed=self.fault_seed * 1009 + replica_id + 1)
