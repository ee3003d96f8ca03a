"""Consistent-hash placement with failure-domain-aware replication.

Placement answers two questions deterministically, as a pure function
of ``(placement_seed, num_regions, shard_id)``:

* **Where do a shard's R replicas live?**  A SHA-256 consistent-hash
  ring carries ``vnodes_per_region`` virtual nodes per region; walking
  the ring clockwise from the shard's key and keeping the first
  occurrence of each region yields the shard's **preference list** — a
  permutation of all regions.  The first R entries hold replicas; the
  first entry is the shard's **home region** (its primary).
* **Who serves the shard right now?**  The first *available* replica
  in preference order (alive region, replica fully built, not
  quarantined by the health lifecycle).  Serving from any non-home
  replica is a **failover**: the answer is flagged *stale* (it did not
  come from the shard's primary) and pays the cross-region hop
  penalty.

:class:`PlacementMap` tracks live replica state through regional
fail/repair events and records every primary change with its
timestamp — the failover-flapping anomaly check in
:mod:`repro.obs.analyze.drift` windows over exactly this series.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from ..host.health import ReplicaHealth
from .config import FleetConfig


def _digest(key: str) -> int:
    """Stable 64-bit hash (process-seed independent, unlike hash())."""
    return int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """SHA-256 consistent-hash ring over regions."""

    def __init__(self, num_regions: int, vnodes_per_region: int,
                 seed: int) -> None:
        self.num_regions = num_regions
        self._seed = seed
        points: List[Tuple[int, int]] = []
        for region in range(num_regions):
            for vnode in range(vnodes_per_region):
                points.append(
                    (_digest(f"{seed}:region:{region}:vnode:{vnode}"),
                     region)
                )
        points.sort()
        self._points = points

    def preference(self, shard_id: int) -> Tuple[int, ...]:
        """All regions in ring order from the shard's key (distinct).

        The full permutation, not just the first R: failover and
        rebuild targets continue down the same list, so placement
        decisions never need a second hash function.
        """
        key = _digest(f"{self._seed}:shard:{shard_id}")
        points = self._points
        # Binary search for the first point at or after the key.
        lo, hi = 0, len(points)
        while lo < hi:
            mid = (lo + hi) // 2
            if points[mid][0] < key:
                lo = mid + 1
            else:
                hi = mid
        order: List[int] = []
        seen = set()
        for i in range(len(points)):
            region = points[(lo + i) % len(points)][1]
            if region not in seen:
                seen.add(region)
                order.append(region)
                if len(order) == self.num_regions:
                    break
        return tuple(order)


class ReplicaState(str, Enum):
    """Lifecycle of one shard replica."""

    ACTIVE = "active"
    #: Region died with the replica on it; data is gone.
    DEAD = "dead"
    #: Re-replication copy in flight; serves nothing until built.
    REBUILDING = "rebuilding"


@dataclass
class ShardReplica:
    """One copy of one shard in one region."""

    shard_id: int
    region: int
    state: ReplicaState = ReplicaState.ACTIVE
    #: Health lifecycle (phi-accrual quarantine); ``None`` = unmanaged.
    health: Optional[ReplicaHealth] = None
    #: Queries this replica answered.
    served: int = 0

    def available(self, now: float, region_up: Sequence[bool]) -> bool:
        """Whether the router may serve from this replica at ``now``."""
        if self.state is not ReplicaState.ACTIVE:
            return False
        if not region_up[self.region]:
            return False
        if self.health is not None and not self.health.allow(now):
            return False
        return True


@dataclass(frozen=True)
class PrimaryChange:
    """One serving-primary move of one shard (the failover record)."""

    time_us: float
    shard_id: int
    from_region: Optional[int]
    to_region: Optional[int]
    reason: str


class PlacementMap:
    """Live placement state of every shard across the regions."""

    def __init__(self, config: FleetConfig,
                 num_shards: Optional[int] = None) -> None:
        self.config = config
        self.num_shards = (config.num_shards if num_shards is None
                           else num_shards)
        self.ring = HashRing(
            config.num_regions, config.vnodes_per_region,
            config.placement_seed,
        )
        #: Region liveness; flipped by regional fail/repair events.
        self.region_up: List[bool] = [True] * config.num_regions
        #: Regional gray-slowdown factors (1.0 = nominal).
        self.region_slowdown: List[float] = [1.0] * config.num_regions
        self.preferences: List[Tuple[int, ...]] = [
            self.ring.preference(sid) for sid in range(self.num_shards)
        ]
        self.replicas: List[Dict[int, ShardReplica]] = []
        for sid in range(self.num_shards):
            placed: Dict[int, ShardReplica] = {}
            for region in self.preferences[sid][:config.replication_factor]:
                health = None
                if config.health_enabled:
                    health = ReplicaHealth(
                        enabled=True,
                        window=config.health_window,
                        min_samples=config.health_min_samples,
                        sigma_floor=config.health_sigma_floor,
                        phi_quarantine=config.health_phi_quarantine,
                        probe_after_us=config.health_probe_after_us,
                        probe_successes=config.health_probe_successes,
                        readmit_ratio=config.health_readmit_ratio,
                    )
                placed[region] = ShardReplica(sid, region, health=health)
            self.replicas.append(placed)
        #: Serving primary per shard (region), ``None`` = unavailable.
        self._serving: List[Optional[int]] = [
            self.preferences[sid][0] for sid in range(self.num_shards)
        ]
        self.primary_changes: List[PrimaryChange] = []

    # ------------------------------------------------------------------
    def home_region(self, shard_id: int) -> int:
        """The shard's first-preference (primary) region."""
        return self.preferences[shard_id][0]

    def serving_region(self, shard_id: int) -> Optional[int]:
        """Region currently recorded as the shard's serving primary."""
        return self._serving[shard_id]

    def select(self, shard_id: int, now: float) -> Optional[ShardReplica]:
        """First available replica in preference order (or ``None``)."""
        placed = self.replicas[shard_id]
        for region in self.preferences[shard_id]:
            replica = placed.get(region)
            if replica is not None and replica.available(now, self.region_up):
                return replica
        return None

    def note_serving(self, shard_id: int, region: Optional[int],
                     now: float, reason: str) -> bool:
        """Record who served the shard; returns True on a primary change.

        Every change — away from home on failure *and* back home on
        repair — appends a :class:`PrimaryChange`, which is what the
        drift layer's failover-flap window counts.
        """
        previous = self._serving[shard_id]
        if previous == region:
            return False
        self._serving[shard_id] = region
        self.primary_changes.append(
            PrimaryChange(now, shard_id, previous, region, reason)
        )
        return True

    # ------------------------------------------------------------------
    def region_fail(self, region: int) -> List[int]:
        """A whole failure domain goes dark; its replica data is lost.

        Returns the shards that lost a replica.
        """
        self.region_up[region] = False
        affected: List[int] = []
        for sid, placed in enumerate(self.replicas):
            replica = placed.get(region)
            if replica is not None:
                replica.state = ReplicaState.DEAD
                affected.append(sid)
        return affected

    def region_repair(self, region: int) -> List[int]:
        """The domain returns empty: dead replicas there are garbage.

        Returns shards whose **home** is the repaired region — the
        rebalancer restores those copies so serving can revert home.
        """
        self.region_up[region] = True
        came_home: List[int] = []
        for sid, placed in enumerate(self.replicas):
            replica = placed.get(region)
            if replica is not None and replica.state is ReplicaState.DEAD:
                del placed[region]
            if (self.home_region(sid) == region
                    and region not in placed):
                came_home.append(sid)
        return came_home

    def set_slowdown(self, region: int, factor: float) -> None:
        """Apply (or clear, with 1.0) a gray slowdown to a region."""
        self.region_slowdown[region] = factor

    # ------------------------------------------------------------------
    def active_count(self, shard_id: int) -> int:
        """Replicas of the shard currently ACTIVE in a live region."""
        return sum(
            1 for r in self.replicas[shard_id].values()
            if r.state is ReplicaState.ACTIVE and self.region_up[r.region]
        )

    def replication_counts(self) -> List[int]:
        """Per-shard live replica counts (the fleet's R invariant)."""
        return [self.active_count(sid) for sid in range(self.num_shards)]

    def rebuild_target(self, shard_id: int) -> Optional[int]:
        """Best region for a new copy of the shard, or ``None``.

        First preference-order region that is up and holds no replica
        (dead or otherwise) of the shard.
        """
        placed = self.replicas[shard_id]
        for region in self.preferences[shard_id]:
            if self.region_up[region] and region not in placed:
                return region
        return None

    def begin_rebuild(self, shard_id: int, region: int) -> ShardReplica:
        """Install a REBUILDING placeholder for an in-flight copy."""
        health = None
        if self.config.health_enabled:
            health = ReplicaHealth(
                enabled=True,
                window=self.config.health_window,
                min_samples=self.config.health_min_samples,
                sigma_floor=self.config.health_sigma_floor,
                phi_quarantine=self.config.health_phi_quarantine,
                probe_after_us=self.config.health_probe_after_us,
                probe_successes=self.config.health_probe_successes,
                readmit_ratio=self.config.health_readmit_ratio,
            )
        replica = ShardReplica(
            shard_id, region, state=ReplicaState.REBUILDING, health=health
        )
        self.replicas[shard_id][region] = replica
        return replica

    def finish_rebuild(self, replica: ShardReplica) -> bool:
        """Complete a copy; returns False if the target died meanwhile."""
        if not self.region_up[replica.region]:
            # Copy landed in a dead region: drop it.
            placed = self.replicas[replica.shard_id]
            if placed.get(replica.region) is replica:
                del placed[replica.region]
            return False
        replica.state = ReplicaState.ACTIVE
        return True

    def trim_to_replication_factor(self, shard_id: int) -> List[int]:
        """Drop surplus ACTIVE replicas beyond R, least-preferred first.

        Used after a home-region restore: the emergency copy made
        during the outage is released once the preferred set is whole
        again.  Never drops below R and never drops the home replica.
        Returns the regions trimmed.
        """
        placed = self.replicas[shard_id]
        active = [
            r for r in placed.values()
            if r.state is ReplicaState.ACTIVE and self.region_up[r.region]
        ]
        surplus = len(active) - self.config.replication_factor
        if surplus <= 0:
            return []
        order = {region: i for i, region in
                 enumerate(self.preferences[shard_id])}
        active.sort(key=lambda r: order[r.region], reverse=True)
        trimmed: List[int] = []
        for replica in active[:surplus]:
            if replica.region == self.home_region(shard_id):
                continue
            del placed[replica.region]
            trimmed.append(replica.region)
        return trimmed
