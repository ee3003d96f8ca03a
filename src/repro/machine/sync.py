"""Tiered barrier synchronization (paper §III-C, Figs. 13–14).

MIMD propagation has no global view: the controller must determine
that (1) all PEs are idle and (2) no markers are in transit.  SNAP-1
solves this with an **AND-tree** carrying a synchronization interlock
signal (SIGI) from every processor's idle line, plus per-**level**
marker message counters: each PE increments its counter on every
process creation and decrements on termination; the barrier for a
level completes when the global sum is zero while all PEs are idle.
Tiering (one counter per overlapped propagation level) prevents false
detection when several PROPAGATE instructions are in flight.

:class:`TieredSynchronizer` implements the protocol exactly (per-PE,
per-level counters).  The timed machine keeps only what the barrier
tests, each level's global sum: its count of marker processes not
finished yet.  :class:`SyncStats` records the message count at each
barrier, which is the data series of Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


class SyncError(RuntimeError):
    """Raised when counters go negative (protocol violation)."""


class TieredSynchronizer:
    """Per-PE, per-level produced/consumed counters + AND-tree idle."""

    def __init__(self, num_pes: int) -> None:
        self.num_pes = num_pes
        #: counters[level][pe] = creations - terminations reported.
        self._counters: Dict[int, List[int]] = {}
        #: totals[level] = sum(counters[level]), kept as counts arrive
        #: so neither a consume nor the barrier test sums over PEs.
        self._totals: Dict[int, int] = {}
        self._idle: List[bool] = [True] * num_pes
        self.max_level_seen = -1

    # -- PE-side reporting ------------------------------------------------
    def _out_of_range(self, pe: int, level: int) -> SyncError:
        return SyncError(
            f"pe {pe} out of range [0, {self.num_pes}) at level {level}"
        )

    def _new_level(self, level: int) -> List[int]:
        counters = self._counters[level] = [0] * self.num_pes
        self._totals[level] = 0
        return counters

    def produce(self, pe: int, level: int, count: int = 1) -> None:
        """PE reports ``count`` process creations at a level."""
        if not 0 <= pe < self.num_pes:
            raise self._out_of_range(pe, level)
        counters = self._counters.get(level)
        if counters is None:
            counters = self._new_level(level)
        counters[pe] += count
        self._totals[level] += count
        if level > self.max_level_seen:
            self.max_level_seen = level

    def consume(self, pe: int, level: int, count: int = 1) -> None:
        """PE reports ``count`` process terminations at a level."""
        if not 0 <= pe < self.num_pes:
            raise self._out_of_range(pe, level)
        counters = self._counters.get(level)
        if counters is None:
            counters = self._new_level(level)
        # Validate before mutating: a rejected over-consumption must
        # not leave the level balance negative.
        totals = self._totals
        if totals[level] < count:
            raise SyncError(
                f"pe {pe}, level {level}: more terminations than creations"
            )
        counters[pe] -= count
        totals[level] -= count

    def set_idle(self, pe: int, idle: bool) -> None:
        """Drive one input of the AND-tree (GP I/O idle line)."""
        self._idle[pe] = idle

    # -- controller-side detection ---------------------------------------
    @property
    def sigi(self) -> bool:
        """The AND-tree output: true when every PE reports idle."""
        return all(self._idle)

    def level_balance(self, level: int) -> int:
        """Global sum of a level's counters (0 = no markers in transit)."""
        return self._totals.get(level, 0)

    def level_complete(self, level: int) -> bool:
        """Barrier condition for one level: idle AND balanced."""
        return self.sigi and self.level_balance(level) == 0

    def all_complete(self) -> bool:
        """Every level balanced and all PEs idle."""
        return self.sigi and not any(self._totals.values())

    def active_levels(self) -> List[int]:
        """Levels with markers still in transit."""
        return sorted(
            level for level, total in self._totals.items() if total != 0
        )

    def reset_level(self, level: int) -> None:
        """Retire a completed level's counters."""
        if self._totals.get(level, 0) != 0:
            raise SyncError(f"reset of unbalanced level {level}")
        self._counters.pop(level, None)
        self._totals.pop(level, None)


def barrier_cost(num_pes: int, t_sync_base: float, t_sync_per_pe: float) -> float:
    """Barrier detection latency.

    *"The barrier synchronization overhead is proportional to the
    number of processors, but the dependency is small"* (Fig. 21): the
    AND-tree itself is O(log p) gates, but counter reporting over the
    sync network serializes per PE.
    """
    return t_sync_base + t_sync_per_pe * num_pes


@dataclass
class SyncPoint:
    """One completed barrier: when, which level, traffic since last."""

    index: int
    time: float
    level: int
    messages: int


@dataclass
class SyncStats:
    """Barrier history: the marker-traffic time distribution of Fig. 8."""

    points: List[SyncPoint] = field(default_factory=list)
    _messages_since_last: int = 0

    def count_message(self, count: int = 1) -> None:
        """Record inter-cluster marker activations between barriers."""
        self._messages_since_last += count

    def barrier(self, time: float, level: int) -> SyncPoint:
        """Close out a sync point; resets the interval message count."""
        point = SyncPoint(
            index=len(self.points),
            time=time,
            level=level,
            messages=self._messages_since_last,
        )
        self.points.append(point)
        self._messages_since_last = 0
        return point

    def messages_per_sync(self) -> List[int]:
        """The Fig. 8 series: activation messages at each sync point."""
        return [p.messages for p in self.points]

    @property
    def mean_messages(self) -> float:
        """Mean messages per sync point."""
        series = self.messages_per_sync()
        return sum(series) / len(series) if series else 0.0

    def bursts(self, threshold: int = 30) -> int:
        """Sync intervals whose traffic exceeded ``threshold`` messages."""
        return sum(1 for m in self.messages_per_sync() if m > threshold)
