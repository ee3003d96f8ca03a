"""Serving reports: outcomes, latency distribution, replica health.

The host-level analogue of :class:`repro.machine.report.MachineRunReport`:
one record per serving run, covering every submitted query's outcome,
the served-latency distribution (p50/p95/p99), shed/timeout/failure
fractions, admission-queue pressure, and per-replica attempt and
breaker statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .query import QueryOutcome, QueryStatus


def _percentile_sorted(ordered: List[float], p: float) -> float:
    """Nearest-rank percentile of an *already sorted* sample."""
    if not ordered:
        return 0.0
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100]: {p}")
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]) of a sample."""
    if not values:
        return 0.0
    return _percentile_sorted(sorted(values), p)


@dataclass
class ReplicaSummary:
    """Per-replica serving statistics for the report."""

    replica_id: int
    faulty: bool
    attempts: int
    successes: int
    failures: int
    cancelled: int
    busy_us: float
    breaker_state: str
    breaker_opens: int
    #: Lifecycle state when health management is on (``None`` = off).
    health_state: Optional[str] = None
    health_quarantines: int = 0
    health_readmissions: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (JSON-friendly).

        Health keys appear only when the lifecycle ran, so reports
        from health-off runs stay byte-identical to earlier versions.
        """
        out = {
            "replica_id": self.replica_id,
            "faulty": self.faulty,
            "attempts": self.attempts,
            "successes": self.successes,
            "failures": self.failures,
            "cancelled": self.cancelled,
            "busy_us": self.busy_us,
            "breaker_state": self.breaker_state,
            "breaker_opens": self.breaker_opens,
        }
        if self.health_state is not None:
            out["health_state"] = self.health_state
            out["health_quarantines"] = self.health_quarantines
            out["health_readmissions"] = self.health_readmissions
        return out


@dataclass
class ServingReport:
    """Full measurement record of one serving run."""

    outcomes: List[QueryOutcome] = field(default_factory=list)
    #: Simulated time at which the last query reached a terminal state.
    total_time_us: float = 0.0
    replicas: List[ReplicaSummary] = field(default_factory=list)
    queue_max_depth: int = 0
    queue_admitted: int = 0
    #: Answer-integrity audit tallies (0/0 when auditing is off).
    audit_checks: int = 0
    audit_mismatches: int = 0
    #: Memoised sorted served-latency sample, keyed by the outcome
    #: count it was built from (reports can gain outcomes after
    #: construction, e.g. in tests that assemble them by hand).
    _latency_cache: Optional[tuple] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def count(self, status: QueryStatus) -> int:
        """Queries that terminated in one bucket."""
        return sum(1 for o in self.outcomes if o.status is status)

    @property
    def submitted(self) -> int:
        """Queries submitted (= outcomes recorded)."""
        return len(self.outcomes)

    @property
    def served(self) -> int:
        """Queries answered within deadline with an undamaged result."""
        return self.count(QueryStatus.SERVED)

    @property
    def shed(self) -> int:
        """Queries rejected by admission control."""
        return self.count(QueryStatus.SHED)

    @property
    def timed_out(self) -> int:
        """Queries whose deadline watchdog fired."""
        return self.count(QueryStatus.TIMED_OUT)

    @property
    def failed(self) -> int:
        """Queries that exhausted attempts with damaged answers."""
        return self.count(QueryStatus.FAILED)

    @property
    def shed_fraction(self) -> float:
        """Shed share of all submitted queries."""
        return self.shed / self.submitted if self.submitted else 0.0

    def accounted(self) -> bool:
        """Every submitted query in exactly one outcome bucket."""
        ids = [o.query_id for o in self.outcomes]
        if len(ids) != len(set(ids)):
            return False
        buckets = (self.served + self.shed + self.timed_out + self.failed)
        return buckets == self.submitted

    # ------------------------------------------------------------------
    def served_latencies(self) -> List[float]:
        """Arrival-to-answer latencies of served queries, in µs."""
        return [
            o.latency_us for o in self.outcomes
            if o.status is QueryStatus.SERVED
        ]

    def _sorted_served_latencies(self) -> List[float]:
        """Sorted served-latency sample, computed once per outcome set."""
        cached = self._latency_cache
        if cached is not None and cached[0] == len(self.outcomes):
            return cached[1]
        ordered = sorted(self.served_latencies())
        self._latency_cache = (len(self.outcomes), ordered)
        return ordered

    def latency_percentile(self, p: float) -> float:
        """Served-latency percentile, in µs."""
        return _percentile_sorted(self._sorted_served_latencies(), p)

    def latency_summary(self) -> Dict[str, float]:
        """Mean/p50/p95/p99 served latency (µs) from one sorted pass."""
        ordered = self._sorted_served_latencies()
        return {
            "mean": sum(ordered) / len(ordered) if ordered else 0.0,
            "p50": _percentile_sorted(ordered, 50),
            "p95": _percentile_sorted(ordered, 95),
            "p99": _percentile_sorted(ordered, 99),
        }

    def throughput_per_s(self) -> float:
        """Served queries per simulated second."""
        if self.total_time_us <= 0:
            return 0.0
        return self.served / (self.total_time_us / 1e6)

    # ------------------------------------------------------------------
    def outcome_of(self, query_id: int) -> Optional[QueryOutcome]:
        """The outcome record of one query, if present."""
        for outcome in self.outcomes:
            if outcome.query_id == query_id:
                return outcome
        return None

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (JSON-friendly).

        Audit keys appear only when at least one audit ran, keeping
        audit-off reports byte-identical to earlier versions.
        """
        out = {
            "submitted": self.submitted,
            "served": self.served,
            "shed": self.shed,
            "timed_out": self.timed_out,
            "failed": self.failed,
            "shed_fraction": self.shed_fraction,
            "total_time_us": self.total_time_us,
            "latency_us": self.latency_summary(),
            "queue_max_depth": self.queue_max_depth,
            "queue_admitted": self.queue_admitted,
            "replicas": [r.as_dict() for r in self.replicas],
            "outcomes": [o.as_dict() for o in self.outcomes],
        }
        if self.audit_checks:
            out["audit_checks"] = self.audit_checks
            out["audit_mismatches"] = self.audit_mismatches
        return out

    def summary(self) -> Dict[str, Any]:
        """Headline numbers for experiment tables."""
        latency = self.latency_summary()
        return {
            "submitted": self.submitted,
            "served": self.served,
            "shed": self.shed,
            "timed_out": self.timed_out,
            "failed": self.failed,
            "shed_fraction": round(self.shed_fraction, 4),
            "p50_ms": round(latency["p50"] / 1e3, 3),
            "p99_ms": round(latency["p99"] / 1e3, 3),
            "throughput_per_s": round(self.throughput_per_s(), 1),
            "breaker_opens": sum(r.breaker_opens for r in self.replicas),
        }
