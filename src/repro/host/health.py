"""Per-replica health scoring and the quarantine lifecycle.

The circuit breaker (:mod:`repro.host.breaker`) only reacts to
query-visible damage — fault counters the machine itself reports.
Gray failures produce none: a replica whose MUs run 3x slow, or one
silently dropping activation markers, completes every attempt
"successfully".  The health layer closes that gap with three parts:

* A **phi-accrual failure detector** over attempt service-time ratios
  (observed service / healthy baseline).  The phi score is the
  negative log of the probability that the recent window of ratios
  came from a healthy replica; it rises smoothly as latency degrades,
  so slow-but-alive replicas are caught without a hard timeout.
* A **quarantine → probe → readmit state machine** layered under the
  breaker.  When phi crosses the quarantine threshold the replica is
  removed from dispatch; after a hold-off one probe query at a time is
  admitted, and consecutive healthy probes readmit it.
* **Audit hooks**: the host's answer-integrity audit (shadow
  re-execution on a healthy replica) calls
  :meth:`ReplicaHealth.record_audit_failure` on a mismatch, which
  quarantines immediately — the only detection path for silent marker
  drop, which is invisible to both the breaker and the latency signal
  when the dropped marker shortens the run.

All timestamps are simulated microseconds supplied by the caller, so
lifecycle behaviour is deterministic: same seed, same timeline, same
transitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List


class HealthError(ValueError):
    """Raised for invalid health-detector parameters."""


class HealthState(str, Enum):
    """Lifecycle states of a replica under health management."""

    ACTIVE = "active"
    QUARANTINED = "quarantined"
    PROBING = "probing"


@dataclass(frozen=True)
class HealthTransition:
    """One lifecycle change, for the serving report's audit trail."""

    time_us: float
    from_state: HealthState
    to_state: HealthState
    phi: float = 0.0
    reason: str = ""


class PhiAccrualDetector:
    """Phi-accrual suspicion score over service-time ratios.

    Each observation is an attempt's ``service_us`` divided by the
    healthy baseline for the same query (optionally inflated by a
    damage term).  A healthy replica scores ~1.0 per observation; the
    detector keeps a sliding window and asks how improbable it is that
    the window mean sits above 1.0 by chance:

        z   = (mean - 1) / (sigma / sqrt(n))
        phi = -log10( 0.5 * erfc(z / sqrt(2)) )

    ``sigma`` is floored (``sigma_floor``) so a perfectly-steady
    degraded replica still accrues suspicion instead of dividing by a
    zero spread.
    """

    def __init__(
        self,
        window: int = 12,
        min_samples: int = 4,
        sigma_floor: float = 0.08,
    ) -> None:
        if window < 2:
            raise HealthError(f"window must be >= 2: {window}")
        if not 1 <= min_samples <= window:
            raise HealthError(
                f"min_samples must be in [1, window]: {min_samples}"
            )
        if sigma_floor <= 0:
            raise HealthError(f"sigma_floor must be > 0: {sigma_floor}")
        self.window = window
        self.min_samples = min_samples
        self.sigma_floor = sigma_floor
        self._scores: List[float] = []

    def observe(self, score: float) -> None:
        """Fold one attempt score into the sliding window."""
        self._scores.append(score)
        if len(self._scores) > self.window:
            del self._scores[0]

    def reset(self) -> None:
        """Forget the window (replica readmitted after repair)."""
        self._scores.clear()

    @property
    def samples(self) -> int:
        return len(self._scores)

    def mean(self) -> float:
        if not self._scores:
            return 0.0
        return sum(self._scores) / len(self._scores)

    def phi(self) -> float:
        """Current suspicion level (0 = healthy, higher = worse)."""
        n = len(self._scores)
        if n < self.min_samples:
            return 0.0
        mean = self.mean()
        if mean <= 1.0:
            return 0.0
        var = sum((s - mean) ** 2 for s in self._scores) / n
        sigma = max(math.sqrt(var), self.sigma_floor)
        z = (mean - 1.0) / (sigma / math.sqrt(n))
        tail = 0.5 * math.erfc(z / math.sqrt(2.0))
        return -math.log10(max(tail, 1e-300))


class ReplicaHealth:
    """Quarantine lifecycle for one replica.

    Mirrors the breaker's calling convention — ``allow`` at dispatch,
    ``acquire``/``release`` around in-flight probes, one verdict call
    per completed attempt — so the host layers it under the breaker
    without restructuring the dispatch loop.  A disabled instance
    (``enabled=False``) admits everything and never transitions.
    """

    def __init__(
        self,
        enabled: bool = True,
        window: int = 12,
        min_samples: int = 4,
        sigma_floor: float = 0.08,
        damage_weight: float = 0.5,
        phi_quarantine: float = 8.0,
        probe_after_us: float = 30_000.0,
        probe_successes: int = 2,
        readmit_ratio: float = 1.5,
    ) -> None:
        if damage_weight < 0:
            raise HealthError(f"damage_weight must be >= 0: {damage_weight}")
        if phi_quarantine <= 0:
            raise HealthError(
                f"phi_quarantine must be > 0: {phi_quarantine}"
            )
        if probe_after_us < 0:
            raise HealthError(
                f"probe_after_us must be >= 0: {probe_after_us}"
            )
        if probe_successes < 1:
            raise HealthError(
                f"probe_successes must be >= 1: {probe_successes}"
            )
        if readmit_ratio <= 0:
            raise HealthError(
                f"readmit_ratio must be > 0: {readmit_ratio}"
            )
        self.enabled = enabled
        self.detector = PhiAccrualDetector(window, min_samples, sigma_floor)
        self.damage_weight = damage_weight
        self.phi_quarantine = phi_quarantine
        self.probe_after_us = probe_after_us
        self.probe_successes = probe_successes
        self.readmit_ratio = readmit_ratio
        self.state = HealthState.ACTIVE
        self.quarantined_at_us = 0.0
        self.quarantines = 0
        self.readmissions = 0
        self.probes = 0
        self.audit_failures = 0
        self.transitions: List[HealthTransition] = []
        self._probe_in_flight = False
        self._probe_streak = 0

    # ------------------------------------------------------------------
    def _transition(
        self, now: float, to_state: HealthState,
        phi: float = 0.0, reason: str = "",
    ) -> None:
        self.transitions.append(
            HealthTransition(now, self.state, to_state, phi, reason)
        )
        self.state = to_state

    def _quarantine(self, now: float, phi: float, reason: str) -> None:
        self._transition(now, HealthState.QUARANTINED, phi, reason)
        self.quarantined_at_us = now
        self.quarantines += 1
        self._probe_in_flight = False
        self._probe_streak = 0

    # ------------------------------------------------------------------
    def allow(self, now: float) -> bool:
        """Whether the dispatcher may route an attempt here at ``now``.

        Observing an expired hold-off lazily moves QUARANTINED →
        PROBING; in the probing state one attempt is admitted at a
        time.
        """
        if not self.enabled:
            return True
        if self.state is HealthState.QUARANTINED:
            if now < self.quarantined_at_us + self.probe_after_us:
                return False
            self._transition(now, HealthState.PROBING, reason="hold-off")
            self._probe_in_flight = False
            self._probe_streak = 0
        if self.state is HealthState.PROBING:
            return not self._probe_in_flight
        return True

    def acquire(self, now: float) -> None:
        """Reserve the probe slot :meth:`allow` granted (no-op when active)."""
        if self.enabled and self.state is HealthState.PROBING:
            self._probe_in_flight = True
            self.probes += 1

    def release(self) -> None:
        """Return a reserved probe slot without a verdict (cancelled)."""
        if self.enabled and self.state is HealthState.PROBING:
            self._probe_in_flight = False

    def record_attempt(
        self, now: float, service_ratio: float, damage: int
    ) -> None:
        """Fold one completed attempt into the lifecycle.

        ``service_ratio`` is observed service over the healthy
        baseline for the same query; ``damage`` is the attempt's
        ``query_visible_failures`` count.
        """
        if not self.enabled:
            return
        if self.state is HealthState.QUARANTINED:
            # Stale verdict from an attempt issued before quarantine.
            return
        if self.state is HealthState.PROBING:
            self._probe_in_flight = False
            ok = damage == 0 and service_ratio <= self.readmit_ratio
            if ok:
                self._probe_streak += 1
                if self._probe_streak >= self.probe_successes:
                    self.detector.reset()
                    self.readmissions += 1
                    self._transition(
                        now, HealthState.ACTIVE, reason="readmitted"
                    )
                return
            self._quarantine(now, self.detector.phi(), "probe-failed")
            return
        self.detector.observe(
            service_ratio + self.damage_weight * damage
        )
        phi = self.detector.phi()
        if phi >= self.phi_quarantine:
            self._quarantine(now, phi, "phi")

    def record_audit_failure(self, now: float) -> None:
        """An integrity audit caught a wrong answer from this replica."""
        self.audit_failures += 1
        if not self.enabled or self.state is HealthState.QUARANTINED:
            return
        self._quarantine(now, self.detector.phi(), "audit")


def health_transition_records(
    health: "ReplicaHealth", replica_id: int
) -> List[tuple]:
    """One ``(ts_us, fields)`` record per lifecycle transition.

    The shape telemetry sinks ingest (``kind="health"`` events):
    flat fields, enum values as strings, phi rounded so downstream
    snapshots are platform-stable.  Shared by the serving host and
    the fleet router so host-level and fleet-level health events
    aggregate identically.
    """
    return [
        (
            t.time_us,
            {
                "replica": replica_id,
                "from_state": t.from_state.value,
                "to_state": t.to_state.value,
                "phi": round(t.phi, 4),
                "reason": t.reason,
            },
        )
        for t in health.transitions
    ]
