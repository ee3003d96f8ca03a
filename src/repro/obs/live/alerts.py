"""The alert lifecycle: fire → ack → resolve, with hysteresis.

:class:`AlertManager` consumes the per-window
:class:`~repro.obs.live.slo.RuleEvaluation` stream and maintains one
state machine per rule:

* **fire** — the first breached evaluation while clear opens an
  :class:`Alert` at that window's end time.
* **ack** — the simulated on-call acknowledges a fixed
  ``ack_after_us`` after firing (deterministic stand-in for a human;
  time-to-ack is then measurable without randomness).
* **resolve** — the alert closes only after ``clear_windows``
  *consecutive* clear evaluations (hysteresis: a single good window
  inside an incident doesn't flap the alert closed), at the end time
  of the last clear window in the streak.

A rule re-fires if it breaches again after resolving — each incident
is its own :class:`Alert` record.  Muted rules are still evaluated
(their breaches are visible in the timeline) but never open alerts;
the CI missed-alert gate mutes one rule and asserts the detection
score collapses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .slo import RuleEvaluation


class AlertState(Enum):
    """Lifecycle states of an alert."""

    FIRING = "firing"
    ACKED = "acked"
    RESOLVED = "resolved"


@dataclass
class Alert:
    """One incident: a rule's fire→ack→resolve episode."""

    rule: str
    severity: str
    fired_at_us: float
    #: Deterministic simulated-on-call acknowledgement time.
    ack_at_us: float
    resolved_at_us: Optional[float] = None
    #: Peak rule value observed while the alert was open.
    peak_value: float = 0.0
    #: Breached evaluations inside the episode.
    breach_count: int = 0

    @property
    def state(self) -> AlertState:
        if self.resolved_at_us is not None:
            return AlertState.RESOLVED
        return AlertState.ACKED

    def duration_us(self) -> Optional[float]:
        """Fire-to-resolve span (None while still open)."""
        if self.resolved_at_us is None:
            return None
        return self.resolved_at_us - self.fired_at_us

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "state": self.state.value,
            "fired_at_us": self.fired_at_us,
            "ack_at_us": self.ack_at_us,
            "resolved_at_us": self.resolved_at_us,
            "peak_value": round(self.peak_value, 6),
            "breach_count": self.breach_count,
        }


class _RuleTracker:
    """Per-rule incident state machine."""

    __slots__ = ("open_alert", "clear_streak")

    def __init__(self) -> None:
        self.open_alert: Optional[Alert] = None
        self.clear_streak = 0


class AlertManager:
    """Turns rule evaluations into the run's alert history."""

    def __init__(
        self,
        ack_after_us: float = 5_000.0,
        clear_windows: int = 2,
        muted: Iterable[str] = (),
    ) -> None:
        if ack_after_us < 0:
            raise ValueError(f"ack_after_us must be >= 0: {ack_after_us}")
        if clear_windows < 1:
            raise ValueError(
                f"clear_windows must be >= 1: {clear_windows}"
            )
        self.ack_after_us = ack_after_us
        self.clear_windows = clear_windows
        self.muted: Set[str] = set(muted)
        self.alerts: List[Alert] = []
        self._trackers: Dict[str, _RuleTracker] = {}

    def process(
        self, evaluations: Sequence[RuleEvaluation]
    ) -> List[Alert]:
        """Run the lifecycle over an evaluation stream.

        Evaluations must be grouped per rule in time order (the
        :meth:`SLOEngine.evaluate` output is).  Returns the full
        alert history, fired-time ordered; alerts still open at the
        end of the stream keep ``resolved_at_us=None``.
        """
        for ev in evaluations:
            if ev.rule in self.muted:
                continue
            tracker = self._trackers.setdefault(ev.rule, _RuleTracker())
            alert = tracker.open_alert
            if ev.breached:
                tracker.clear_streak = 0
                if alert is None:
                    alert = Alert(
                        rule=ev.rule,
                        severity=ev.severity,
                        fired_at_us=ev.at_us,
                        ack_at_us=ev.at_us + self.ack_after_us,
                        peak_value=ev.value,
                        breach_count=1,
                    )
                    tracker.open_alert = alert
                    self.alerts.append(alert)
                else:
                    alert.breach_count += 1
                    alert.peak_value = max(alert.peak_value, ev.value)
            elif alert is not None:
                tracker.clear_streak += 1
                if tracker.clear_streak >= self.clear_windows:
                    alert.resolved_at_us = ev.at_us
                    tracker.open_alert = None
                    tracker.clear_streak = 0
        self.alerts.sort(key=lambda a: (a.fired_at_us, a.rule))
        return self.alerts
