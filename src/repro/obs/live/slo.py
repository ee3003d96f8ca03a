"""SLO definitions, error budgets, and burn-rate alert rules.

An :class:`SLOSpec` maps each :class:`~repro.obs.live.windows.WindowSnapshot`
to a ``(good, total)`` pair — availability (ok over finished), latency
(answered under a threshold over answered), or freshness (fresh legs
over answered legs).  The error budget is ``1 - objective``.

A :class:`BurnRateRule` is the Google-SRE multi-window multi-burn-rate
shape: at each evaluation point it computes the burn rate — observed
bad fraction divided by the budget — over a *long* trailing span and a
*short* trailing span, and breaches only when **both** meet the
threshold.  The long window gives significance (a blip can't page),
the short window gives reset speed (the alert clears quickly once the
system recovers).  Windows with no eligible traffic never breach: an
empty window is unknown, not bad.

An :class:`EventRule` is a symptom rule over counted lifecycle signals
(quarantines, breaker opens, audit mismatches, ...): it breaches when
the trailing sum reaches a threshold.  Burn rules catch "users are
hurting"; event rules catch "the immune system is reacting" — the
chaos timelines need both, because a hedged/failover rescue can keep
user-visible error rates flat while a replica is dark.

:class:`SLOEngine` owns the specs and rules, produces per-window
:class:`RuleEvaluation` decisions for the alert lifecycle
(:mod:`.alerts`), and whole-run :class:`SLOState` budget accounting.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .windows import WindowSnapshot


class SLOError(ValueError):
    """Raised for invalid SLO or rule configurations."""


_SLO_KINDS = ("availability", "latency", "freshness")
_SEVERITIES = ("page", "ticket")


@dataclass(frozen=True)
class SLOSpec:
    """One service-level objective over the telemetry window series."""

    name: str
    #: ``availability`` | ``latency`` | ``freshness``.
    kind: str
    #: Target good fraction, e.g. 0.99 → a 1% error budget.
    objective: float
    #: For ``latency`` SLOs: answered under this bound counts as good.
    latency_threshold_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _SLO_KINDS:
            raise SLOError(f"unknown SLO kind: {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise SLOError(
                f"objective must be in (0, 1): {self.objective}"
            )
        if self.kind == "latency" and not self.latency_threshold_us:
            raise SLOError("latency SLO needs latency_threshold_us")

    @property
    def budget(self) -> float:
        """The error budget: tolerated bad fraction."""
        return 1.0 - self.objective

    def good_total(self, window: WindowSnapshot) -> Tuple[int, int]:
        """``(good, total)`` events of this SLO in one window."""
        if self.kind == "availability":
            return window.ok, window.finished
        if self.kind == "latency":
            good = bisect_right(
                window.latencies, self.latency_threshold_us
            )
            return good, len(window.latencies)
        fresh = sum(window.legs_fresh.values())
        return fresh, window.answered_legs()


@dataclass(frozen=True)
class BurnRateRule:
    """Multi-window multi-burn-rate alert rule over one SLO."""

    name: str
    #: Name of the :class:`SLOSpec` this rule watches.
    slo: str
    #: Breach when burn ≥ threshold over BOTH trailing spans.
    threshold: float
    #: Trailing window counts (long ≥ short ≥ 1).
    long_windows: int
    short_windows: int
    severity: str = "page"

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise SLOError(f"threshold must be > 0: {self.threshold}")
        if not 1 <= self.short_windows <= self.long_windows:
            raise SLOError(
                "need 1 <= short_windows <= long_windows: "
                f"{self.short_windows} / {self.long_windows}"
            )
        if self.severity not in _SEVERITIES:
            raise SLOError(f"unknown severity: {self.severity!r}")


#: Counted lifecycle signals an EventRule may watch.
EVENT_SIGNALS: Dict[str, Callable[[WindowSnapshot], float]] = {
    "quarantines": lambda w: w.quarantines,
    "breaker_opens": lambda w: w.breaker_opens,
    "audit_mismatches": lambda w: w.audit_mismatches,
    "health_transitions": lambda w: w.health_transitions,
    "stale_legs": lambda w: w.stale_legs(),
    "shed_legs": lambda w: sum(w.legs_shed.values()),
    "errors": lambda w: w.errors,
}


@dataclass(frozen=True)
class EventRule:
    """Symptom rule: trailing sum of a counted signal hits a threshold."""

    name: str
    #: One of :data:`EVENT_SIGNALS`.
    signal: str
    #: Breach when the trailing-``windows`` sum ≥ threshold.
    threshold: float
    windows: int = 1
    severity: str = "page"

    def __post_init__(self) -> None:
        if self.signal not in EVENT_SIGNALS:
            raise SLOError(
                f"unknown event signal: {self.signal!r} "
                f"(have {sorted(EVENT_SIGNALS)})"
            )
        if self.threshold <= 0:
            raise SLOError(f"threshold must be > 0: {self.threshold}")
        if self.windows < 1:
            raise SLOError(f"windows must be >= 1: {self.windows}")
        if self.severity not in _SEVERITIES:
            raise SLOError(f"unknown severity: {self.severity!r}")


@dataclass(frozen=True)
class RuleEvaluation:
    """One rule's decision at one evaluation point (a window's end)."""

    window_index: int
    at_us: float
    rule: str
    severity: str
    breached: bool
    #: Burn rate (burn rules: the lower of long/short) or trailing sum
    #: (event rules) — the number compared against the threshold.
    value: float


@dataclass
class SLOState:
    """Whole-run error-budget accounting for one SLO."""

    name: str
    objective: float
    good: int = 0
    total: int = 0

    @property
    def budget(self) -> float:
        return 1.0 - self.objective

    @property
    def attained(self) -> float:
        """Observed good fraction (1.0 with no traffic: nothing failed)."""
        return self.good / self.total if self.total else 1.0

    @property
    def budget_consumed(self) -> float:
        """Fraction of the error budget spent (can exceed 1.0)."""
        if not self.total:
            return 0.0
        return (1.0 - self.attained) / self.budget

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "objective": self.objective,
            "good": self.good,
            "total": self.total,
            "attained": round(self.attained, 6),
            "budget_consumed": round(self.budget_consumed, 6),
        }


class SLOEngine:
    """Evaluates SLO burn-rate and event rules over a window series."""

    def __init__(
        self,
        slos: Sequence[SLOSpec],
        rules: Sequence[object] = (),
    ) -> None:
        self.slos: Dict[str, SLOSpec] = {}
        for spec in slos:
            if spec.name in self.slos:
                raise SLOError(f"duplicate SLO: {spec.name!r}")
            self.slos[spec.name] = spec
        self.burn_rules: List[BurnRateRule] = []
        self.event_rules: List[EventRule] = []
        names = set()
        for rule in rules:
            if rule.name in names:
                raise SLOError(f"duplicate rule: {rule.name!r}")
            names.add(rule.name)
            if isinstance(rule, BurnRateRule):
                if rule.slo not in self.slos:
                    raise SLOError(
                        f"rule {rule.name!r} references unknown SLO "
                        f"{rule.slo!r}"
                    )
                self.burn_rules.append(rule)
            elif isinstance(rule, EventRule):
                self.event_rules.append(rule)
            else:
                raise SLOError(f"unknown rule type: {rule!r}")

    @property
    def rule_names(self) -> List[str]:
        return [r.name for r in self.burn_rules] + [
            r.name for r in self.event_rules
        ]

    # ------------------------------------------------------------------
    def evaluate(
        self, windows: Sequence[WindowSnapshot]
    ) -> List[RuleEvaluation]:
        """Every rule's decision at every window, in (window, rule) order.

        A trailing span shorter than a rule's configured window count
        (the run's first windows) evaluates over what exists — rules
        stay live from the first window instead of going blind during
        a startup fault.
        """
        #: Per-SLO prefix sums of (good, total) for O(1) trailing spans.
        prefix: Dict[str, List[Tuple[int, int]]] = {}
        for name, spec in self.slos.items():
            acc: List[Tuple[int, int]] = [(0, 0)]
            good_sum = total_sum = 0
            for window in windows:
                good, total = spec.good_total(window)
                good_sum += good
                total_sum += total
                acc.append((good_sum, total_sum))
            prefix[name] = acc
        signal_prefix: Dict[str, List[float]] = {}
        for rule in self.event_rules:
            if rule.signal not in signal_prefix:
                getter = EVENT_SIGNALS[rule.signal]
                acc_f: List[float] = [0.0]
                running = 0.0
                for window in windows:
                    running += getter(window)
                    acc_f.append(running)
                signal_prefix[rule.signal] = acc_f

        def span(acc, i, count):
            lo = max(0, i + 1 - count)
            return acc[i + 1], acc[lo]

        evaluations: List[RuleEvaluation] = []
        for i, window in enumerate(windows):
            for rule in self.burn_rules:
                spec = self.slos[rule.slo]
                burn = None
                for count in (rule.long_windows, rule.short_windows):
                    (g_hi, t_hi), (g_lo, t_lo) = span(
                        prefix[rule.slo], i, count
                    )
                    good, total = g_hi - g_lo, t_hi - t_lo
                    if total == 0:
                        burn = None
                        break
                    bad_fraction = 1.0 - good / total
                    rate = bad_fraction / spec.budget
                    burn = rate if burn is None else min(burn, rate)
                evaluations.append(
                    RuleEvaluation(
                        window_index=i,
                        at_us=window.end_us,
                        rule=rule.name,
                        severity=rule.severity,
                        breached=(
                            burn is not None and burn >= rule.threshold
                        ),
                        value=burn if burn is not None else 0.0,
                    )
                )
            for rule in self.event_rules:
                acc_f = signal_prefix[rule.signal]
                hi, lo = span(acc_f, i, rule.windows)
                value = hi - lo
                evaluations.append(
                    RuleEvaluation(
                        window_index=i,
                        at_us=window.end_us,
                        rule=rule.name,
                        severity=rule.severity,
                        breached=value >= rule.threshold,
                        value=value,
                    )
                )
        return evaluations

    def slo_states(
        self, windows: Sequence[WindowSnapshot]
    ) -> Dict[str, SLOState]:
        """Whole-run budget accounting per SLO.

        Sliding series double-count overlapped events; budget states
        are computed over tumbling (non-overlapping) series in the
        monitor pipeline.
        """
        states = {
            name: SLOState(name=name, objective=spec.objective)
            for name, spec in self.slos.items()
        }
        for window in windows:
            for name, spec in self.slos.items():
                good, total = spec.good_total(window)
                states[name].good += good
                states[name].total += total
        return states
