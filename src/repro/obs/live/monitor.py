"""The monitor pipeline: replay a workload, watch it, score the watch.

Glues the live-telemetry layers end-to-end for the ``python -m repro
monitor`` CLI, the experiment contract checks, and CI:

1. the workload's experiment module (``monitor_chaos`` in
   :mod:`repro.experiments.chaos`, ``monitor_fleetchaos`` in
   :mod:`repro.experiments.fleetchaos`) serves it with a
   :class:`~repro.obs.live.events.TelemetrySink` attached and calls
   :func:`run_pipeline` (or the CLI ingests an existing trace capture);
2. aggregate the stream into the windowed series (:mod:`.windows`);
3. evaluate SLO burn-rate + symptom rules (:mod:`.slo`) and drive the
   alert lifecycle (:mod:`.alerts`);
4. score the alerts against the schedule-exported fault ground truth
   (:mod:`.score`);
5. render the ops timeline report (:mod:`.report`) and the flat
   snapshot that rides the existing ``analyze --compare`` drift gate.

The per-workload :class:`MonitorSpec` constants double as the
*documented* detection bounds: ``spec.score.ttd_bound_us`` is the
simulated-time bound the acceptance gate enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ...machine.faults import FaultWindow
from ..analyze.drift import make_snapshot
from .alerts import Alert, AlertManager
from .events import TelemetryEvent, TelemetrySink
from .score import DetectionScore, ScoreConfig, score_detection
from .slo import (
    BurnRateRule,
    EventRule,
    RuleEvaluation,
    SLOEngine,
    SLOSpec,
    SLOState,
)
from .windows import WindowConfig, WindowSnapshot, aggregate_windows


@dataclass(frozen=True)
class MonitorSpec:
    """A workload's monitoring contract: windows, SLOs, rules, bounds."""

    workload: str
    window: WindowConfig
    slos: Tuple[SLOSpec, ...]
    rules: Tuple[object, ...]
    score: ScoreConfig
    #: Simulated on-call acknowledgement delay.
    ack_after_us: float = 5_000.0
    #: Consecutive clear evaluations before an alert resolves.
    clear_windows: int = 2


@dataclass
class MonitorRun:
    """Everything one monitored run produced."""

    spec: MonitorSpec
    horizon_us: float
    events: Sequence[TelemetryEvent]
    truth: Tuple[FaultWindow, ...]
    windows: List[WindowSnapshot]
    evaluations: List[RuleEvaluation]
    alerts: List[Alert]
    slo_states: Dict[str, SLOState]
    score: DetectionScore
    muted: Set[str] = field(default_factory=set)
    #: The serving report the telemetry came from (None when ingested
    #: from a trace).
    report: Any = None

    def gate_problems(self) -> List[str]:
        """Detection-gate verdict (empty iff the monitoring passed)."""
        return self.score.gate_problems(self.spec.score)


def run_pipeline(
    spec: MonitorSpec,
    events: Sequence[TelemetryEvent],
    truth: Sequence[FaultWindow],
    horizon_us: Optional[float] = None,
    muted: Iterable[str] = (),
    report: Any = None,
) -> MonitorRun:
    """Windows → rules → alerts → detection score, deterministically."""
    muted_set = set(muted)
    engine = SLOEngine(spec.slos, spec.rules)
    unknown = muted_set - set(engine.rule_names)
    if unknown:
        raise ValueError(
            f"muting unknown rule(s): {sorted(unknown)} "
            f"(have {sorted(engine.rule_names)})"
        )
    if horizon_us is None:
        horizon_us = max((e.ts_us for e in events), default=0.0)
    windows = aggregate_windows(events, spec.window, horizon_us)
    evaluations = engine.evaluate(windows)
    manager = AlertManager(
        ack_after_us=spec.ack_after_us,
        clear_windows=spec.clear_windows,
        muted=muted_set,
    )
    alerts = manager.process(evaluations)
    slo_states = engine.slo_states(windows)
    score = score_detection(truth, alerts, spec.score, horizon_us)
    return MonitorRun(
        spec=spec,
        horizon_us=horizon_us,
        events=events,
        truth=tuple(truth),
        windows=windows,
        evaluations=evaluations,
        alerts=alerts,
        slo_states=slo_states,
        score=score,
        muted=muted_set,
        report=report,
    )


# ----------------------------------------------------------------------
# Workload specs.  Thresholds are tuned against the deterministic
# chaos/fleetchaos timelines and pinned by the drift-gated snapshots;
# the ttd bounds here are the documented detection contracts.
# ----------------------------------------------------------------------
def chaos_spec(mean_service_us: float) -> MonitorSpec:
    """Monitoring contract for the host-level rolling-gray chaos run.

    Windows are one mean-service-time wide (the timeline's natural
    unit: regimes switch at 2x/6x/10x/12x/14x/20x).  Detection bound:
    every injected replica-fault window is alerted within **7 mean
    service times** of onset — the slowest detector is the silent
    gray mode, where the phi detector needs ``health_min_samples``
    observations of the slow replica and the audit needs a sampled
    mismatch, which takes ~6 windows on this timeline.
    """
    m = mean_service_us
    return MonitorSpec(
        workload="chaos",
        window=WindowConfig(width_us=m),
        slos=(
            SLOSpec("availability", "availability", objective=0.95),
            SLOSpec(
                "latency", "latency", objective=0.90,
                latency_threshold_us=6.0 * m,
            ),
        ),
        rules=(
            BurnRateRule(
                "availability-page", slo="availability",
                threshold=2.0, long_windows=4, short_windows=1,
                severity="page",
            ),
            BurnRateRule(
                "latency-ticket", slo="latency",
                threshold=2.0, long_windows=6, short_windows=2,
                severity="ticket",
            ),
            EventRule(
                "quarantine-page", signal="quarantines",
                threshold=1, windows=1, severity="page",
            ),
            EventRule(
                "breaker-page", signal="breaker_opens",
                threshold=1, windows=1, severity="page",
            ),
            EventRule(
                "audit-ticket", signal="audit_mismatches",
                threshold=1, windows=2, severity="ticket",
            ),
        ),
        score=ScoreConfig(
            ttd_bound_us=7.0 * m,
            grace_us=2.0 * m,
        ),
        ack_after_us=0.5 * m,
        clear_windows=2,
    )


def fleetchaos_spec() -> MonitorSpec:
    """Monitoring contract for the fleet regional-outage run.

    20 ms tumbling windows over the ~440 ms timeline.  The freshness
    burn rule is the outage detector (a dead home region turns its
    shards' legs stale); the quarantine rule is the gray detector
    (phi-accrual catches the 3x slowdown).  Detection bound: 60 ms of
    simulated time from fault onset.
    """
    return MonitorSpec(
        workload="fleetchaos",
        window=WindowConfig(width_us=20_000.0),
        slos=(
            SLOSpec("availability", "availability", objective=0.99),
            SLOSpec(
                "latency", "latency", objective=0.90,
                latency_threshold_us=30_000.0,
            ),
            SLOSpec("freshness", "freshness", objective=0.95),
        ),
        rules=(
            BurnRateRule(
                "freshness-page", slo="freshness",
                threshold=2.0, long_windows=2, short_windows=1,
                severity="page",
            ),
            BurnRateRule(
                "availability-page", slo="availability",
                threshold=2.0, long_windows=3, short_windows=1,
                severity="page",
            ),
            BurnRateRule(
                "latency-ticket", slo="latency",
                threshold=2.0, long_windows=4, short_windows=2,
                severity="ticket",
            ),
            EventRule(
                "quarantine-page", signal="quarantines",
                threshold=1, windows=1, severity="page",
            ),
        ),
        score=ScoreConfig(
            ttd_bound_us=60_000.0,
            grace_us=20_000.0,
        ),
        ack_after_us=10_000.0,
        clear_windows=2,
    )


# ----------------------------------------------------------------------
def events_from_trace(document: Dict) -> List[TelemetryEvent]:
    """Reconstruct a telemetry stream from a trace capture.

    Ingestion path for ``monitor --from-trace``: per-query spans on
    the ``queries``/``fleet-queries`` tracks become arrival/outcome
    events; breaker/health/audit instants on host replica tracks and
    region-event instants on the fleet router track become their
    lifecycle events.  Leg-level detail is not reconstructable from
    the trace, so freshness signals stay empty — trace-fed runs
    render the timeline but carry no injected-fault ground truth.
    """
    from ..analyze.reader import read_document

    model = read_document(document)
    sink = TelemetrySink()
    emit = sink.emit
    for process in ("queries", "fleet-queries"):
        for track in model.tracks_of(process):
            for span in track.spans:
                qid = span.args.get("query_id")
                emit(span.start_us, "arrival", ("query_id",), qid)
                emit(
                    span.end_us, "query",
                    ("query_id", "status", "arrival_us", "latency_us"),
                    qid, span.args.get("status", "unknown"),
                    span.start_us, span.duration_us,
                )
    for process in ("host", "fleet"):
        for track in model.tracks_of(process):
            for instant in track.instants:
                name = instant.name
                args = instant.args
                if name.startswith("breaker-"):
                    emit(
                        instant.ts_us, "breaker",
                        ("from_state", "to_state"),
                        args.get("from_state"), name[len("breaker-"):],
                    )
                elif name.startswith("health-"):
                    emit(
                        instant.ts_us, "health",
                        ("from_state", "to_state", "reason"),
                        args.get("from_state"), name[len("health-"):],
                        args.get("reason"),
                    )
                elif name.startswith("audit-"):
                    emit(instant.ts_us, "audit", ("ok",), name == "audit-ok")
                elif name.startswith("region-"):
                    emit(
                        instant.ts_us, "fault", ("event", "region"),
                        name, args.get("region"),
                    )
    return sink.ordered()


# ----------------------------------------------------------------------
def monitor_snapshot(run: MonitorRun) -> Dict[str, object]:
    """The drift-gated snapshot of a monitored run.

    Flat numeric keys only (the :mod:`..analyze.drift` contract);
    every value is simulated-time deterministic, so the default 2%
    tolerance band is effectively an equality pin.
    """
    values: Dict[str, object] = {
        "events.count": len(run.events),
        "windows.count": len(run.windows),
        "truth.count": run.score.truth_count,
        "score.detected": run.score.detected_count,
        "score.recall": run.score.recall,
        "score.precision": run.score.precision,
        "score.false_alerts": len(run.score.false_alerts),
        "score.fired_in_warmup": run.score.fired_in_warmup,
        "alerts.total": len(run.alerts),
        "alerts.resolved": sum(
            1 for a in run.alerts if a.resolved_at_us is not None
        ),
        "alerts.pages": sum(
            1 for a in run.alerts if a.severity == "page"
        ),
        "alerts.tickets": sum(
            1 for a in run.alerts if a.severity == "ticket"
        ),
    }
    if run.score.max_ttd_us is not None:
        values["score.max_ttd_us"] = run.score.max_ttd_us
        values["score.mean_ttd_us"] = run.score.mean_ttd_us
    if run.score.max_ttr_us is not None:
        values["score.max_ttr_us"] = run.score.max_ttr_us
    rule_fires: Dict[str, int] = {}
    for alert in run.alerts:
        rule_fires[alert.rule] = rule_fires.get(alert.rule, 0) + 1
    for rule, count in sorted(rule_fires.items()):
        values[f"alerts.rule.{rule}"] = count
    for name in sorted(run.slo_states):
        state = run.slo_states[name]
        values[f"slo.{name}.attained"] = round(state.attained, 6)
        values[f"slo.{name}.budget_consumed"] = round(
            state.budget_consumed, 6
        )
        values[f"slo.{name}.total"] = state.total
    return make_snapshot(
        values, workload=f"monitor-{run.spec.workload}"
    )
