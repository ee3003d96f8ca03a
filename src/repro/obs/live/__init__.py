"""`repro.obs.live` — streaming telemetry, SLOs, and alert scoring.

Everything in :mod:`repro.obs` so far is *post-hoc*: metrics are
end-of-run aggregates and ``analyze`` needs a finished trace file.
This subpackage answers the operational question those cannot — "is
the fleet healthy *right now*, and how fast did we notice it wasn't?"
— on the same simulated clock the serving layers run on:

* :mod:`.events` — the telemetry stream: a :class:`TelemetrySink`
  collects timestamped :class:`TelemetryEvent` records emitted by the
  serving host (arrivals, outcomes, health/breaker transitions,
  audits), the fleet router (per-leg ledgers, region fault events),
  and nothing else — attaching a sink never changes a run
  (monitored == unmonitored is pinned by test and CI).
* :mod:`.windows` — tumbling/sliding window aggregation over the
  stream: qps, p50/p95/p99 latency, shed/error rate, per-shard
  freshness, per-region health, all as deterministic
  :class:`WindowSnapshot` time series (empty windows included).
* :mod:`.slo` — availability/latency/freshness SLOs with error-budget
  accounting and multi-window multi-burn-rate alert rules (fast-burn
  pages, slow-burn tickets) plus event-symptom rules.
* :mod:`.alerts` — the fire → ack → resolve alert lifecycle with
  clear-streak hysteresis and rule muting.
* :mod:`.score` — ground-truth detection scoring: because the fault
  schedules are exact, the monitoring itself is measured —
  time-to-detect, time-to-resolve, precision/recall — and CI-gated.
* :mod:`.monitor` — the ``python -m repro monitor`` pipeline: replay
  a workload (or ingest a trace), render the ops timeline report,
  emit the drift-gated detection snapshot.

See ``docs/OBSERVABILITY.md`` ("Live monitoring & SLOs").
"""

from .alerts import Alert, AlertManager, AlertState
from .events import TelemetryEvent, TelemetrySink
from .score import (
    DetectionScore,
    ScoreConfig,
    TruthMatch,
    score_detection,
    truth_from_replica_timeline,
)
from .slo import BurnRateRule, EventRule, SLOEngine, SLOSpec, SLOState
from .windows import (
    WindowConfig,
    WindowSnapshot,
    aggregate_windows,
)

__all__ = [
    "Alert",
    "AlertManager",
    "AlertState",
    "BurnRateRule",
    "DetectionScore",
    "EventRule",
    "SLOEngine",
    "SLOSpec",
    "SLOState",
    "ScoreConfig",
    "TelemetryEvent",
    "TelemetrySink",
    "TruthMatch",
    "WindowConfig",
    "WindowSnapshot",
    "aggregate_windows",
    "score_detection",
    "truth_from_replica_timeline",
]
