"""`repro.obs` — unified tracing + metrics for the whole stack.

The paper's §II-B "integrated measurement system" reported end-of-run
aggregates; this package adds the *timeline*: simulated-time-native
spans, instants, counters (:mod:`.tracer`), aggregate metric
instruments (:mod:`.metrics`), and a Chrome-trace-event/Perfetto
exporter (:mod:`.chrome`) so a full PROPAGATE wave or an overloaded
serving run opens directly in ``ui.perfetto.dev``.

Instrumented layers (all default to the zero-overhead
:data:`NULL_TRACER` — see ``docs/OBSERVABILITY.md`` for the overhead
contract and the metric catalogue):

* the DES kernel (the ``sample`` hook of
  :meth:`repro.machine.des.Simulator.run`): heap occupancy and
  pending-event sampling;
* the machine simulator: per-instruction phase spans, per-cluster
  decode/MU/CU activity, ICN message traffic, fault injection and
  recovery events;
* the serving host: one span tree per query (admission → attempts →
  hedges → outcome), queue-depth and replica-occupancy series,
  breaker transitions.

Live monitoring lives in :mod:`.live`: a telemetry-event sink the
host and fleet layers stream into, windowed aggregation, burn-rate
SLO alerting, and ground-truth detection scoring over the injected
fault schedules (``python -m repro monitor <workload>``).

Wall-clock performance observability lives in :mod:`.perf`: an
interval-timer sampling profiler with flamegraph export
(``python -m repro perf profile <experiment id>``).

Capture entry points: ``python -m repro trace <workload>``
(:mod:`.capture`), the ``--trace PATH`` flags on ``serve`` and
``experiments``, or programmatically::

    from repro.obs import Tracer, MetricsRegistry
    tracer, metrics = Tracer(), MetricsRegistry()
    report = ServingHost(net, cfg, tracer=tracer, metrics=metrics).serve(qs)
    tracer.to_chrome_json(metrics)   # -> dict for ui.perfetto.dev
"""

from .chrome import export_chrome_json, write_chrome_json
from .metrics import (
    DEFAULT_LATENCY_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
)
from .live import TelemetryEvent, TelemetrySink
from .perf import Profile, SamplingProfiler
from .validate import (
    TraceValidationError,
    metrics_errors,
    validate_chrome_trace,
    validation_errors,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS_US",
    "export_chrome_json",
    "write_chrome_json",
    "validate_chrome_trace",
    "validation_errors",
    "metrics_errors",
    "TraceValidationError",
    "TelemetrySink",
    "TelemetryEvent",
    "SamplingProfiler",
    "Profile",
]
