"""Trace-analysis engine over :mod:`repro.obs` captures.

Ingests a Chrome-trace/Perfetto JSON capture (or a live tracer) back
into span trees, then answers what the timeline only shows visually:
critical paths, latency attribution, measured parallelism, structural
anomalies, and metric drift against golden snapshots.

CLI: ``python -m repro analyze TRACE [--report out.md]
[--compare golden.json]``.
"""

from .attribution import (
    BUCKETS,
    MachineProfile,
    MeasuredParallelism,
    QueryAttribution,
    TrackUtilization,
    aggregate_buckets,
    attribute_queries,
    machine_processes,
    machine_profile,
    measured_parallelism,
    overlap_profile,
    track_utilization,
)
from .critpath import (
    PathSegment,
    critical_path,
    path_duration_us,
    summarize_path,
)
from .drift import (
    Anomaly,
    DriftFinding,
    DriftReport,
    compare_snapshots,
    find_anomalies,
    flatten_numeric,
    is_snapshot,
    make_snapshot,
    snapshot_from_metrics,
)
from .reader import (
    Instant,
    Span,
    Track,
    TraceModel,
    from_tracer,
    read_document,
)
from .report import (
    TraceAnalysis,
    analyze_document,
    main,
)

__all__ = [
    "Anomaly",
    "BUCKETS",
    "DriftFinding",
    "DriftReport",
    "Instant",
    "MachineProfile",
    "MeasuredParallelism",
    "PathSegment",
    "QueryAttribution",
    "Span",
    "Track",
    "TraceAnalysis",
    "TraceModel",
    "TrackUtilization",
    "aggregate_buckets",
    "analyze_document",
    "attribute_queries",
    "compare_snapshots",
    "critical_path",
    "find_anomalies",
    "flatten_numeric",
    "from_tracer",
    "is_snapshot",
    "machine_processes",
    "machine_profile",
    "main",
    "make_snapshot",
    "measured_parallelism",
    "overlap_profile",
    "path_duration_us",
    "read_document",
    "snapshot_from_metrics",
    "summarize_path",
    "track_utilization",
]
