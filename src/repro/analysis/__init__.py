"""Measurement analysis: profiles, speedup, traffic, overheads, α/β."""

from .profiles import (
    CATEGORY_ORDER,
    Profile,
    format_profile_table,
    profile_from_parse_results,
)
from .speedup import (
    SpeedupCurve,
    SweepPoint,
    format_speedup_table,
    knee,
)
from .traffic import (
    TrafficSummary,
    format_traffic_series,
    summarize_traffic,
)
from .overhead import (
    COMPONENTS,
    OverheadSweep,
    format_overhead_table,
)
from .parallelism import (
    ParallelismStats,
    measure_alpha,
    measure_beta,
    parallelism_stats,
)

__all__ = [
    "CATEGORY_ORDER", "Profile", "format_profile_table",
    "profile_from_parse_results",
    "SpeedupCurve", "SweepPoint", "format_speedup_table", "knee",
    "TrafficSummary", "format_traffic_series", "summarize_traffic",
    "COMPONENTS", "OverheadSweep", "format_overhead_table",
    "ParallelismStats", "measure_alpha", "measure_beta",
    "parallelism_stats",
]
