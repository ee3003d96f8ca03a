"""`repro.obs.perf` — wall-clock performance observatory.

The rest of :mod:`repro.obs` watches *simulated* time; this package
watches the **host clock**, the quantity the ROADMAP's "as fast as
the hardware allows" north star is denominated in:

* :mod:`.profiler` — an interval-timer sampling profiler of the main
  thread (no ``sys.setprofile``) producing folded flamegraph stacks,
  a deterministic hot-spot report with subsystem bucket rollups, and
  a wall-vs-simulated join that attributes real seconds to pipeline
  phases when a trace is captured on the same run.
* :mod:`.cli` — ``python -m repro perf profile ID [ID...]``, which
  runs experiments under the profiler.

Wall-clock regressions are gated by the repository benchmark
(``perfbench/``, declared in ``BENCHMARK.json``).
"""

from .profiler import (
    BUCKET_PREFIXES,
    DEFAULT_HZ,
    Profile,
    ProfilerThreadError,
    SamplingProfiler,
    bucket_of,
    frame_label,
    module_of,
    phase_durations_us,
    wall_simulated_join,
)

__all__ = [
    "BUCKET_PREFIXES",
    "DEFAULT_HZ",
    "Profile",
    "ProfilerThreadError",
    "SamplingProfiler",
    "bucket_of",
    "frame_label",
    "module_of",
    "phase_durations_us",
    "wall_simulated_join",
]
