"""Low-overhead wall-clock sampling profiler.

Everything else in :mod:`repro.obs` observes *simulated* time; this
module observes the **host clock** — where the real seconds go while
the simulator runs.  A wall-clock interval timer (``ITIMER_REAL``)
raises ``SIGALRM`` at a configurable rate, and the handler records the
Python stack the main thread was running (no ``sys.setprofile`` hooks:
the workload executes unmodified, and overhead is bounded by the
sampling rate rather than by the event rate of the profiled code).

Three consumers of one sample table:

* **Folded stacks** (:meth:`Profile.folded`): the
  ``root;child;leaf count`` format every flamegraph renderer accepts
  (``flamegraph.pl``, speedscope, ``inferno``).
* **Hot-spot report** (:meth:`Profile.report`): top frames by
  inclusive/exclusive samples plus a module-level rollup into
  subsystem buckets (``repro.core.backends``, ``repro.machine``,
  ``repro.host``, …) so "which layer burns the wall" needs no
  renderer.  The report *structure* is deterministic — sections,
  columns, sort order — while the counts are measurements.
* **Wall-vs-simulated join** (:func:`wall_simulated_join`): when a
  simulated-time trace was captured on the same run, attribute real
  seconds to pipeline phases by matching phase names against sampled
  frames — e.g. how much wall the functional engine's worklist costs
  inside a PROPAGATE that is "cheap" in simulated time.

Sampling honesty: Python runs a signal handler between bytecodes, so
a tick that lands inside a C call (a numpy kernel, say) is recorded
when the call returns, against the Python frame that made it.  That is
where the time belongs.  A sampler *thread* is biased instead: it
needs the GIL to read another thread's stack, so its samples land
wherever the main thread happens to release the GIL.  Counts are
estimates; ratios between frames on the same profile are the signal.
"""

from __future__ import annotations

import re
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Default sampling rate (samples/second).  A prime-ish off-round rate
#: avoids lockstep with periodic work in the profiled code.
DEFAULT_HZ = 197.0

#: Stacks deeper than this are truncated at the root end (the leaf —
#: where the time is spent — is always kept).
MAX_STACK_DEPTH = 128

#: Subsystem buckets for the module rollup, longest prefix wins.
#: ``repro.core.backends`` is split out from ``repro.core`` (and
#: ``repro.machine.des`` from ``repro.machine``) because those two
#: modules are the hot kernels perfbench's rollup metrics watch.
BUCKET_PREFIXES = (
    "repro.core.backends",
    "repro.core",
    "repro.machine.des",
    "repro.machine",
    "repro.host",
    "repro.fleet",
    "repro.obs",
    "repro.network",
    "repro.isa",
    "repro.experiments",
    "repro.apps",
    "repro.baselines",
    "repro",
)

#: Non-repro top-level packages worth naming in the rollup (numpy is
#: where vectorized-kernel time should land); everything else is
#: ``other``.
NAMED_FOREIGN_BUCKETS = ("numpy",)


def module_of(filename: str) -> str:
    """Dotted module path for a frame's source file.

    Files under a ``repro`` package root map to ``repro.x.y``;
    site-packages files map to their package path; anything else
    (stdlib, scripts) maps to its basename.
    """
    parts = [p for p in filename.replace("\\", "/").split("/") if p]
    anchor = None
    for marker in ("site-packages", "dist-packages"):
        if marker in parts:
            anchor = parts.index(marker) + 1
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
    if anchor is None or anchor >= len(parts):
        tail = [parts[-1]] if parts else ["<unknown>"]
    else:
        tail = parts[anchor:]
    if tail[-1].endswith(".py"):
        tail[-1] = tail[-1][:-3]
    if tail[-1] == "__init__" and len(tail) > 1:
        tail = tail[:-1]
    return ".".join(tail)


def frame_label(filename: str, function: str) -> str:
    """Canonical ``module:function`` label for one stack frame."""
    return f"{module_of(filename)}:{function}"


def bucket_of(label: str) -> str:
    """Subsystem bucket for a frame label (longest matching prefix)."""
    module = label.split(":", 1)[0]
    for prefix in BUCKET_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return prefix
    top = module.split(".", 1)[0]
    if top in NAMED_FOREIGN_BUCKETS:
        return top
    return "other"


@dataclass
class Profile:
    """The result of one sampling run: a stack → sample-count table."""

    #: ``{(root_label, ..., leaf_label): samples}``.
    samples: Dict[Tuple[str, ...], int] = field(default_factory=dict)
    sample_count: int = 0
    duration_s: float = 0.0
    hz: float = DEFAULT_HZ

    @property
    def effective_hz(self) -> float:
        """Achieved sampling rate (scheduler pressure lowers it)."""
        if self.duration_s <= 0:
            return 0.0
        return self.sample_count / self.duration_s

    @property
    def seconds_per_sample(self) -> float:
        """Wall seconds one sample represents on this profile."""
        if self.sample_count == 0:
            return 0.0
        return self.duration_s / self.sample_count

    # -- folded stacks --------------------------------------------------
    def folded(self) -> str:
        """Flamegraph-compatible folded stacks, sorted for determinism.

        One line per distinct stack: ``root;child;leaf count``.  Empty
        profiles fold to the empty string.
        """
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(self.samples.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    # -- frame tables ---------------------------------------------------
    def exclusive_counts(self) -> Dict[str, int]:
        """Samples whose *leaf* is each frame (self time)."""
        counts: Dict[str, int] = {}
        for stack, count in self.samples.items():
            counts[stack[-1]] = counts.get(stack[-1], 0) + count
        return counts

    def inclusive_counts(self) -> Dict[str, int]:
        """Samples with each frame *anywhere* on the stack.

        Recursive frames count once per sample, so no frame can exceed
        ``sample_count``.
        """
        counts: Dict[str, int] = {}
        for stack, count in self.samples.items():
            for label in set(stack):
                counts[label] = counts.get(label, 0) + count
        return counts

    def hot_frames(
        self, top: int = 15
    ) -> List[Dict[str, Any]]:
        """Top frames by inclusive samples, with exclusive alongside."""
        inclusive = self.inclusive_counts()
        exclusive = self.exclusive_counts()
        ranked = sorted(
            inclusive.items(), key=lambda item: (-item[1], item[0])
        )[:top]
        return [
            {
                "frame": label,
                "inclusive": count,
                "exclusive": exclusive.get(label, 0),
                "inclusive_share": (
                    count / self.sample_count if self.sample_count else 0.0
                ),
            }
            for label, count in ranked
        ]

    def bucket_rollup(self) -> List[Dict[str, Any]]:
        """Module-level rollup into subsystem buckets.

        Exclusive counts attribute each sample to the bucket of its
        leaf frame (where the time is actually spent); inclusive
        counts each sample once per bucket present on the stack.
        Sorted by exclusive samples (desc), then name.
        """
        exclusive: Dict[str, int] = {}
        inclusive: Dict[str, int] = {}
        for stack, count in self.samples.items():
            leaf_bucket = bucket_of(stack[-1])
            exclusive[leaf_bucket] = exclusive.get(leaf_bucket, 0) + count
            for bucket in {bucket_of(label) for label in stack}:
                inclusive[bucket] = inclusive.get(bucket, 0) + count
        return [
            {
                "bucket": bucket,
                "exclusive": exclusive.get(bucket, 0),
                "inclusive": inclusive[bucket],
                "exclusive_share": (
                    exclusive.get(bucket, 0) / self.sample_count
                    if self.sample_count else 0.0
                ),
            }
            for bucket in sorted(
                inclusive,
                key=lambda b: (-exclusive.get(b, 0), -inclusive[b], b),
            )
        ]

    # -- report ---------------------------------------------------------
    def report(
        self,
        label: str = "workload",
        top: int = 15,
        join_rows: Optional[List[Dict[str, Any]]] = None,
    ) -> str:
        """Deterministic-structure markdown hot-spot report."""
        lines = [f"# Wall-clock profile — {label}", ""]
        if self.sample_count == 0:
            lines.append(
                "no samples captured (workload faster than one sampling "
                f"interval at {self.hz:g} hz, or profiler never started)"
            )
            return "\n".join(lines) + "\n"
        lines.append(
            f"- samples: {self.sample_count} over {self.duration_s:.3f} s "
            f"wall (target {self.hz:g} hz, effective "
            f"{self.effective_hz:.0f} hz)"
        )
        lines.append(f"- distinct stacks: {len(self.samples)}")
        lines += ["", "## Subsystem rollup (by exclusive samples)", ""]
        lines.append("| bucket | exclusive | excl % | inclusive |")
        lines.append("|---|---|---|---|")
        for row in self.bucket_rollup():
            lines.append(
                f"| {row['bucket']} | {row['exclusive']} "
                f"| {100.0 * row['exclusive_share']:.1f}% "
                f"| {row['inclusive']} |"
            )
        lines += ["", f"## Hottest frames (top {top} by inclusive)", ""]
        lines.append("| frame | inclusive | incl % | exclusive |")
        lines.append("|---|---|---|---|")
        for row in self.hot_frames(top):
            lines.append(
                f"| {row['frame']} | {row['inclusive']} "
                f"| {100.0 * row['inclusive_share']:.1f}% "
                f"| {row['exclusive']} |"
            )
        if join_rows is not None:
            lines += ["", "## Wall vs simulated time (phase join)", ""]
            if not join_rows:
                lines.append(
                    "no simulated-time phase spans captured on this run"
                )
            else:
                lines.append(
                    "| phase | simulated us | sim % | wall s | wall % |"
                )
                lines.append("|---|---|---|---|---|")
                for row in join_rows:
                    lines.append(
                        f"| {row['phase']} | {row['simulated_us']:.0f} "
                        f"| {100.0 * row['simulated_share']:.1f}% "
                        f"| {row['wall_s']:.4f} "
                        f"| {100.0 * row['wall_share']:.1f}% |"
                    )
        return "\n".join(lines) + "\n"

    def as_dict(
        self, top: int = 15, join_rows: Optional[List[Dict[str, Any]]] = None
    ) -> Dict[str, Any]:
        """JSON-ready view: summary, rollup, hot frames, optional join."""
        record: Dict[str, Any] = {
            "kind": "repro-perf-profile",
            "sample_count": self.sample_count,
            "duration_s": self.duration_s,
            "hz": self.hz,
            "effective_hz": self.effective_hz,
            "distinct_stacks": len(self.samples),
            "buckets": self.bucket_rollup(),
            "hot_frames": self.hot_frames(top),
        }
        if join_rows is not None:
            record["phase_join"] = join_rows
        return record


class ProfilerThreadError(RuntimeError):
    """Raised by :meth:`SamplingProfiler.start` off the main thread:
    Python delivers the timer signal to the main thread only."""


class SamplingProfiler:
    """Interval-timer stack sampler for the main thread.

    ``start()`` installs a ``SIGALRM`` handler and arms a wall-clock
    interval timer; ``stop()`` disarms it, puts the previous handler
    back and returns the :class:`Profile`.  Both are idempotent: a
    second ``start()`` while running is a no-op, ``stop()`` without a
    running sampler returns the profile collected so far (empty if
    never started).  ``start()`` from any other thread raises
    :class:`ProfilerThreadError`.  Usable as a context manager::

        profiler = SamplingProfiler(hz=200)
        with profiler:
            run_workload()
        print(profiler.profile().folded())
    """

    def __init__(self, hz: float = DEFAULT_HZ):
        if not hz > 0:
            raise ValueError(f"hz must be positive, got {hz!r}")
        self.hz = float(hz)
        self._interval = 1.0 / self.hz
        self._samples: Dict[Tuple[str, ...], int] = {}
        self._sample_count = 0
        self._duration_s = 0.0
        self._running = False
        self._previous_handler: Any = None
        self._started_at = 0.0
        #: Frame label per code object, so a tick costs one dict probe
        #: per frame instead of a path parse.
        self._labels: Dict[Any, str] = {}

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> "SamplingProfiler":
        """Begin sampling the main thread.  No-op when running."""
        if self._running:
            return self
        if threading.current_thread() is not threading.main_thread():
            raise ProfilerThreadError(
                "SamplingProfiler.start() must run on the main thread, "
                "which alone receives the interval-timer signal"
            )
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_tick)
        self._running = True
        self._started_at = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        return self

    def stop(self) -> Profile:
        """Stop sampling and return the profile.  Safe to call twice."""
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            # None: the previous handler was not installed from Python.
            previous = self._previous_handler
            signal.signal(signal.SIGALRM,
                          signal.SIG_DFL if previous is None else previous)
            self._running = False
            self._duration_s += time.perf_counter() - self._started_at
        return self.profile()

    def profile(self) -> Profile:
        """The samples collected so far (live while running)."""
        duration = self._duration_s
        if self._running:
            duration += time.perf_counter() - self._started_at
        return Profile(
            samples=dict(self._samples),
            sample_count=self._sample_count,
            duration_s=duration,
            hz=self.hz,
        )

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- timer signal handler -------------------------------------------
    def _on_tick(self, signum: int, frame: Any) -> None:
        """Record the interrupted stack (``frame`` is its leaf)."""
        labels = self._labels
        stack: List[str] = []
        while frame is not None and len(stack) < MAX_STACK_DEPTH:
            code = frame.f_code
            label = labels.get(code)
            if label is None:
                label = labels[code] = frame_label(
                    code.co_filename, code.co_name
                )
            stack.append(label)
            frame = frame.f_back
        if not stack:
            return
        stack.reverse()
        key = tuple(stack)
        self._samples[key] = self._samples.get(key, 0) + 1
        self._sample_count += 1


# ----------------------------------------------------------------------
# Wall-vs-simulated phase join
# ----------------------------------------------------------------------
_INSTANCE_SUFFIX = re.compile(r"\s*#\d+$")
_NORMALIZE = re.compile(r"[^a-z0-9]+")


def normalize_phase(name: str) -> str:
    """Canonical token for matching phase names against frame labels.

    Strips per-instance suffixes (``PROPAGATE #3`` → ``propagate``)
    and everything non-alphanumeric.
    """
    return _NORMALIZE.sub("", _INSTANCE_SUFFIX.sub("", name).lower())


def phase_durations_us(model: Any) -> Dict[str, float]:
    """Total simulated microseconds per span name over a trace model.

    ``model`` is an :class:`repro.obs.analyze.TraceModel`.  Span names
    are normalized only for instance suffixes (``#N``), so every
    PROPAGATE instruction rolls into one ``PROPAGATE`` phase while
    ``broadcast``/``deliver``-style phase spans keep their names.
    """
    totals: Dict[str, float] = {}
    for track in model.tracks:
        for span in track.all_spans():
            name = _INSTANCE_SUFFIX.sub("", span.name)
            totals[name] = totals.get(name, 0.0) + span.duration_us
    return {name: us for name, us in totals.items() if us > 0.0}


def wall_simulated_join(
    profile: Profile,
    phase_us: Mapping[str, float],
    top: int = 12,
) -> List[Dict[str, Any]]:
    """Attribute wall seconds to simulated-time phases.

    For each phase (by simulated duration, descending), wall time is
    the inclusive sample share of frames whose label contains the
    normalized phase token — e.g. phase ``PROPAGATE`` claims samples
    inside ``repro.core.backends:propagate`` and the helpers under it.
    Phases with no matching frames report zero wall:
    simulated-expensive but wall-cheap.  Per-instance names (``PROPAGATE #3``) merge into
    one phase.  Deterministic given the profile and phase table.
    """
    merged: Dict[str, float] = {}
    for name, us in phase_us.items():
        key = _INSTANCE_SUFFIX.sub("", name)
        merged[key] = merged.get(key, 0.0) + float(us)
    phase_us = merged
    total_sim = sum(phase_us.values())
    if total_sim <= 0:
        return []
    inclusive = profile.inclusive_counts()
    normalized = [
        (label, normalize_phase(label.split(":", 1)[-1]), count)
        for label, count in inclusive.items()
    ]
    rows: List[Dict[str, Any]] = []
    ranked = sorted(phase_us.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    for phase, us in ranked:
        token = normalize_phase(phase)
        matched = (
            sum(
                count for _, frame_token, count in normalized
                if token and token in frame_token
            )
            if token else 0
        )
        matched = min(matched, profile.sample_count)
        rows.append(
            {
                "phase": phase,
                "simulated_us": us,
                "simulated_share": us / total_sim,
                "wall_s": matched * profile.seconds_per_sample,
                "wall_share": (
                    matched / profile.sample_count
                    if profile.sample_count else 0.0
                ),
            }
        )
    return rows
