"""Metrics: counters, gauges, and fixed-bucket histograms.

The aggregate half of the observability layer.  Where the tracer
(:mod:`repro.obs.tracer`) answers *when did it happen*, the registry
answers *how often and how much*: monotone counters (hedges issued,
messages per ICN dimension, breaker trips), time-stamped gauge series
(queue depth, replicas busy), and fixed-bucket histograms (served
latency, instruction latency).

All timestamps are simulated microseconds supplied by the caller.
Everything exports to plain dicts (:meth:`MetricsRegistry.as_dict`)
and rides along inside the Chrome trace JSON under the top-level
``"metrics"`` key, so one artifact carries both views of a run.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union


#: Default histogram bucket upper bounds, in simulated µs.  Chosen to
#: straddle the serving layer's typical latencies (hundreds of µs to
#: tens of ms); the final implicit bucket is +inf.
DEFAULT_LATENCY_BUCKETS_US: Tuple[float, ...] = (
    50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0,
    10_000.0, 25_000.0, 50_000.0, 100_000.0,
)


class Counter:
    """A monotone event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0: {amount}")
        self.value += amount


class Gauge:
    """A sampled value series over simulated time.

    By default keeps every ``(ts, value)`` sample (runs are bounded,
    and the series *is* the product — queue depth over time is exactly
    what post-hoc totals could not show).  Long-running workloads can
    bound retention with ``max_points``: when the series fills, it is
    compacted in place to every second retained sample and the record
    stride doubles, so memory stays within the cap while the retained
    points remain evenly spaced over the whole run.  ``last`` and
    ``peak`` are tracked as exact scalars over *all* observations —
    downsampling never changes them.
    """

    __slots__ = (
        "name", "max_points", "_ts", "_values",
        "_stride", "_count", "_last", "_peak",
    )

    def __init__(self, name: str, max_points: Optional[int] = None) -> None:
        if max_points is not None and max_points < 2:
            raise ValueError(
                f"gauge max_points must be >= 2: {max_points}"
            )
        self.name = name
        #: The retained samples, column-wise (see :attr:`samples`).
        self._ts: List[float] = []
        self._values: List[float] = []
        self.max_points = max_points
        self._stride = 1
        self._count = 0
        self._last = 0.0
        self._peak: Optional[float] = None

    def set(self, ts: float, value: float) -> None:
        """Record the gauge's value at simulated time ``ts``."""
        self._count += 1
        self._last = value
        if self._peak is None or value > self._peak:
            self._peak = value
        if (self._count - 1) % self._stride:
            return
        self._ts.append(ts)
        self._values.append(value)
        if self.max_points is not None and len(self._ts) > self.max_points:
            # Keep even indices: exactly the observations at the
            # doubled stride, so future appends stay evenly spaced.
            del self._ts[1::2]
            del self._values[1::2]
            self._stride *= 2

    @property
    def samples(self) -> List[Tuple[float, float]]:
        """The retained ``(ts, value)`` samples, oldest first."""
        return list(zip(self._ts, self._values))

    @property
    def observations(self) -> int:
        """Total ``set`` calls, including downsampled-away ones."""
        return self._count

    @property
    def last(self) -> float:
        """Most recent observed value (0.0 when never set)."""
        return self._last if self._count else 0.0

    @property
    def peak(self) -> float:
        """Largest observed value (0.0 when never set)."""
        return self._peak if self._peak is not None else 0.0


class Histogram:
    """Fixed-bucket histogram (upper-bound buckets plus +inf)."""

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US
    ) -> None:
        ordered = tuple(bounds)
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise ValueError(f"bucket bounds must increase: {ordered}")
        self.name = name
        self.bounds = ordered
        #: One count per bound, plus the trailing +inf bucket.
        self.counts = [0] * (len(ordered) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Add one observation to its bucket (the first bound at or
        above it, else the +inf bucket)."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.sum / self.total if self.total else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``q`` in [0, 100]).

        Linear interpolation within the fixed buckets (the
        ``histogram_quantile`` convention): the target rank is located
        in its bucket's cumulative count and positioned proportionally
        between the bucket's bounds.  The first bucket interpolates
        from 0; the +inf overflow bucket cannot be interpolated and
        clamps to the last finite bound.  Returns 0.0 when empty.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100]: {q}")
        if self.total == 0:
            return 0.0
        rank = q / 100.0 * self.total
        cumulative = 0
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            if cumulative + count >= rank:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                low = self.bounds[index - 1] if index > 0 else 0.0
                high = self.bounds[index]
                return low + (high - low) * (rank - cumulative) / count
            cumulative += count
        return self.bounds[-1]

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (JSON-friendly)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named metric instruments, created on first use.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling
    twice with the same name returns the same instrument, so producers
    (the host layer, the machine layer) need no shared setup.
    """

    def __init__(self, gauge_max_points: Optional[int] = None) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: Default retention cap applied to gauges created without an
        #: explicit ``max_points`` (None = keep every sample).
        self._gauge_max_points = gauge_max_points
        #: Instruments made by :meth:`resolve` and not yet requested
        #: by name, as ``id(instrument)``: listed only once used.
        self._resolved: Set[int] = set()

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        self._resolved.discard(id(instrument))
        return instrument

    def gauge(self, name: str, max_points: Optional[int] = None) -> Gauge:
        """The gauge called ``name`` (created on first use).

        ``max_points`` applies only on creation (falling back to the
        registry-wide default); a later call with a *different*
        explicit cap raises rather than silently re-bounding.
        """
        instrument = self._gauges.get(name)
        if instrument is None:
            cap = (
                max_points if max_points is not None
                else self._gauge_max_points
            )
            instrument = self._gauges[name] = Gauge(name, cap)
        elif max_points is not None and max_points != instrument.max_points:
            raise ValueError(
                f"gauge {name!r} already exists with max_points "
                f"{instrument.max_points}, requested {max_points}"
            )
        self._resolved.discard(id(instrument))
        return instrument

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram called ``name`` (created on first use).

        ``bounds`` applies only on creation; a later call with
        different bounds raises rather than silently re-bucketing.
        """
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, bounds if bounds is not None
                else DEFAULT_LATENCY_BUCKETS_US
            )
        elif bounds is not None and tuple(bounds) != instrument.bounds:
            raise ValueError(
                f"histogram {name!r} already exists with bounds "
                f"{instrument.bounds}, requested {tuple(bounds)}"
            )
        self._resolved.discard(id(instrument))
        return instrument

    def resolve(self, kind: str, name: str) -> Instrument:
        """The ``kind`` (``"counter"``, ``"gauge"`` or ``"histogram"``)
        instrument called ``name``, for a producer to hold from attach
        time on instead of looking it up per event.

        Resolving does not list the instrument: :meth:`as_dict` and
        :meth:`summary` show it once it records something (a non-zero
        count, a sample, an observation) or is requested by name, as
        if it had been created at that first use.
        """
        table = {"counter": self._counters, "gauge": self._gauges,
                 "histogram": self._histograms}[kind]
        instrument = table.get(name)
        if instrument is None:
            instrument = getattr(self, kind)(name)
            self._resolved.add(id(instrument))
        return instrument

    def _listed(self, table: Dict[str, Instrument]) -> List[Tuple[str, Any]]:
        """``(name, instrument)`` pairs to export, sorted by name."""
        resolved = self._resolved
        return [
            (name, instrument)
            for name, instrument in sorted(table.items())
            if id(instrument) not in resolved or _used(instrument)
        ]

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly dump of every instrument.

        Gauge series are emitted in full (the time series is the
        point); counters as plain numbers; histograms with bounds and
        per-bucket counts.
        """
        return {
            "counters": {
                name: c.value for name, c in self._listed(self._counters)
            },
            "gauges": {
                name: {
                    # (ts, value) pairs; JSON renders each as a
                    # [ts, value] array.
                    "samples": g.samples,
                    "last": g.last,
                    "peak": g.peak,
                }
                for name, g in self._listed(self._gauges)
            },
            "histograms": {
                name: h.as_dict()
                for name, h in self._listed(self._histograms)
            },
        }

    def summary(self) -> Dict[str, Any]:
        """Headline view: counter totals + gauge peaks + histogram means."""
        return {
            "counters": {
                name: c.value for name, c in self._listed(self._counters)
            },
            "gauge_peaks": {
                name: g.peak for name, g in self._listed(self._gauges)
            },
            "histogram_means": {
                name: round(h.mean, 3)
                for name, h in self._listed(self._histograms)
            },
        }


Instrument = Union[Counter, Gauge, Histogram]


def _used(instrument: Instrument) -> bool:
    """Whether a resolved instrument has recorded anything yet."""
    if isinstance(instrument, Counter):
        return instrument.value != 0
    if isinstance(instrument, Gauge):
        return instrument.observations > 0
    return instrument.total > 0
