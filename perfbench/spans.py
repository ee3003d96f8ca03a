"""Span recording around the layers' public entry points.

The traced run patches a recorder around the calls the benchmark makes
into each layer (KB generators, ``SnapMachine``, ``FunctionalEngine``,
the NLU parser, the serving host and fleet, and the observers).  Each
span records its name, host-clock start and end, and the span that was
open when it started (its parent).  Spans stay in memory and are
written out once the run ends.

The untraced run installs nothing, so the end-to-end metrics are
measured on unmodified code.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class Span:
    """One timed call into a layer."""

    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, end: Optional[float] = None,
                 parent: Optional[int] = None,
                 attrs: Optional[Dict[str, float]] = None) -> None:
        self.name = name
        self.start = start
        self.end = end
        #: Index of the enclosing span in the recorder, or ``None``.
        self.parent = parent
        #: Counts read off the call's result (events, arrivals, ...).
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **self.attrs}


class SpanRecorder:
    """In-memory span store with a stack of the currently open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []

    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable[[Span, tuple, Any], None]] = None
             ) -> Callable:
        """``fn`` wrapped so every call records a span named ``name``.

        ``after(span, args, result)`` may attach counts to the span once
        the call has returned; it runs outside the span's interval.
        """
        spans, stack, clock = self.spans, self._open, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after is not None:
                after(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        """Write every span as one JSON document."""
        with open(path, "w") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)
            handle.write("\n")


class Patches:
    """Installs recorder wrappers on ``(owner, attribute)`` targets.

    ``owner`` is a class or a module; the original attribute is put
    back by :meth:`uninstall`, so traced and untraced passes can
    alternate within one process.
    """

    def __init__(self, recorder: SpanRecorder,
                 targets: Sequence[Tuple[Any, str, str, Optional[Callable]]]):
        self.recorder = recorder
        self.targets = list(targets)
        self._saved: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        for owner, attr, name, after in self.targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.recorder.wrap(original, name, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Targets: the layers' public entry points
# ----------------------------------------------------------------------
def _machine_counts(span: Span, args: tuple, report: Any) -> None:
    span.attrs["events"] = report.events_processed
    span.attrs["arrivals"] = sum(t.arrivals for t in report.traces)
    span.attrs["messages"] = report.icn_stats.messages
    span.attrs["sim_us"] = report.total_time_us


def _engine_counts(span: Span, args: tuple, record: Any) -> None:
    span.attrs["arrivals"] = record.arrivals


def _host_counts(span: Span, args: tuple, report: Any) -> None:
    span.attrs["queries"] = report.submitted
    span.attrs["events"] = args[0].sim.events_processed


def _fleet_counts(span: Span, args: tuple, report: Any) -> None:
    span.attrs["queries"] = report.submitted


def _export_counts(span: Span, args: tuple, document: Any) -> None:
    span.attrs["events"] = len(document["traceEvents"])


def layer_targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, count hook)`` for every layer."""
    from repro.apps.nlu import kbgen
    from repro.apps.nlu.parser import MemoryBasedParser
    from repro.core.engine import FunctionalEngine
    from repro.fleet.router import FleetRouter
    from repro.host.executor import ReplicaArray
    from repro.host.host import ServingHost
    from repro.machine.machine import SnapMachine
    from repro.network import generator
    from repro.obs.live import monitor
    from repro.obs.tracer import Tracer

    return [
        (generator, "generate_hierarchy_kb", "network.build", None),
        (kbgen, "build_domain_kb", "network.build", None),
        (SnapMachine, "__init__", "machine.load", None),
        (SnapMachine, "run", "machine.run", _machine_counts),
        # The SIMD and serial baselines drive the golden model one
        # instruction at a time through ``execute``, never ``run``.
        (FunctionalEngine, "execute", "core.execute", _engine_counts),
        (MemoryBasedParser, "parse", "apps.parse", None),
        (ReplicaArray, "execute", "host.execute", None),
        (ServingHost, "serve", "host.serve", _host_counts),
        (FleetRouter, "serve", "fleet.serve", _fleet_counts),
        (Tracer, "to_chrome_json", "obs.export", _export_counts),
        (monitor, "run_pipeline", "obs.monitor", None),
    ]


# ----------------------------------------------------------------------
# Self time and per-layer metrics
# ----------------------------------------------------------------------
def covered(start: float, end: float,
            intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def children_of(spans: Sequence[Span]) -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            kids[span.parent].append(index)
    return kids


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    kids = children_of(spans)
    return [
        span.duration - covered(
            span.start, span.end,
            [(spans[k].start, spans[k].end) for k in kids.get(i, ())],
        )
        for i, span in enumerate(spans)
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Sequence[Span], passes: int,
                  observed: bool) -> Dict[str, float]:
    """Per-pass layer metrics from the spans of ``passes`` traced passes.

    ``observed`` says the workload serves with observers attached, so
    its host and fleet ``serve`` time is time spent attached.
    """
    selfs = self_times(spans)
    kids = children_of(spans)
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    attrs: Dict[str, float] = defaultdict(float)
    hits = 0
    for index, span in enumerate(spans):
        total[span.name] += span.duration
        own[span.name] += selfs[index]
        calls[span.name] += 1
        for key, value in span.attrs.items():
            attrs[f"{span.name}.{key}"] += value
        if span.name == "host.execute" and not any(
            spans[k].name == "machine.run" for k in kids.get(index, ())
        ):
            hits += 1
    per = 1.0 / max(passes, 1)
    machine_s = own["machine.run"]
    core_s = total["core.execute"]
    host_queries = attrs["host.serve.queries"]
    fleet_queries = attrs["fleet.serve.queries"]
    export_events = attrs["obs.export.events"]
    attached = total["host.serve"] + total["fleet.serve"] if observed else 0.0
    return {
        "machine.run_s": machine_s * per,
        "machine.runs": calls["machine.run"] * per,
        "machine.events": attrs["machine.run.events"] * per,
        "machine.arrivals": attrs["machine.run.arrivals"] * per,
        "machine.messages": attrs["machine.run.messages"] * per,
        "machine.sim_ms": attrs["machine.run.sim_us"] / 1e3 * per,
        "machine.ns_per_event": _ratio(
            machine_s * 1e9, attrs["machine.run.events"]),
        "core.run_s": core_s * per,
        "core.arrivals": attrs["core.execute.arrivals"] * per,
        "core.ns_per_arrival": _ratio(
            core_s * 1e9, attrs["core.execute.arrivals"]),
        "apps.self_s": own["apps.parse"] * per,
        "host.serve_s": total["host.serve"] * per,
        "host.self_s": own["host.serve"] * per,
        "host.execute_calls": calls["host.execute"] * per,
        "host.cache_hit_ratio": _ratio(hits, calls["host.execute"]),
        "host.events": attrs["host.serve.events"] * per,
        "host.ns_per_query": _ratio(own["host.serve"] * 1e9, host_queries),
        "fleet.serve_s": total["fleet.serve"] * per,
        "fleet.self_s": own["fleet.serve"] * per,
        "fleet.queries": fleet_queries * per,
        "fleet.ns_per_query": _ratio(own["fleet.serve"] * 1e9, fleet_queries),
        "obs.attached_s": attached * per,
        "obs.export_s": total["obs.export"] * per,
        "obs.monitor_s": total["obs.monitor"] * per,
        "obs.trace_events": export_events * per,
        "obs.us_per_event": _ratio(total["obs.export"] * 1e6, export_events),
    }


def setup_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """KB generation and machine loading time of one set-up."""
    build = sum(s.duration for s in spans if s.name == "network.build")
    load = sum(s.duration for s in spans if s.name == "machine.load")
    return {"network.build_s": build, "machine.load_s": load}
