"""Machine-activity timelines from the tracer.

The paper's instrumentation streams timestamped event records over a
separate performance-collection network to a central board "for
analysis or transfer to mass storage" (§III-B).  Here the tracer
(:mod:`repro.obs.tracer`) is that board, and this module is the
analysis: text-rendered Gantt charts of instruction overlap (where
β-parallelism is visible as stacked bars) and per-cluster activity
strips built from the traced machine tracks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..machine.report import InstructionTrace, MachineRunReport
from ..obs.tracer import Tracer


def instruction_gantt(
    traces: Sequence[InstructionTrace],
    width: int = 64,
    max_rows: int = 40,
) -> str:
    """Render instruction issue→complete spans as a text Gantt chart.

    Overlapping PROPAGATE bars are the visual signature of
    β-parallelism; a bar starting only after another ends shows a
    marker-dependency barrier.
    """
    if not traces:
        return "(no instructions)"
    end = max(t.complete_time for t in traces)
    start = min(t.issue_time for t in traces)
    span = max(end - start, 1e-9)
    lines = [
        f"{'#':>3} {'opcode':<18} "
        f"|{'time -> (total ' + f'{span:.0f} us)':<{width}}|"
    ]
    for trace in traces[:max_rows]:
        left = int((trace.issue_time - start) / span * width)
        right = max(left + 1, int((trace.complete_time - start) / span * width))
        bar = " " * left + "#" * (right - left)
        lines.append(
            f"{trace.index:>3} {trace.opcode:<18} |{bar:<{width}}|"
        )
    if len(traces) > max_rows:
        lines.append(f"... {len(traces) - max_rows} more instructions")
    return "\n".join(lines)


def _activity_row(thread: str) -> Optional[int]:
    """Strip for a machine track: its cluster id, -1 for the controller.

    A cluster's CU track (``cluster NN cu``) shares the cluster's row;
    the pipeline lanes (``pipe N``) share the controller's.  Other
    tracks (DES kernel, ICN counters, faults) have no strip.
    """
    if thread == "controller" or thread.startswith("pipe "):
        return -1
    if thread.startswith("cluster "):
        return int(thread.split()[1])
    return None


def cluster_activity(
    tracer: Tracer,
    total_time_us: float,
    width: int = 64,
) -> str:
    """Per-cluster activity strips from a traced machine run.

    Each row is a cluster (row ``ctl`` is the controller and its
    pipeline lanes); a ``#`` marks a time bucket touched by at least
    one span, instant or counter sample on that row's tracks.
    """
    rows = [_activity_row(thread) for _, thread in tracer.tracks]
    buckets: Dict[int, List[bool]] = {}

    def mark(track: int, begin: float, end: float) -> None:
        row = rows[track]
        if row is None:
            return
        strip = buckets.setdefault(row, [False] * width)
        first = min(width - 1, max(0, int(begin / total_time_us * width)))
        last = min(width - 1, max(first, int(end / total_time_us * width)))
        for index in range(first, last + 1):
            strip[index] = True

    if total_time_us > 0:
        for track, _, begin, end, _ in tracer.spans:
            mark(track, begin, begin if end is None else end)
        for track, _, ts, _ in tracer.instants:
            mark(track, ts, ts)
        for track, _, ts, _ in tracer.counters:
            mark(track, ts, ts)
    if not buckets:
        return "(no monitoring records)"
    lines = []
    for source in sorted(buckets):
        label = "ctl" if source == -1 else f"c{source:02d}"
        strip = "".join("#" if b else "." for b in buckets[source])
        lines.append(f"{label:>4} |{strip}|")
    return "\n".join(lines)


def overlap_factor(traces: Sequence[InstructionTrace]) -> float:
    """Mean number of simultaneously in-flight instructions.

    Computed as Σ latencies / makespan — the measured, dynamic
    counterpart of the static β analysis.
    """
    if not traces:
        return 0.0
    total_latency = sum(t.latency for t in traces)
    start = min(t.issue_time for t in traces)
    end = max(t.complete_time for t in traces)
    makespan = end - start
    if makespan <= 0:
        return 0.0
    return total_latency / makespan


def render_report_timeline(report: MachineRunReport, width: int = 64) -> str:
    """Instruction-overlap Gantt chart and overlap factor for one run."""
    return "\n".join([
        "instruction overlap (Gantt):",
        instruction_gantt(report.traces, width=width),
        f"\nmean in-flight instructions: {overlap_factor(report.traces):.2f}",
    ])
