"""The analysis engine's front door: run everything, render markdown.

:func:`analyze_document` composes the subpackage — reader, query
attribution, machine profiles, measured parallelism, utilization,
anomalies, and the drift snapshot — into one :class:`TraceAnalysis`
record with deterministic (byte-stable for a given capture) markdown
rendering, which is what ``python -m repro analyze`` prints or writes.

Also home to the CLI: ``python -m repro analyze TRACE [--report out.md]
[--compare golden.json] [--snapshot-out snap.json] [--json out.json]``.
``TRACE`` may be a trace JSON *or* a snapshot JSON (bench / runner
snapshots go through the same drift gate); ``--compare`` exits
non-zero on drift beyond the golden's tolerance bands.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

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
    track_utilization,
)
from .drift import (
    Anomaly,
    DriftReport,
    compare_snapshots,
    find_anomalies,
    is_snapshot,
    snapshot_from_metrics,
)
from .reader import TraceModel, read_document

#: Queries shown individually in the report (slowest first).
TOP_QUERIES = 5


@dataclass
class TraceAnalysis:
    """Everything the engine derived from one capture."""

    model: TraceModel
    queries: List[QueryAttribution] = field(default_factory=list)
    machine_profiles: List[MachineProfile] = field(default_factory=list)
    parallelism: List[MeasuredParallelism] = field(default_factory=list)
    utilization: List[TrackUtilization] = field(default_factory=list)
    anomalies: List[Anomaly] = field(default_factory=list)
    #: Drift-comparable snapshot of the embedded metrics (None when
    #: the capture carried no metrics registry).
    snapshot: Optional[Dict[str, Any]] = None
    drift: Optional[DriftReport] = None

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly dump (the ``--json`` output)."""
        return {
            "capture": self.model.capture,
            "queries": [q.as_dict() for q in self.queries],
            "query_buckets_us": aggregate_buckets(self.queries),
            "machine_profiles": [p.as_dict() for p in self.machine_profiles],
            "parallelism": [p.as_dict() for p in self.parallelism],
            "utilization": [u.as_dict() for u in self.utilization],
            "anomalies": [
                {"kind": a.kind, "where": a.where, "detail": a.detail}
                for a in self.anomalies
            ],
            "snapshot": self.snapshot,
            "drift_ok": self.drift.ok if self.drift else None,
        }

    # ------------------------------------------------------------------
    def to_markdown(self) -> str:
        """Deterministic human-readable report."""
        lines: List[str] = ["# Trace analysis"]
        capture = self.model.capture or {}
        if capture:
            lines.append("")
            lines.append("## Capture")
            lines.append("")
            for key in sorted(capture):
                lines.append(f"- {key}: {capture[key]}")
        lines += self._render_queries()
        lines += self._render_machines()
        lines += self._render_parallelism()
        lines += self._render_utilization()
        lines.append("")
        lines.append("## Anomalies")
        lines.append("")
        if self.anomalies:
            for anomaly in self.anomalies:
                lines.append(f"- {anomaly.describe()}")
        else:
            lines.append("- none detected")
        if self.drift is not None:
            lines.append("")
            lines.append("## Drift vs golden")
            lines.append("")
            for entry in self.drift.describe():
                lines.append(f"- {entry}")
        return "\n".join(lines) + "\n"

    def _render_queries(self) -> List[str]:
        if not self.queries:
            return []
        totals = aggregate_buckets(self.queries)
        grand = sum(totals.values())
        lines = ["", "## Query latency attribution", ""]
        lines.append(
            f"{len(self.queries)} queries, "
            f"{_us(grand)} total latency; buckets sum to each query's "
            "end-to-end latency."
        )
        lines.append("")
        lines.append("| bucket | total | share |")
        lines.append("|---|---:|---:|")
        for name in BUCKETS:
            value = totals[name]
            share = value / grand if grand else 0.0
            lines.append(f"| {name} | {_us(value)} | {share:.1%} |")
        slowest = sorted(
            self.queries, key=lambda q: (-q.latency_us, q.query_id)
        )[:TOP_QUERIES]
        lines.append("")
        lines.append(f"Slowest {len(slowest)} queries:")
        lines.append("")
        lines.append(
            "| query | status | latency | "
            + " | ".join(BUCKETS)
            + " | critical path |"
        )
        lines.append("|---:|---|---:|" + "---:|" * len(BUCKETS) + "---|")
        for q in slowest:
            path = ", ".join(
                f"{name} {_us(value)}"
                for name, value in list(q.critical_path.items())[:3]
            )
            cells = " | ".join(_us(q.buckets.get(b, 0.0)) for b in BUCKETS)
            lines.append(
                f"| {q.query_id} | {q.status} | {_us(q.latency_us)} | "
                f"{cells} | {path} |"
            )
        return lines

    def _render_machines(self) -> List[str]:
        if not self.machine_profiles:
            return []
        lines = ["", "## Machine time attribution", ""]
        for profile in self.machine_profiles:
            lines.append(
                f"### {profile.process} "
                f"({profile.instructions} instructions, "
                f"{_us(profile.instruction_us)} pipeline time)"
            )
            lines.append("")
            lines.append("| phase | time | on critical path |")
            lines.append("|---|---:|---:|")
            for phase, value in profile.phase_us.items():
                lines.append(
                    f"| {phase} | {_us(value)} | "
                    f"{_us(profile.critical_path.get(phase, 0.0))} |"
                )
            lines.append(
                f"| icn transit | {_us(profile.icn_transit_us)} | — |"
            )
            if profile.fault_penalty_us or profile.fault_events:
                events = ", ".join(
                    f"{name} ×{count}"
                    for name, count in sorted(profile.fault_events.items())
                )
                lines.append(
                    f"| fault recovery | {_us(profile.fault_penalty_us)} "
                    f"| — |"
                )
                lines.append("")
                lines.append(f"Fault events: {events}")
            lines.append("")
        return lines[:-1]

    def _render_parallelism(self) -> List[str]:
        if not self.parallelism:
            return []
        lines = ["", "## Measured parallelism", ""]
        lines.append(
            "| process | α min | α max | α mean | propagates "
            "| β max | β mean |"
        )
        lines.append("|---|---:|---:|---:|---:|---:|---:|")
        for p in self.parallelism:
            lines.append(
                f"| {p.process} | {p.alpha_min} | {p.alpha_max} | "
                f"{p.alpha_mean:.1f} | {p.propagates} | {p.beta_max} | "
                f"{p.beta_mean:.2f} |"
            )
        return lines

    def _render_utilization(self) -> List[str]:
        rows = [u for u in self.utilization if u.busy_us > 0]
        if not rows:
            return []
        rows.sort(key=lambda u: (-u.busy_fraction, u.process, u.thread))
        lines = ["", "## Track utilization (top 15 by busy fraction)", ""]
        lines.append("| track | busy | fraction | peak overlap |")
        lines.append("|---|---:|---:|---:|")
        for u in rows[:15]:
            lines.append(
                f"| {u.process}/{u.thread} | {_us(u.busy_us)} | "
                f"{u.busy_fraction:.1%} | {u.peak_overlap} |"
            )
        return lines


def _us(value: float) -> str:
    """Fixed, deterministic µs formatting."""
    if value >= 1e6:
        return f"{value / 1e6:.3f} s"
    if value >= 1e3:
        return f"{value / 1e3:.3f} ms"
    return f"{value:.1f} us"


# ----------------------------------------------------------------------
def analyze_document(document: Any) -> TraceAnalysis:
    """Run the full engine over a Chrome-trace document (or model)."""
    model = (
        document if isinstance(document, TraceModel)
        else read_document(document)
    )
    analysis = TraceAnalysis(model=model)
    analysis.queries = attribute_queries(model)
    for process in machine_processes(model):
        analysis.machine_profiles.append(machine_profile(model, process))
        analysis.parallelism.append(measured_parallelism(model, process))
    analysis.utilization = track_utilization(model)
    analysis.anomalies = find_anomalies(model)
    if model.metrics is not None:
        workload = (model.capture or {}).get("workload")
        analysis.snapshot = snapshot_from_metrics(
            model.metrics, workload=workload
        )
    return analysis


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``python -m repro analyze TRACE [options]``.

    Exit codes: 0 = analyzed (no drift, or no golden given);
    1 = drift beyond the golden's tolerance; 2 = bad input.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="critical paths, latency attribution, and metric "
                    "drift from a Perfetto trace capture",
    )
    parser.add_argument(
        "trace",
        help="trace JSON from `python -m repro trace` (a metrics "
             "snapshot JSON is also accepted for drift-only checks)",
    )
    parser.add_argument(
        "--report", metavar="PATH",
        help="write the markdown report here (default: stdout)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="also write the full analysis record as JSON",
    )
    parser.add_argument(
        "--compare", metavar="GOLDEN",
        help="golden snapshot JSON; exit 1 on drift beyond tolerance",
    )
    parser.add_argument(
        "--snapshot-out", metavar="PATH",
        help="write this run's metrics snapshot (golden regeneration)",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.trace) as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2

    if is_snapshot(document):
        # Snapshot-only input: no trace model, just the drift gate.
        analysis = TraceAnalysis(model=TraceModel())
        analysis.snapshot = document
    else:
        try:
            analysis = analyze_document(document)
        except ValueError as exc:
            print(f"error: {args.trace}: {exc}", file=sys.stderr)
            return 2

    if args.compare:
        if analysis.snapshot is None:
            print(
                "error: --compare needs a capture with embedded metrics "
                "(or a snapshot input)",
                file=sys.stderr,
            )
            return 2
        try:
            with open(args.compare) as handle:
                golden = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(
                f"error: cannot read golden {args.compare}: {exc}",
                file=sys.stderr,
            )
            return 2
        analysis.drift = compare_snapshots(analysis.snapshot, golden)

    if args.snapshot_out:
        if analysis.snapshot is None:
            print(
                "error: --snapshot-out needs a capture with embedded "
                "metrics",
                file=sys.stderr,
            )
            return 2
        with open(args.snapshot_out, "w") as handle:
            json.dump(analysis.snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.snapshot_out}")

    rendered = analysis.to_markdown()
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(rendered)
        print(f"wrote {args.report}")
    elif analysis.model.tracks:
        print(rendered, end="")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(analysis.as_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")

    if analysis.drift is not None:
        for line in analysis.drift.describe():
            print(line)
        if not analysis.drift.ok:
            print("drift gate: FAIL", file=sys.stderr)
            return 1
        print("drift gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
