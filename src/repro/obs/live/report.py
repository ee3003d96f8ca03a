"""Deterministic ops-timeline report for a monitored run.

Markdown, stable ordering, simulated-time only — rendering the same
run twice produces byte-identical output (CI uploads it as an
artifact).  Sections: run header, SLO attainment + error budgets, the
windowed timeline (one row per window with fault annotations and
alert transitions inlined), the alert history, and the ground-truth
detection scorecard with the gate verdict.
"""

from __future__ import annotations

from typing import Dict, List

from .monitor import MonitorRun


def _fmt_us(us: float) -> str:
    """Compact simulated-time formatting (µs under 10ms, else ms)."""
    if us >= 10_000:
        return f"{us / 1000.0:.1f}ms"
    return f"{us:.0f}us"


def _alert_marks(run: MonitorRun) -> Dict[int, List[str]]:
    """Window index -> alert lifecycle marks rendered in that row."""
    width = run.spec.window.width_us
    marks: Dict[int, List[str]] = {}

    def index_of(ts: float) -> int:
        # Alerts transition at window *ends*; attribute the mark to
        # the window whose evaluation produced it.
        return max(0, int(round(ts / width)) - 1)

    for alert in run.alerts:
        marks.setdefault(index_of(alert.fired_at_us), []).append(
            f"FIRE {alert.rule}"
        )
        if alert.resolved_at_us is not None:
            marks.setdefault(
                index_of(alert.resolved_at_us), []
            ).append(f"RESOLVE {alert.rule}")
    for row in marks.values():
        row.sort()
    return marks


def render_monitor_report(run: MonitorRun) -> str:
    """The full ops-timeline report, as markdown."""
    spec = run.spec
    lines: List[str] = []
    out = lines.append
    out(f"# Ops timeline — `{spec.workload}`")
    out("")
    out(
        f"- horizon: {_fmt_us(run.horizon_us)} simulated; "
        f"{len(run.events)} telemetry events; "
        f"{len(run.windows)} windows of "
        f"{_fmt_us(spec.window.width_us)}"
    )
    out(
        f"- alert policy: ack after {_fmt_us(spec.ack_after_us)}, "
        f"resolve after {spec.clear_windows} clear windows; "
        f"detection bound {_fmt_us(spec.score.ttd_bound_us)}"
    )
    if run.muted:
        out(f"- **muted rules: {', '.join(sorted(run.muted))}**")
    out("")

    out("## SLOs")
    out("")
    out("| slo | objective | attained | budget consumed | events |")
    out("|---|---|---|---|---|")
    for name in sorted(run.slo_states):
        state = run.slo_states[name]
        out(
            f"| {name} | {state.objective:.3f} "
            f"| {state.attained:.4f} "
            f"| {state.budget_consumed * 100:.1f}% "
            f"| {state.total} |"
        )
    out("")

    out("## Timeline")
    out("")
    out(
        "| # | window | qps | ok | err | p50 | p95 | p99 "
        "| stale | quar | brk | audit | faults / alerts |"
    )
    out("|---|---|---|---|---|---|---|---|---|---|---|---|---|")
    marks = _alert_marks(run)
    for w in run.windows:
        notes = list(w.faults) + marks.get(w.index, [])
        out(
            f"| {w.index} "
            f"| {_fmt_us(w.start_us)}–{_fmt_us(w.end_us)} "
            f"| {w.qps():.0f} "
            f"| {w.ok} | {w.errors} "
            f"| {_fmt_us(w.latency_pct(50))} "
            f"| {_fmt_us(w.latency_pct(95))} "
            f"| {_fmt_us(w.latency_pct(99))} "
            f"| {w.stale_legs()} "
            f"| {w.quarantines} | {w.breaker_opens} "
            f"| {w.audit_mismatches} "
            f"| {'; '.join(notes)} |"
        )
    out("")

    out("## Alerts")
    out("")
    if run.alerts:
        out(
            "| rule | severity | fired | acked | resolved "
            "| duration | peak | breaches |"
        )
        out("|---|---|---|---|---|---|---|---|")
        for a in run.alerts:
            resolved = (
                _fmt_us(a.resolved_at_us)
                if a.resolved_at_us is not None else "OPEN"
            )
            duration = (
                _fmt_us(a.duration_us())
                if a.duration_us() is not None else "—"
            )
            out(
                f"| {a.rule} | {a.severity} "
                f"| {_fmt_us(a.fired_at_us)} "
                f"| {_fmt_us(a.ack_at_us)} "
                f"| {resolved} | {duration} "
                f"| {a.peak_value:.2f} | {a.breach_count} |"
            )
    else:
        out("No alerts fired.")
    out("")

    out("## Detection scorecard")
    out("")
    score = run.score
    if run.truth:
        out(
            "| fault | kind | injected | repaired | detected by "
            "| ttd | ttr |"
        )
        out("|---|---|---|---|---|---|---|")
        for match in score.matches:
            t = match.truth
            repaired = (
                _fmt_us(t.end_us) if t.end_us is not None else "never"
            )
            if match.detected:
                detected = match.first_rule or ""
                ttd = (
                    _fmt_us(match.ttd_us)
                    if match.ttd_us is not None else "—"
                )
                ttr = (
                    _fmt_us(match.ttr_us)
                    if match.ttr_us is not None else "—"
                )
            else:
                detected, ttd, ttr = "**MISSED**", "—", "—"
            out(
                f"| {t.target} | {t.kind} | {_fmt_us(t.start_us)} "
                f"| {repaired} | {detected} | {ttd} | {ttr} |"
            )
        out("")
        out(
            f"- recall {score.recall:.2f}, precision "
            f"{score.precision:.2f}; {len(score.false_alerts)} false "
            f"alert(s); {score.fired_in_warmup} fired in warmup "
            f"(< {_fmt_us(score.warmup_end_us)})"
        )
        if score.max_ttd_us is not None:
            out(
                f"- worst ttd {_fmt_us(score.max_ttd_us)} vs bound "
                f"{_fmt_us(spec.score.ttd_bound_us)}"
            )
    else:
        out("No injected faults on this run's timeline.")
    out("")
    problems = run.gate_problems()
    if problems:
        out("## Gate: **FAIL**")
        out("")
        for problem in problems:
            out(f"- {problem}")
    else:
        out("## Gate: PASS")
    out("")
    return "\n".join(lines)
