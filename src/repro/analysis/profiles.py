"""Instruction-profile analysis (Figs. 6, 18, 19, 20).

Aggregates per-category instruction counts and execution time across
runs and renders the relative-frequency / relative-time comparison of
Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping

from ..isa.instructions import Category

#: Display order of instruction classes in the paper's figures.
CATEGORY_ORDER = (
    Category.PROPAGATE,
    Category.BOOLEAN,
    Category.SETCLEAR,
    Category.SEARCH,
    Category.COLLECT,
    Category.MARKER_MAINT,
    Category.MAINTENANCE,
)


@dataclass
class Profile:
    """Counts and time per instruction category."""

    counts: Dict[str, int] = field(default_factory=dict)
    time_us: Dict[str, float] = field(default_factory=dict)

    def add_counts(self, counts: Mapping[str, int]) -> None:
        """Accumulate instruction counts per category."""
        for category, n in counts.items():
            self.counts[category] = self.counts.get(category, 0) + n

    def add_time(self, time_us: Mapping[str, float]) -> None:
        """Accumulate per-category time."""
        for category, t in time_us.items():
            self.time_us[category] = self.time_us.get(category, 0.0) + t

    def merge(self, other: "Profile") -> "Profile":
        """Merge another instance into this one; returns self."""
        self.add_counts(other.counts)
        self.add_time(other.time_us)
        return self

    # -- shares -----------------------------------------------------------
    def frequency_share(self) -> Dict[str, float]:
        """Fraction of instruction count per category."""
        total = sum(self.counts.values())
        if not total:
            return {}
        return {c: n / total for c, n in self.counts.items()}

    def time_share(self) -> Dict[str, float]:
        """Fraction of execution time per category."""
        total = sum(self.time_us.values())
        if not total:
            return {}
        return {c: t / total for c, t in self.time_us.items()}

    @property
    def total_instructions(self) -> int:
        """Total instruction count across categories."""
        return sum(self.counts.values())

    @property
    def total_time_us(self) -> float:
        """Total time across categories / components, in microseconds."""
        return sum(self.time_us.values())


def profile_from_parse_results(results: Iterable[Any]) -> Profile:
    """Aggregate parser :class:`ParseResult` objects into one profile."""
    profile = Profile()
    for result in results:
        profile.add_counts(result.category_counts)
        profile.add_time(result.category_time_us)
    return profile


def category_latency(reports: Iterable[Any]) -> Dict[str, float]:
    """Per-category sum of instruction *latencies* across reports.

    Latency (issue→complete elapsed time) is what Figs. 18/19 plot:
    unlike busy time it shrinks as clusters are added, because each
    instruction's work is spread over more marker units.  Serial
    traces expose ``time_us`` directly; machine traces expose
    ``latency``.
    """
    out: Dict[str, float] = {}
    for report in reports:
        for trace in report.traces:
            latency = getattr(trace, "time_us", None)
            if latency is None:
                latency = trace.latency
            out[trace.category] = out.get(trace.category, 0.0) + latency
    return out


def format_profile_table(profile: Profile, title: str = "") -> str:
    """Render the Fig. 6 comparison as an aligned text table."""
    freq = profile.frequency_share()
    time = profile.time_share()
    lines = []
    if title:
        lines.append(title)
    lines.append(
        f"{'category':<14} {'count':>8} {'freq %':>8} "
        f"{'time us':>12} {'time %':>8}"
    )
    for category in CATEGORY_ORDER:
        if category not in profile.counts and category not in profile.time_us:
            continue
        lines.append(
            f"{category:<14} {profile.counts.get(category, 0):>8} "
            f"{100 * freq.get(category, 0.0):>7.1f}% "
            f"{profile.time_us.get(category, 0.0):>12.1f} "
            f"{100 * time.get(category, 0.0):>7.1f}%"
        )
    lines.append(
        f"{'total':<14} {profile.total_instructions:>8} "
        f"{'':>8} {profile.total_time_us:>12.1f}"
    )
    return "\n".join(lines)
