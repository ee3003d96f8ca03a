"""Marker-traffic analysis (Fig. 8) and ICN statistics.

Fig. 8 plots the number of marker activation messages transmitted at
each barrier-synchronization point during a parse: bursty, with a mean
around 11.5 and bursts over 30.  These helpers summarize the
:class:`~repro.machine.sync.SyncStats` series and render the figure as
a text histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass
class TrafficSummary:
    """Headline statistics of a messages-per-sync-point series."""

    sync_points: int
    total_messages: int
    mean: float
    peak: int
    bursts_over_30: int

    @property
    def bursty(self) -> bool:
        """Bursts well above the mean, as the paper observes."""
        return self.peak > 2 * max(self.mean, 1.0)


def summarize_traffic(series: Sequence[int]) -> TrafficSummary:
    """Summarize a messages-per-sync series."""
    if not series:
        return TrafficSummary(0, 0, 0.0, 0, 0)
    return TrafficSummary(
        sync_points=len(series),
        total_messages=sum(series),
        mean=sum(series) / len(series),
        peak=max(series),
        bursts_over_30=sum(1 for m in series if m > 30),
    )


def format_traffic_series(
    series: Sequence[int], width: int = 60, title: str = ""
) -> str:
    """Render the Fig. 8 series as a horizontal text bar chart."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if not series:
        return "\n".join(lines + ["(no sync points)"])
    peak = max(max(series), 1)
    lines.append(f"{'sync#':>6} {'msgs':>5}  activity")
    for i, m in enumerate(series):
        bar = "#" * max(1 if m else 0, round(m / peak * width))
        lines.append(f"{i:>6} {m:>5}  {bar}")
    summary = summarize_traffic(series)
    lines.append(
        f"mean={summary.mean:.2f} msgs/sync, peak={summary.peak}, "
        f"bursts>30: {summary.bursts_over_30}"
    )
    return "\n".join(lines)
