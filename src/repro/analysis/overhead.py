"""Parallel-overhead decomposition (Fig. 21).

The four components of parallel overhead in a marker-propagation
system (§IV *Processing Overhead*):

1. **instruction broadcast** time (configuration phase) — constant,
   thanks to the global bus;
2. **message communication** time (propagation phase) — grows
   ~O(log N) with N clusters (hypercube hop count);
3. **barrier synchronization** time (propagation → accumulation
   transition) — proportional to processor count, small slope;
4. **result collection** time (accumulation phase) — proportional to
   cluster count and the dominant overhead.

These helpers collect the per-run :class:`OverheadBreakdown` across a
cluster sweep and verify/render the scaling claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..machine.report import OverheadBreakdown

COMPONENTS = ("broadcast", "communication", "synchronization", "collection")


@dataclass
class OverheadSweep:
    """Overhead components measured across machine sizes."""

    #: (clusters, processors, breakdown) per configuration.
    rows: List[Tuple[int, int, OverheadBreakdown]] = field(
        default_factory=list
    )

    def add(self, clusters: int, processors: int,
            breakdown: OverheadBreakdown) -> None:
        """Append one entry."""
        self.rows.append((clusters, processors, breakdown))

    def series(self, component: str) -> List[Tuple[int, float]]:
        """(clusters, µs) for one overhead component."""
        return [
            (clusters, getattr(breakdown, component))
            for clusters, _pes, breakdown in sorted(self.rows)
        ]

    def dominant_component(self) -> str:
        """Component with the largest overhead at the largest machine."""
        _c, _p, breakdown = max(self.rows, key=lambda r: r[0])
        return max(COMPONENTS, key=lambda comp: getattr(breakdown, comp))

    # -- scaling-shape checks (used by tests and EXPERIMENTS.md) --------
    def growth_ratio(self, component: str) -> float:
        """Overhead at largest machine / overhead at smallest."""
        series = self.series(component)
        if len(series) < 2 or series[0][1] == 0:
            return 1.0
        return series[-1][1] / series[0][1]

    def is_roughly_constant(self, component: str, tolerance: float = 2.0) -> bool:
        """Whether the component grows less than `tolerance` overall."""
        return self.growth_ratio(component) <= tolerance

    def is_sublinear(self, component: str) -> bool:
        """Grows slower than cluster count (the O(log N) claim)."""
        series = self.series(component)
        if len(series) < 2:
            return True
        c0, v0 = series[0]
        c1, v1 = series[-1]
        if v0 <= 0:
            return True
        cluster_ratio = c1 / c0
        return (v1 / v0) < cluster_ratio


def format_overhead_table(sweep: OverheadSweep) -> str:
    """Aligned table: one row per machine size, one column per component."""
    lines = [
        f"{'clusters':>8} {'PEs':>5} " + " ".join(
            f"{c:>16}" for c in COMPONENTS
        ) + f" {'total':>16}"
    ]
    for clusters, pes, breakdown in sorted(sweep.rows):
        row = f"{clusters:>8} {pes:>5} "
        row += " ".join(
            f"{getattr(breakdown, c):>16.1f}" for c in COMPONENTS
        )
        row += f" {breakdown.total():>16.1f}"
        lines.append(row)
    return "\n".join(lines)
