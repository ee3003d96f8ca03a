"""Speedup analysis (Figs. 16–18).

Speedup is execution time on the reference (serial / smallest)
configuration divided by time on the configuration under test, for an
identical workload.  These helpers organize sweep results into the
series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class SweepPoint:
    """One measured configuration in a speedup sweep."""

    processors: int
    clusters: int
    time_us: float
    label: str = ""


@dataclass
class SpeedupCurve:
    """A labeled series of speedup vs processor count."""

    label: str
    points: List[SweepPoint] = field(default_factory=list)

    def add(self, point: SweepPoint) -> None:
        """Append one entry."""
        self.points.append(point)

    @property
    def baseline_time_us(self) -> float:
        """Time on the smallest configuration (the 1-PE reference)."""
        if not self.points:
            raise ValueError("empty speedup curve")
        return min(self.points, key=lambda p: p.processors).time_us

    def speedups(self) -> List[Tuple[int, float]]:
        """(processors, speedup) pairs, ascending in processors."""
        base = self.baseline_time_us
        return [
            (p.processors, base / p.time_us if p.time_us else 0.0)
            for p in sorted(self.points, key=lambda q: q.processors)
        ]

    def efficiency(self) -> List[Tuple[int, float]]:
        """(processors, speedup/processors) — parallel efficiency."""
        return [(p, s / p) for p, s in self.speedups() if p > 0]


def knee(curve: SpeedupCurve, threshold: float = 0.05) -> Optional[int]:
    """Processor count beyond which marginal speedup falls below
    ``threshold`` per added processor (saturation point, Fig. 17)."""
    pts = curve.speedups()
    for (p0, s0), (p1, s1) in zip(pts, pts[1:]):
        if p1 == p0:
            continue
        if (s1 - s0) / (p1 - p0) < threshold:
            return p0
    return None


def format_speedup_table(
    curves: Sequence[SpeedupCurve], x_label: str = "PEs"
) -> str:
    """Aligned text table with one column per curve."""
    processors = sorted(
        {p for curve in curves for p, _s in curve.speedups()}
    )
    header = f"{x_label:>6} " + " ".join(
        f"{curve.label:>14}" for curve in curves
    )
    lines = [header]
    lookup = [dict(curve.speedups()) for curve in curves]
    for p in processors:
        row = f"{p:>6} "
        for table in lookup:
            value = table.get(p)
            row += f"{value:>14.2f}" if value is not None else f"{'-':>14}"
        lines.append(row)
    return "\n".join(lines)
