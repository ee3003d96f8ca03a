"""Shared experiment infrastructure: results, registry, rendering."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List


@dataclass
class ExperimentResult:
    """Output of one regenerated table/figure."""

    experiment_id: str          # e.g. "fig16"
    title: str                  # paper caption summary
    paper_claim: str            # what the paper reports
    lines: List[str] = field(default_factory=list)  # rendered rows/series
    data: Dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def add(self, line: str = "") -> None:
        """Append one entry."""
        self.lines.append(line)

    def add_table(self, text: str) -> None:
        """Append a pre-rendered multi-line table."""
        self.lines.extend(text.splitlines())

    def render(self) -> str:
        """Human-readable text rendering."""
        header = [
            "=" * 72,
            f"{self.experiment_id}: {self.title}",
            f"paper: {self.paper_claim}",
            "-" * 72,
        ]
        footer = [f"(regenerated in {self.wall_seconds:.1f}s wall time)"]
        return "\n".join(header + self.lines + footer)


#: Registry of experiment run functions: id -> callable(fast) -> result.
REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {}


def experiment(experiment_id: str):
    """Decorator registering an experiment entry point."""

    def wrap(fn: Callable[..., ExperimentResult]):
        REGISTRY[experiment_id] = fn
        return fn

    return wrap


def timed(fn: Callable[[], ExperimentResult]) -> ExperimentResult:
    """Run an experiment body, stamping wall time."""
    start = time.time()
    result = fn()
    result.wall_seconds = time.time() - start
    return result


def nlu_config(base=None):
    """NLU machine configuration: semantically-based allocation.

    The paper's KB mapping is *"variable ... using sequential,
    round-robin, or semantically-based allocation"* (§II-A); locality-
    preserving allocation is what keeps parse-time marker traffic near
    the published levels, so the NLU experiments use it throughout.
    """
    from dataclasses import replace

    from ..machine import snap1_16cluster

    return replace(base or snap1_16cluster(), partition_policy="semantic")


def fmt_us(value_us: float) -> str:
    """Human-scaled time formatting."""
    if value_us >= 1e6:
        return f"{value_us / 1e6:.2f} s"
    if value_us >= 1e3:
        return f"{value_us / 1e3:.2f} ms"
    return f"{value_us:.1f} us"
