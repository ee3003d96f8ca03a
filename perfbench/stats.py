"""Order statistics for the benchmark's timings.

Every pass runs the same units, so each unit is timed once per pass.
Timings are summarised from each unit's fastest repeats: on a shared
machine the speed of one CPU swings by more than half for tens of
seconds at a time, and a median of raw pass times follows those swings
from run to run, while the fastest repeat of each unit does not.

A percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it, so a tail figure always rests on a tail, never on one or
two slow samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: Samples that must lie strictly above a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def rank(count: int, p: float) -> int:
    """1-based nearest-rank position of the ``p``-th percentile."""
    return max(1, math.ceil(p / 100.0 * count))


def samples_beyond(count: int, p: float) -> int:
    """Samples strictly above the ``p``-th percentile's rank."""
    return count - rank(count, p)


def min_samples(p: float) -> int:
    """Fewest samples for which the ``p``-th percentile may be reported."""
    count = MIN_BEYOND + 1
    while samples_beyond(count, p) < MIN_BEYOND:
        count += 1
    return count


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile, refusing an unsupported tail."""
    if samples_beyond(len(values), p) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} of {len(values)} samples leaves "
            f"{max(samples_beyond(len(values), p), 0)} beyond it; "
            f"need {MIN_BEYOND} ({min_samples(p)} samples)"
        )
    return sorted(values)[rank(len(values), p) - 1]


def block_minima(passes: Sequence[Dict[str, float]],
                 blocks: int) -> List[float]:
    """Each unit's fastest time within each of ``blocks`` groups of passes.

    Pass ``i`` joins group ``i % blocks``, so every group spans the
    whole run.  Taking the fastest repeat of a unit filters out the
    stretches in which other tenants of the machine slow it down.
    """
    samples = []
    for block in range(blocks):
        group = passes[block::blocks]
        samples.extend(min(p[label] for p in group) for label in group[0])
    return samples


def blocks_for(units: int, p: float) -> int:
    """Fewest groups of passes whose unit minima support the ``p``-th
    percentile."""
    return math.ceil(min_samples(p) / units)


def best_percentile(passes: Sequence[Dict[str, float]],
                    p: float) -> Tuple[float, int]:
    """The ``p``-th percentile of unit minima, and its sample count."""
    blocks = blocks_for(len(passes[0]), p)
    if len(passes) < blocks:
        raise TooFewSamples(
            f"p{p:g} needs {blocks} groups of passes, have {len(passes)}")
    samples = block_minima(passes, blocks)
    return percentile(samples, p), len(samples)


def best_total(passes: Sequence[Dict[str, float]]) -> float:
    """A pass with every unit at its fastest: the sum of unit minima."""
    return sum(block_minima(passes, 1))


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf
