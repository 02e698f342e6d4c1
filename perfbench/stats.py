"""Sample statistics with the benchmark's reporting rules.

A percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it, so p50 needs 20 samples and p99 needs 1000.  Every reported
percentile carries its sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["MIN_BEYOND", "InsufficientSamples", "Percentile", "percentile", "min_samples"]

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to be reported."""


@dataclass(frozen=True)
class Percentile:
    value: float
    samples: int


def min_samples(q: float) -> int:
    """Smallest sample count with ``MIN_BEYOND`` samples beyond quantile ``q``."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    return math.ceil(round(MIN_BEYOND / (1.0 - q), 9))


def percentile(values, q: float) -> Percentile:
    """Nearest-rank percentile ``q`` (0 < q < 1) of ``values``.

    Raises :class:`InsufficientSamples` when fewer than ``MIN_BEYOND``
    samples would lie beyond it.
    """
    ordered = sorted(values)
    needed = min_samples(q)
    if len(ordered) < needed:
        raise InsufficientSamples(
            f"p{q * 100:g} needs at least {needed} samples, got {len(ordered)}"
        )
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return Percentile(ordered[rank - 1], len(ordered))
