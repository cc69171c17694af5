"""Latency percentiles.

The tail of a latency sample is the highest percentile with at least ten
samples beyond it.  A run repeats whole passes over a fixed op mix, so the
percentile is fixed by the sample count the run is guaranteed (passes times
ops of the kind per pass), not by how many passes happened to fit: a later
pass adds another copy of the same mix, which leaves each percentile where
it was but would move a rank counted from the top.
"""

from __future__ import annotations

import math
from typing import Sequence


def tail_percentile(guaranteed: int) -> int:
    """The highest whole percentile p with at least ten of ``guaranteed``
    samples above it: floor(100 (1 - 10 / guaranteed))."""
    if guaranteed < 20:
        raise ValueError("a tail needs at least 20 samples, got %d" % guaranteed)
    return (100 * (guaranteed - 10)) // guaranteed


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]
