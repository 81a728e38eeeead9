"""Skewed and uniform value generators for the synthetic database.

All generators are driven by a caller-supplied :class:`random.Random`, so
database generation is deterministic under a seed (a requirement for
reproducible figures).
"""

from __future__ import annotations

import bisect
import math
import random
from typing import List, Sequence


class ZipfGenerator:
    """Draws integers in ``[1, n]`` with Zipfian skew parameter ``s``.

    Uses an exact inverse-CDF table (fine for the n <= ~100k this library
    needs).  ``s = 0`` degenerates to uniform.
    """

    def __init__(self, n: int, s: float = 1.0):
        if n < 1:
            raise ValueError(f"Zipf needs n >= 1, got {n}")
        if s < 0:
            raise ValueError(f"Zipf skew must be >= 0, got {s}")
        self.n = n
        self.s = s
        weights = [1.0 / math.pow(k, s) for k in range(1, n + 1)]
        total = sum(weights)
        cumulative: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        cumulative[-1] = 1.0
        self._cdf = cumulative

    def draw(self, rng: random.Random) -> int:
        """One Zipf-distributed integer in ``[1, n]``."""
        u = rng.random()
        return bisect.bisect_left(self._cdf, u) + 1


def shuffled_range(rng: random.Random, n: int) -> List[int]:
    """The integers ``0..n-1`` in a seeded random order (unique keys)."""
    values = list(range(n))
    rng.shuffle(values)
    return values


def weighted_partition(total: int, weights: Sequence[float]) -> List[int]:
    """Split ``total`` into integer parts proportional to ``weights``.

    Parts always sum exactly to ``total`` (largest-remainder rounding)
    and every part is at least 1 when ``total >= len(weights)``.
    """
    if total < 0:
        raise ValueError("total must be nonnegative")
    wsum = float(sum(weights))
    if wsum <= 0:
        raise ValueError("weights must sum to a positive value")
    raw = [total * w / wsum for w in weights]
    parts = [int(x) for x in raw]
    remainders = sorted(
        range(len(weights)), key=lambda i: raw[i] - parts[i], reverse=True
    )
    shortfall = total - sum(parts)
    for i in range(shortfall):
        parts[remainders[i % len(weights)]] += 1
    if total >= len(weights):
        # Promote zero parts to 1, stealing from the largest parts.
        for i, p in enumerate(parts):
            if p == 0:
                donor = max(range(len(parts)), key=lambda j: parts[j])
                parts[donor] -= 1
                parts[i] = 1
    return parts
