"""Measurement instruments: counters, tallies, and time series.

The experiment harness reads these to produce figure data; the simulators
only ever *record* into them, never read back (measurements cannot affect
behaviour).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass
class Counter:
    """A monotone event/byte counter."""

    name: str
    value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increase the counter (negative amounts are rejected)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}={self.value})"


@dataclass
class Tally:
    """Streaming mean/variance/extrema of observed samples (Welford)."""

    name: str
    count: int = 0
    _mean: float = 0.0
    _m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    #: When not None, every observed sample is also kept raw, so another
    #: tally can *replay* them (bit-identical to having observed them
    #: itself) instead of merging summary state.  Sweep worker registries
    #: turn this on; it is what makes parallel metrics byte-identical to
    #: serial.
    samples: Optional[List[float]] = None

    def observe(self, sample: float) -> None:
        """Record one sample."""
        self.count += 1
        delta = sample - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (sample - self._mean)
        self.minimum = min(self.minimum, sample)
        self.maximum = max(self.maximum, sample)
        if self.samples is not None:
            self.samples.append(sample)

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (0.0 below two samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        return f"Tally({self.name!r}, n={self.count}, mean={self.mean:.3f})"


@dataclass
class TimeSeries:
    """Timestamped samples, e.g. queue lengths over simulated time."""

    name: str
    samples: List[Tuple[float, float]] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        """Append one ``(time, value)`` sample; time must not go backwards."""
        if self.samples and time < self.samples[-1][0]:
            raise ValueError(f"time series {self.name!r} must be monotone in time")
        self.samples.append((time, value))

    def time_weighted_mean(self, end_time: float) -> float:
        """Mean value weighted by holding time, from first sample to ``end_time``."""
        if not self.samples:
            return 0.0
        total = 0.0
        for (t0, v), (t1, _v1) in zip(self.samples, self.samples[1:]):
            total += v * (t1 - t0)
        last_t, last_v = self.samples[-1]
        if end_time > last_t:
            total += last_v * (end_time - last_t)
        span = end_time - self.samples[0][0]
        return total / span if span > 0 else self.samples[-1][1]

    @property
    def last(self) -> float:
        """Most recent value (0.0 when empty)."""
        return self.samples[-1][1] if self.samples else 0.0

    def __len__(self) -> int:
        return len(self.samples)
