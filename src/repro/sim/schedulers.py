"""The future-event list behind :class:`repro.sim.engine.Simulator`.

:class:`TieBatchedHeap` keys on *distinct* timestamps and keeps a FIFO
bucket of events per timestamp, so the engine dequeues whole same-time
**batches**: one priority-queue operation per distinct timestamp instead
of one per event.  Workloads with heavy timestamp ties (rings full of
synchronized hops, the bench microloop) collapse ``O(n log n)`` heap
traffic into ``O(d log d)`` for ``d`` distinct times.  Within a bucket,
events sit in scheduling order (the engine's sequence numbers are
monotone and a bucket only ever grows by append), which preserves the
engine's ``(time, sequence)`` tie-break contract exactly.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.engine import Event

#: A dequeued batch: the timestamp plus its events in scheduling order.
Batch = Tuple[float, List["Event"]]


class TieBatchedHeap:
    """Binary heap of distinct timestamps with per-timestamp FIFO buckets."""

    __slots__ = ("_times", "_buckets")

    def __init__(self) -> None:
        self._times: List[float] = []
        self._buckets: Dict[float, List["Event"]] = {}

    def push(self, when: float, event: "Event") -> None:
        bucket = self._buckets.get(when)
        if bucket is not None:
            bucket.append(event)
        else:
            self._buckets[when] = [event]
            heapq.heappush(self._times, when)

    def peek_time(self) -> Optional[float]:
        """The earliest pending timestamp, or None when empty."""
        return self._times[0] if self._times else None

    def pop_batch(self) -> Batch:
        """Remove and return the earliest ``(time, events)`` batch."""
        when = heapq.heappop(self._times)
        return when, self._buckets.pop(when)

    def __len__(self) -> int:
        """Distinct pending timestamps (not event count)."""
        return len(self._times)
