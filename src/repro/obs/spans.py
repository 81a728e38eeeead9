"""Causal span collection: per-query latency decomposition raw material.

A :class:`SpanCollector` records, on **simulated time**, the intervals a
query spends in each stage of a machine — IP/processor service, disk-cache
fetches, ring/network transit, retransmission backoff — plus explicit
admission-queue waits.  Every completed query yields a flat span record
(the "span tree" flattened onto the query's timeline); the critical-path
extractor in :mod:`repro.obs.critical_path` turns that into an exact
queueing / service / transit / disk / retransmission partition of the
query's end-to-end latency.

The collector is one sink of the ambient :class:`repro.obs.ObsSession`:
:func:`repro.obs.collecting` installs it, and the simulator's
:class:`repro.obs.probe.Probe` feeds it.  Armed collection must never
perturb the simulation: hooks only *observe* state transitions that
already happen — they schedule no events, draw no randomness, and mutate
no machine state.  ``repro check --tracing-identity`` enforces this
byte-for-byte.

Time-series samples (in-flight, queue depth, shed, completions, resource
busy-time) are folded into fixed windows *incrementally* so memory stays
O(windows + completed queries), not O(samples).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.timeseries import BusyFold, CumulativeFold, StepFold

#: Span kinds, in critical-path precedence order (see ``critical_path``).
SPAN_KINDS = ("service", "disk", "transit", "retransmission", "queueing")

#: A recorded interval: ``(kind, name, start_ms, end_ms)``.
Span = Tuple[str, str, float, float]


class QueryRecord:
    """One query's lifetime and the spans observed inside it."""

    __slots__ = ("name", "start", "end", "rows", "spans")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.rows = 0
        self.spans: List[Span] = []

    @property
    def latency_ms(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start


class SpanCollector:
    """Collects per-query spans and windowed serving time-series.

    ``window_ms`` sizes the time-series fold windows.
    """

    def __init__(self, window_ms: float = 100.0) -> None:
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        self.window_ms = float(window_ms)
        self._open: Dict[str, QueryRecord] = {}
        self.completed: List[QueryRecord] = []
        self.cancelled = 0
        self._step: Dict[str, StepFold] = {}
        self._cumulative: Dict[str, CumulativeFold] = {}
        self._busy: Dict[str, BusyFold] = {}
        self._capacity: Dict[str, int] = {}

    # ------------------------------------------------------------ query lifecycle

    def query_begin(self, name: str, t: float) -> None:
        """Open a query record at ``t``.  Idempotent: the serve layer opens
        at offer time; a later ``machine.submit`` begin is a no-op, so
        latency always counts from the earliest observed point."""
        if name not in self._open:
            self._open[name] = QueryRecord(name, t)

    def query_end(self, name: str, t: float, rows: int = 0) -> None:
        record = self._open.pop(name, None)
        if record is None:
            return
        record.end = t
        record.rows = rows
        self.completed.append(record)

    def query_cancel(self, name: str) -> None:
        """Drop an open record (e.g. the admission queue shed the query)."""
        if self._open.pop(name, None) is not None:
            self.cancelled += 1

    def record(
        self, kind: str, query: Optional[str], start: float, end: float, name: str = ""
    ) -> None:
        """Attach a completed interval to ``query``.  Spans for unknown or
        already-completed queries are dropped — late control traffic after
        finalization does not belong to any open timeline."""
        if query is None:
            return
        record = self._open.get(query)
        if record is not None and end > start:
            record.spans.append((kind, name, start, end))

    # ------------------------------------------------------------ time-series

    def sample(self, series: str, t: float, value: float) -> None:
        """Fold a step-function sample (e.g. in-flight count) at ``t``."""
        fold = self._step.get(series)
        if fold is None:
            fold = self._step[series] = StepFold(self.window_ms)
        fold.sample(t, value)

    def count(self, series: str, t: float, value: float) -> None:
        """Fold a monotone cumulative counter sample (e.g. total shed)."""
        fold = self._cumulative.get(series)
        if fold is None:
            fold = self._cumulative[series] = CumulativeFold(self.window_ms)
        fold.sample(t, value)

    def resource_busy(
        self,
        resource: str,
        start: float,
        duration: float,
        query: Optional[str] = None,
        kind: str = "service",
        name: str = "",
    ) -> None:
        """Fold one busy interval of ``resource`` into its utilization and
        attribute it to ``query`` (when open) as a ``kind`` span."""
        if duration <= 0:
            return
        if query is not None:
            # ``record`` inlined: this is the collector's hottest path.
            record = self._open.get(query)
            end = start + duration
            if record is not None and end > start:
                record.spans.append((kind, name, start, end))
        fold = self._busy.get(resource)
        if fold is None:
            fold = self._busy[resource] = BusyFold(self.window_ms)
        fold.add(start, duration)

    def register_capacity(self, resource: str, capacity: int) -> None:
        """Declare a resource's parallel capacity (for utilization)."""
        self._capacity[resource] = capacity

    # ------------------------------------------------------------ export

    def step_series(self) -> Dict[str, StepFold]:
        return self._step

    def cumulative_series(self) -> Dict[str, CumulativeFold]:
        return self._cumulative

    def busy_series(self) -> Dict[str, BusyFold]:
        return self._busy

    def capacities(self) -> Dict[str, int]:
        return self._capacity
