"""Structured event tracing in Chrome trace-event format.

A :class:`Tracer` collects *spans* (``ph: "X"`` complete events), *instants*
(``ph: "i"``) and *counter samples* (``ph: "C"``) from the simulators and
serializes them as Chrome trace-event JSON — the format read by
``chrome://tracing`` and Perfetto (https://ui.perfetto.dev).

Conventions:

* timestamps and durations arrive in **simulated milliseconds** and are
  written in microseconds (``ts``/``dur``), as the format requires;
* each span names a ``track`` (a device, processor, ring, or the query
  lane); tracks map to trace *thread ids* with ``thread_name`` metadata so
  viewers show one swim-lane per simulated component;
* a tracer that exists records; "tracing off" is no tracer at all (the
  session's ``tracer`` is ``None`` and the probe skips it);
* a *streaming* tracer (``stream_path=...``) flushes events to disk in
  batches of ``flush_every`` instead of buffering the whole trace, so a
  long traced ``repro serve`` run stays memory-bounded; call
  :meth:`close` to finalize the file (thread-name metadata is appended at
  the end — Chrome/Perfetto do not care about event order).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional


class Tracer:
    """Collects trace events; renders/writes Chrome trace-event JSON."""

    def __init__(
        self,
        stream_path: Optional[str] = None,
        flush_every: int = 10_000,
    ) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.stream_path = stream_path
        self.flush_every = flush_every
        self._events: List[dict] = []
        self._tracks: Dict[str, int] = {}
        self._stream_handle = None
        self._streamed = 0
        self._closed = False

    # -- recording ------------------------------------------------------------

    def span(
        self,
        name: str,
        cat: str,
        start_ms: float,
        dur_ms: float,
        track: str,
        args: Optional[dict] = None,
    ) -> None:
        """One complete (``ph: "X"``) event covering ``[start, start+dur)``."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": start_ms * 1000.0,
            "dur": dur_ms * 1000.0,
            "pid": 1,
            "tid": self._tid(track),
        }
        if args:
            event["args"] = args
        self._events.append(event)
        self._maybe_flush()

    def instant(
        self,
        name: str,
        cat: str,
        ts_ms: float,
        track: str,
        args: Optional[dict] = None,
    ) -> None:
        """One instant (``ph: "i"``) event at ``ts_ms``."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",
            "ts": ts_ms * 1000.0,
            "pid": 1,
            "tid": self._tid(track),
        }
        if args:
            event["args"] = args
        self._events.append(event)
        self._maybe_flush()

    def counter(self, name: str, ts_ms: float, values: Dict[str, float]) -> None:
        """One counter (``ph: "C"``) sample; Perfetto plots it as a graph."""
        self._events.append(
            {
                "name": name,
                "cat": "counter",
                "ph": "C",
                "ts": ts_ms * 1000.0,
                "pid": 1,
                "tid": 0,
                "args": dict(values),
            }
        )
        self._maybe_flush()

    def flow(
        self,
        name: str,
        cat: str,
        ts_ms: float,
        track: str,
        flow_id: int,
        phase: str = "s",
    ) -> None:
        """One flow event (``ph: "s"`` start / ``"f"`` finish).

        Flow arrows with a shared ``flow_id`` link slices across tracks —
        used to tie packet-hop spans back to their query span.
        """
        event = {
            "name": name,
            "cat": cat,
            "ph": phase,
            "ts": ts_ms * 1000.0,
            "pid": 1,
            "tid": self._tid(track),
            "id": flow_id,
        }
        if phase == "f":
            event["bp"] = "e"  # bind to the enclosing slice
        self._events.append(event)
        self._maybe_flush()

    def _tid(self, track: str) -> int:
        tid = self._tracks.get(track)
        if tid is None:
            tid = len(self._tracks) + 1
            self._tracks[track] = tid
        return tid

    # -- streaming ------------------------------------------------------------

    def _maybe_flush(self) -> None:
        if self.stream_path is not None and len(self._events) >= self.flush_every:
            self._flush_events()

    def _flush_events(self) -> None:
        """Append the buffered events to the stream file and drop them."""
        if self._closed:
            raise ValueError("streaming tracer already closed")
        if self._stream_handle is None:
            self._stream_handle = open(self.stream_path, "w", encoding="utf-8")
            self._stream_handle.write('{"displayTimeUnit": "ms", "traceEvents": [')
        handle = self._stream_handle
        for event in self._events:
            if self._streamed:
                handle.write(", ")
            handle.write(json.dumps(event, sort_keys=True))
            self._streamed += 1
        self._events.clear()

    def close(self) -> int:
        """Finalize the stream file; returns total events written.

        Flushes any buffered events, appends the thread-name metadata, and
        closes the JSON document.  Only meaningful for a streaming tracer;
        a buffering tracer raises (use :meth:`write`).
        """
        if self.stream_path is None:
            raise ValueError("close() is for streaming tracers; use write()")
        if self._closed:
            return self._streamed
        self._flush_events()
        handle = self._stream_handle
        for event in self._metadata_events():
            if self._streamed:
                handle.write(", ")
            handle.write(json.dumps(event, sort_keys=True))
            self._streamed += 1
        handle.write("]}")
        handle.close()
        self._stream_handle = None
        self._closed = True
        return self._streamed

    # -- output ---------------------------------------------------------------

    @property
    def event_count(self) -> int:
        """Events recorded so far (excluding thread-name metadata)."""
        return len(self._events) + self._streamed

    def _metadata_events(self) -> List[dict]:
        return [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": track},
            }
            for track, tid in sorted(self._tracks.items(), key=lambda kv: kv[1])
        ]

    def chrome_trace(self) -> dict:
        """The trace as a Chrome trace-event JSON object."""
        if self._streamed:
            raise ValueError(
                "events were already streamed to disk; the in-memory trace "
                "is incomplete (finalize with close() instead)"
            )
        return {
            "traceEvents": self._metadata_events() + list(self._events),
            "displayTimeUnit": "ms",
        }

    def write(self, path: str) -> None:
        """Serialize the trace to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, sort_keys=True)

    def clear(self) -> None:
        """Drop all recorded events (track ids are kept stable)."""
        self._events.clear()

    def __repr__(self) -> str:
        return f"Tracer({len(self._events)} events, {len(self._tracks)} tracks)"
