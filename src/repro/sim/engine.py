"""The event loop: tie-bucketed future events and a millisecond clock.

Events are plain callbacks that fire in ``(time, sequence)`` order —
timestamp, then scheduling order — so runs are exactly reproducible
regardless of callback contents.

Hot-path notes:

* The engine owns its future-event list: a heap of *distinct* float
  timestamps plus a dict of FIFO buckets, one per timestamp.  ``run``
  and ``step`` pop a whole bucket per heap operation; buckets only grow
  by append, so a bucket's order is the ``sequence`` order.  The heap
  holds floats only, so no comparison ever reaches a callable or an
  ``Event``.  The drain cursor lives in locals, saved in a ``finally``.
* A bucket entry is the cancellable :class:`Event` that ``schedule``
  returns, or a bare ``(action, label)`` tuple that ``_push`` stores for
  callbacks never cancelled (every ``Resource`` completion).
* ``now`` is a plain attribute; ``pending`` is computed from counters.
* Observability binds once, at ``__init__``: ``self.probe`` is the
  ambient session's :class:`repro.obs.probe.Probe`, or None when no sink
  is armed.  The fire loop pre-binds the probe's ``event`` hook, None
  unless a sink records events, so it pays one ``is not None`` check.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.check.sanitizer import Sanitizer
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.obs.probe import Probe

#: A bucket entry: an ``Event`` from ``schedule`` or a bare
#: ``(action, label)`` from ``_push``.
_Entry = Union["Event", Tuple[Callable[[], None], str]]

_INF = float("inf")


class Event:
    """One cancellable scheduled callback, as returned by ``schedule``.

    Ordering is carried by the bucket it sits in and its place there; the
    event object itself is never compared.  A cancelled event stays in its
    bucket and is skipped when reached (lazy deletion).
    """

    __slots__ = ("time", "sequence", "action", "label", "cancelled", "fired", "_sim")

    def __init__(self, time: float, sequence: int, action: Callable[[], None], label: str,
                 sim: "Simulator"):
        self.time = time
        self.sequence = sequence
        self.action = action
        self.label = label
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing (lazy deletion)."""
        if not self.cancelled:
            self.cancelled = True
            if not self.fired:
                self._sim._cancelled += 1

    def __repr__(self) -> str:
        state = ", cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, seq={self.sequence}{state})"


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    5.0
    >>> fired
    [5.0]
    """

    def __init__(self, sanitize: Optional[bool] = None, faults: Optional["FaultPlan"] = None):
        #: Current simulated time in milliseconds.
        self.now = 0.0
        # The future-event list: distinct pending timestamps (a heap) and
        # one FIFO bucket of entries per timestamp.
        self._times: List[float] = []
        self._buckets: Dict[float, List[_Entry]] = {}
        # Entries ever pushed (the next Event.sequence), fired, and
        # cancelled before firing; ``pending`` is what is left.
        self._scheduled = 0
        self._events_processed = 0
        self._cancelled = 0
        self._running = False
        # The bucket being drained, its cursor and timestamp, saved by
        # ``run``/``step`` when they return.
        self._batch: List[_Entry] = []
        self._batch_pos = 0
        self._batch_time = 0.0
        # The sanitizer binds once, like observability: explicit argument
        # wins, otherwise the ambient sanitize mode (off by default).  A
        # non-sanitizing run holds None and pays one identity check per
        # event.
        if sanitize is None:
            from repro.check.sanitizer import is_active

            sanitize = is_active()
        if sanitize:
            from repro.check.sanitizer import Sanitizer

            self._sanitizer: Optional["Sanitizer"] = Sanitizer()
        else:
            self._sanitizer = None
        # Observability binds once, from the ambient repro.obs session: a
        # probe over the armed sinks, or None.  The ``run`` label keeps
        # apart the many simulators a sweep builds under one registry.
        # Imported lazily: repro.obs reuses this package's instruments.
        from repro import obs

        session = obs.ambient()
        self.run_id = obs.next_run_id() if session.metrics is not None else 0
        self.probe: Optional["Probe"] = (
            obs.Probe(session, self.run_id) if session.armed else None
        )
        self._on_event = self.probe.hook("event") if self.probe is not None else None
        # Fault injection binds the same way the sanitizer does: explicit
        # plan wins, else the ambient repro.faults plan.  A plan with
        # nothing armed binds no injector, so components keep their
        # fault-free fast paths and the run is bit-identical to an
        # unarmed one.  (Bound after observability — the injector
        # pre-binds this simulator's probe.)
        if faults is None:
            from repro.faults.plan import active_plan

            faults = active_plan()
        if faults is not None and faults.armed:
            from repro.faults.injector import FaultInjector

            self._faults: Optional["FaultInjector"] = FaultInjector(faults, self)
        else:
            self._faults = None

    # -- counters ---------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Number of events that have fired."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Scheduled events that are neither fired nor cancelled."""
        return self._scheduled - self._events_processed - self._cancelled

    @property
    def sanitizer(self) -> Optional["Sanitizer"]:
        """The run's sanitizer, or None when sanitize mode is off."""
        return self._sanitizer

    def finalize_sanitizer(self) -> None:
        """Run the sanitizer's end-of-run invariant checks (no-op when off).

        The owning machine calls this after the event loop drains; checks
        include cache frame accounting, ring packet conservation, and the
        WAL's write-ahead invariants.  Raises :class:`repro.errors.SanitizerError`
        on any violation.
        """
        if self._sanitizer is not None:
            self._sanitizer.finish()

    @property
    def faults(self) -> Optional["FaultInjector"]:
        """The run's fault injector, or None when no fault plan is armed."""
        return self._faults

    def finalize_faults(self) -> None:
        """Publish the injector's recovery counters as gauges (no-op when off).

        The owning machine calls this next to :meth:`finalize_sanitizer`
        once the event loop drains.
        """
        if self._faults is not None:
            self._faults.finish()

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` to fire ``delay`` ms from now; returns the event."""
        # Delay validation comes first so callers see SimulationError for
        # a negative delay in *both* modes; the sanitizer's own negative
        # check is downstream of this one and only adds NaN/inf coverage.
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if self._sanitizer is not None:
            # Checks NaN/infinite delays and same-timestamp order
            # hazards; raises SanitizerError with a breadcrumb.
            self._sanitizer.on_schedule(self.now, delay, label)
        when = self.now + delay
        event = Event(when, self._scheduled, action, label, self)
        self._scheduled += 1
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [event]
            heappush(self._times, when)
        else:
            bucket.append(event)
        return event

    def schedule_at(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at absolute simulated ``time``."""
        return self.schedule(time - self.now, action, label)

    def _push(self, delay: float, action: Callable[[], None], label: str) -> None:
        """Schedule a callback that is never cancelled, as a bare entry.

        Same order and sanitizer audit as :meth:`schedule`, but no
        :class:`Event` is built and nothing is returned.  The caller
        guarantees ``delay >= 0``.
        """
        if self._sanitizer is not None:
            self._sanitizer.on_schedule(self.now, delay, label)
        when = self.now + delay
        self._scheduled += 1
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(action, label)]
            heappush(self._times, when)
        else:
            bucket.append((action, label))

    # -- execution --------------------------------------------------------------

    def step(self) -> bool:
        """Fire the next event; returns False when nothing is pending.

        Shares the reentrancy guard with :meth:`run`: stepping from inside
        a callback would interleave two dispatch loops and corrupt
        ``events_processed``.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        sanitizer = self._sanitizer
        batch = self._batch
        pos = self._batch_pos
        when = self._batch_time
        try:
            while True:
                if pos >= len(batch):
                    if not self._times:
                        return False
                    when = heappop(self._times)
                    batch = self._buckets.pop(when)
                    pos = 0
                entry = batch[pos]
                pos += 1
                if type(entry) is tuple:
                    action, label = entry
                else:
                    if entry.cancelled:
                        if sanitizer is not None:
                            sanitizer.on_drop(when, entry.label)
                        continue
                    entry.fired = True
                    action = entry.action
                    label = entry.label
                self.now = when
                self._events_processed += 1
                if sanitizer is not None:
                    sanitizer.on_fire(when, label)
                if self._on_event is not None:
                    self._on_event(label, when)
                action()
                return True
        finally:
            self._batch = batch
            self._batch_pos = pos
            self._batch_time = when
            self._running = False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the list drains, ``until`` is reached, or ``max_events`` fire.

        Returns the final simulated time.  ``max_events`` is a safety net
        against protocol livelock in the machine simulators; exceeding it
        raises :class:`SimulationError` rather than spinning forever.

        Buckets whose timestamp lies beyond ``until`` are left untouched —
        cancelled events past the horizon are *not* drained, so a horizon
        stop leaves the event list as an equivalent ``step()`` sequence
        would.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        horizon = _INF if until is None else until
        times = self._times
        buckets = self._buckets
        sanitizer = self._sanitizer
        on_event = self._on_event
        processed = self._events_processed
        stop = -1 if max_events is None else processed + max(max_events, 0)
        batch = self._batch
        pos = self._batch_pos
        when = self._batch_time
        # Same-time entries pushed by callbacks go to a fresh bucket (the
        # one being drained was popped), so ``batch`` never grows mid-drain;
        # the outer loop picks the new bucket up next.
        size = len(batch)
        try:
            while True:
                if pos >= size:
                    if not times or times[0] > horizon:
                        break
                    when = heappop(times)
                    batch = buckets.pop(when)
                    size = len(batch)
                    pos = 0
                elif when > horizon:
                    # A bucket left mid-drain by step()/max_events.
                    break
                while pos < size:
                    entry = batch[pos]
                    if type(entry) is tuple:
                        action, label = entry
                        if processed == stop:
                            raise self._livelock(max_events, label)
                    else:
                        if entry.cancelled:
                            pos += 1
                            if sanitizer is not None:
                                sanitizer.on_drop(when, entry.label)
                            continue
                        if processed == stop:
                            raise self._livelock(max_events, entry.label)
                        entry.fired = True
                        action = entry.action
                        label = entry.label
                    # Consume before running: an exception in a hook or the
                    # action must not leave the entry eligible to re-fire.
                    pos += 1
                    # The clock advances only when an event *fires* — an
                    # all-cancelled bucket must not drag ``now`` forward.
                    self.now = when
                    processed += 1
                    self._events_processed = processed
                    if sanitizer is not None:
                        sanitizer.on_fire(when, label)
                    if on_event is not None:
                        on_event(label, when)
                    action()
            # The clock always advances to ``until`` — even when the event
            # list drains first — so elapsed-time denominators (utilization,
            # offered Mbps) are consistent across stopping conditions.
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._batch = batch
            self._batch_pos = pos
            self._batch_time = when
            self._running = False
        return self.now

    def _livelock(self, max_events: Optional[int], label: str) -> SimulationError:
        return SimulationError(
            f"exceeded max_events={max_events} at t={self.now:.3f} "
            f"(likely a protocol livelock; next: {label!r})"
        )
