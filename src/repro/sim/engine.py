"""The event loop: a batched future-event list with a millisecond clock.

Events are plain callbacks.  Ties in time are broken by a monotone sequence
number so simulation runs are exactly reproducible regardless of callback
contents.

Hot-path notes:

* The future-event list (:class:`repro.sim.schedulers.TieBatchedHeap`)
  keys on *distinct* timestamps and hands back whole same-time batches,
  so the dispatch loop pays one priority-queue operation per distinct
  timestamp instead of one per event.  Within a batch, events sit in scheduling order (buckets only
  grow by append and sequence numbers are monotone), which preserves the
  pre-batching ``(time, sequence)`` total order bit-for-bit.
* Observability binds once, at ``__init__``: ``self.probe`` is the
  ambient session's :class:`repro.obs.probe.Probe`, or None when no sink
  is armed.  The fire loop pre-binds the probe's ``event`` hook, None
  unless a sink records events, so it pays one ``is not None`` check.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import SimulationError
from repro.sim.schedulers import TieBatchedHeap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.check.sanitizer import Sanitizer
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.obs.probe import Probe

class Event:
    """One scheduled callback.

    Ordering is carried by ``(time, sequence)``; the event object itself is
    never compared.  Cancelled events stay in their bucket but are skipped
    (lazy deletion); the simulator's live-event counter is maintained
    eagerly by :meth:`cancel` so ``Simulator.pending`` is O(1).
    """

    __slots__ = ("time", "sequence", "action", "label", "cancelled", "fired", "_sim")

    def __init__(
        self,
        time: float,
        sequence: int,
        action: Callable[[], None],
        label: str = "",
        cancelled: bool = False,
    ):
        self.time = time
        self.sequence = sequence
        self.action = action
        self.label = label
        self.cancelled = cancelled
        self.fired = False
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent this event from firing (lazy deletion)."""
        if not self.cancelled:
            self.cancelled = True
            if not self.fired:
                sim = self._sim
                if sim is not None:
                    sim._live -= 1

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

    def __init__(
        self,
        sanitize: Optional[bool] = None,
        faults: Optional["FaultPlan"] = None,
    ):
        self._now = 0.0
        self._fel = TieBatchedHeap()
        self._sequence = itertools.count()
        self._events_processed = 0
        self._running = False
        #: Pending (scheduled, not yet fired, not cancelled) events.
        self._live = 0
        # The batch currently being drained: ``run``/``step`` share it so a
        # horizon stop, a max_events stop, or single-stepping can resume
        # mid-batch without disturbing order.
        self._batch: List[Event] = []
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

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Scheduled events that are neither fired nor cancelled.

        O(1): a live counter maintained by ``schedule``/``cancel`` and the
        dispatch loop — callers polling it in a loop used to trigger a
        full heap scan per call.
        """
        return self._live

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
            self._sanitizer.on_schedule(self._now, delay, label)
        when = self._now + delay
        event = Event(when, next(self._sequence), action, label)
        event._sim = self
        self._fel.push(when, event)
        self._live += 1
        return event

    def schedule_at(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at absolute simulated ``time``."""
        return self.schedule(time - self._now, action, label)

    # -- execution --------------------------------------------------------------

    def _fire(self, time: float, event: Event) -> None:
        """Advance the clock to ``time``, record, and run ``event``."""
        self._now = time
        event.fired = True
        self._live -= 1
        self._events_processed += 1
        if self._sanitizer is not None:
            self._sanitizer.on_fire(time, event.label)
        if self._on_event is not None:
            self._on_event(event.label, time)
        event.action()

    def _next_batch(self) -> bool:
        """Load the next batch from the future-event list; False when empty."""
        when = self._fel.peek_time()
        if when is None:
            return False
        self._batch_time, self._batch = self._fel.pop_batch()
        self._batch_pos = 0
        return True

    def step(self) -> bool:
        """Fire the next event; returns False when nothing is pending.

        Shares the reentrancy guard with :meth:`run`: stepping from inside
        a callback would interleave two dispatch loops and corrupt
        ``events_processed``.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            while True:
                batch = self._batch
                pos = self._batch_pos
                if pos >= len(batch):
                    if not self._next_batch():
                        return False
                    batch = self._batch
                    pos = 0
                event = batch[pos]
                self._batch_pos = pos + 1
                if event.cancelled:
                    if self._sanitizer is not None:
                        self._sanitizer.on_drop(self._batch_time, event.label)
                    continue
                self._fire(self._batch_time, event)
                return True
        finally:
            self._running = False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the list drains, ``until`` is reached, or ``max_events`` fire.

        Returns the final simulated time.  ``max_events`` is a safety net
        against protocol livelock in the machine simulators; exceeding it
        raises :class:`SimulationError` rather than spinning forever.

        Batches whose timestamp lies beyond ``until`` are left untouched —
        cancelled events past the horizon are *not* drained (draining them
        used to emit sanitizer drop breadcrumbs stamped after the clock and
        left the event list in a different state than an equivalent
        ``step()`` sequence).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        fired = 0
        sanitizer = self._sanitizer
        on_event = self._on_event
        try:
            while True:
                batch = self._batch
                pos = self._batch_pos
                if pos >= len(batch):
                    when = self._fel.peek_time()
                    if when is None:
                        break
                    if until is not None and when > until:
                        break
                    self._batch_time, batch = self._fel.pop_batch()
                    self._batch = batch
                    pos = 0
                else:
                    # Resuming a batch left over from step()/max_events.
                    when = self._batch_time
                    if until is not None and when > until:
                        break
                when = self._batch_time
                size = len(batch)
                # Same-time events scheduled by these callbacks open a
                # fresh bucket in the event list (this one was popped), so
                # ``batch`` never grows mid-drain; the outer loop picks the
                # new bucket up as the next batch at the same timestamp.
                while pos < size:
                    event = batch[pos]
                    if event.cancelled:
                        pos += 1
                        self._batch_pos = pos
                        if sanitizer is not None:
                            sanitizer.on_drop(when, event.label)
                        continue
                    if max_events is not None and fired >= max_events:
                        self._batch_pos = pos
                        raise SimulationError(
                            f"exceeded max_events={max_events} at t={self._now:.3f} "
                            f"(likely a protocol livelock; next: {event.label!r})"
                        )
                    pos += 1
                    # Consume before running: an exception in a hook or the
                    # action must not leave the event eligible to re-fire.
                    self._batch_pos = pos
                    # The clock advances only when an event *fires* — an
                    # all-cancelled batch must not drag ``now`` forward.
                    self._now = when
                    event.fired = True
                    self._live -= 1
                    self._events_processed += 1
                    fired += 1
                    if sanitizer is not None:
                        sanitizer.on_fire(when, event.label)
                    if on_event is not None:
                        on_event(event.label, when)
                    event.action()
            # The clock always advances to ``until`` — even when the event
            # list drains first — so elapsed-time denominators (utilization,
            # offered Mbps) are consistent across stopping conditions.
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
        return self._now
