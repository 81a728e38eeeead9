"""One probe per state transition, fanning out to the armed sinks.

A :class:`Probe` is bound once per :class:`repro.sim.engine.Simulator`
over the ambient session's armed sinks: the Chrome :class:`Tracer`, the
:class:`MetricsRegistry` and the :class:`SpanCollector`.  With no sink
armed the simulator binds ``None`` instead, so a call site pays one
``probe is not None`` check and nothing else.

Each method is one kind of transition and owns what every sink records
for it (DESIGN.md section 7 has the table): metric names, Chrome tracks
and span kinds live here, not in the machines.  A sink that is off is
skipped inside the probe, so sinks never gate each other.  The probe only
observes: it schedules no events, draws no randomness and mutates no
machine state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.obs import ObsSession
    from repro.obs.spans import SpanCollector


def _mc_dispatch(instr: Any, processor: int) -> Tuple[Any, Any]:
    """DIRECT's MC picked ``instr`` (None: nothing was dispatchable)."""
    if instr is None:
        return None, ("scheduler.starved", {}, 1)
    return (
        (f"dispatch.{instr.label}", "mc", "controller", {"processor": processor}),
        ("scheduler.pick", {"op": instr.node.opcode}, 1),
    )


#: decision -> detail -> (Chrome instant (name, category, track, args) or
#: None, counter (name, labels, amount) or None).
_DECISIONS: Dict[str, Callable[..., Tuple[Any, Any]]] = {
    "mc.dispatch": _mc_dispatch,
    "ic.dispatch": lambda ic, kind, ip, backlog: (
        (f"dispatch.{kind}", "ic", f"IC{ic}", {"ip": ip, "backlog": backlog}),
        ("ic.dispatch", {"kind": kind}, 1),
    ),
    "ic.inner_request": lambda ic, ip, index, decision: (
        ("request_inner", "ic", f"IC{ic}", {"ip": ip, "index": index, "decision": decision}),
        ("ic.inner_requests", {"decision": decision}, 1),
    ),
    "ic.request_ips": lambda shortfall: (None, ("ic.ip_requests", {}, shortfall)),
    "ic.grant_ip": lambda: (None, ("ic.ip_grants", {}, 1)),
    "ic.broadcast_inner": lambda: (None, ("ic.inner_broadcasts", {}, 1)),
    "ic.failover": lambda ic, query: (
        (f"ic{ic}.failover", "fault", "faults", {"query": query}), None
    ),
    "txn.abort": lambda query: ((f"abort.{query}", "txn", "queries", None), None),
    "fault": lambda name, site: (
        ("fault." + name, "fault", "faults", {"site": site}),
        ("faults." + name, {"site": site}, 1),
    ),
}


def _fold_admission(spans: "SpanCollector", t: float, queue: Any) -> None:
    """Fold the serving admission gauges into the span collector's windows."""
    spans.sample("inflight", t, float(queue.inflight))
    spans.sample("queue_depth", t, float(queue.depth))
    spans.count("offered", t, float(queue.arrived))
    spans.count("shed", t, float(queue.shed))


#: busy unit -> (Chrome track prefix, span-collector pool).
_UNITS = {"proc": ("P", "processors"), "ip": ("IP", "ips")}


class Probe:
    """The armed sinks of one simulator, behind one call per transition."""

    __slots__ = ("tracer", "metrics", "spans", "run_id", "_events", "_resources", "_rings")

    def __init__(self, session: "ObsSession", run_id: int = 0) -> None:
        self.tracer = session.tracer
        self.metrics = metrics = session.metrics
        self.spans = session.spans
        self.run_id = run_id
        self._events = metrics.counter("sim.events") if metrics is not None else None
        #: Instruments resolved once per resource and per ring.
        self._resources: Dict[str, Any] = {}
        self._rings: Dict[str, Any] = {}

    def hook(self, transition: str) -> Optional[Callable[..., None]]:
        """The bound ``event`` or ``message`` method for a hot path to
        pre-bind, or None when neither sink that records them is armed."""
        if self.tracer is None and self.metrics is None:
            return None
        method: Callable[..., None] = getattr(self, transition)
        return method

    # -- declarations, at component construction --------------------------------

    def pool(self, name: str, capacity: int) -> None:
        """``capacity`` servers that report ``busy`` (processors, IPs)."""
        if self.spans is not None:
            self.spans.register_capacity(name, capacity)

    def resource(self, name: str, capacity: int) -> Optional[Callable[[float, int], None]]:
        """A FIFO :class:`repro.sim.resources.Resource`; returns the recorder
        of its queue depth at time t, or None when no sink records it."""
        self.pool(name, capacity)
        if self.metrics is None:
            return None
        depth = self.metrics.series("resource.queue_depth", resource=name, run=self.run_id)
        self._resources[name] = (self.metrics.tally("resource.wait_ms", resource=name), depth)
        return depth.record

    def ring(self, name: str) -> None:
        """A communications ring that reports ``message``."""
        if self.metrics is not None:
            self._rings[name] = tuple(
                self.metrics.counter(f"ring.{what}", ring=name)
                for what in ("bytes", "messages", "broadcasts")
            ) + (self.metrics.tally("ring.message_bytes", ring=name),)

    # -- transitions ------------------------------------------------------------

    def event(self, label: str, t: float) -> None:
        """The engine fired one event."""
        if self.tracer is not None:
            self.tracer.instant(label or "event", "sim", t, "simulator")
        if self._events is not None:
            self._events.add()

    def query_begin(self, name: str, t: float) -> None:
        """Query ``name`` was submitted to the machine (the span record may
        already be open from the serving layer's ``offer``)."""
        if self.tracer is not None:
            self.tracer.instant(f"submit.{name}", "query", t, "queries")
        if self.spans is not None:
            self.spans.query_begin(name, t)

    def query_end(self, name: str, t: float, submitted_at: float, rows: int) -> None:
        """Query ``name`` completed with ``rows`` result rows."""
        if self.tracer is not None:
            args = {"result_rows": rows}
            self.tracer.span(name, "query", submitted_at, t - submitted_at, "queries", args)
        if self.spans is not None:
            self.spans.query_end(name, t, rows)

    def busy(self, unit: str, server: int, kind: str, query: Optional[str], t: float,
             dur: float, what: Optional[str] = None, owner: Optional[int] = None) -> None:
        """Processor ``server`` of ``unit`` (``proc``: DIRECT, ``ip``: ring)
        is busy on ``kind`` work for ``query`` over ``[t, t+dur)``.  ``what``
        refines the query's span name; ``owner`` is the IP's ring IC."""
        prefix, pool = _UNITS[unit]
        if self.tracer is not None:
            args = {"owner": f"IC{owner}"} if owner is not None else None
            self.tracer.span(kind, unit, t, dur, f"{prefix}{server}", args)
        if self.spans is not None:
            self.spans.resource_busy(pool, t, dur, query, "service", f"{unit}.{what or kind}")
        if self.metrics is not None:
            self.metrics.tally(f"{unit}.charge_ms", kind=kind).observe(dur)

    def service(self, resource: str, query: Optional[str], span_kind: str, t: float,
                dur: float, wait: float, nbytes: int, depth: int) -> None:
        """A job waited ``wait`` ms in ``resource``'s FIFO (``depth`` are left
        queued) and is served over ``[t, t+dur)`` as ``span_kind`` of ``query``."""
        if self.tracer is not None:
            args = {"bytes": nbytes, "wait_ms": wait}
            self.tracer.span(f"{resource}.service", "resource", t, dur, resource, args)
        if self.spans is not None:
            self.spans.resource_busy(resource, t, dur, query, span_kind, resource)
        if self.metrics is not None:
            wait_tally, depth_series = self._resources[resource]
            wait_tally.observe(wait)
            depth_series.record(t, depth)

    def interval(self, kind: str, query: Optional[str], start: float, end: float,
                 name: str) -> None:
        """An attribution-only span on ``query``'s timeline (staging, disk,
        transit, retransmission backoff)."""
        if self.spans is not None:
            self.spans.record(kind, query, start, end, name=name)

    def decision(self, what: str, t: float, *detail: Any) -> None:
        """A control decision: a Chrome instant and a counter (``_DECISIONS``)."""
        if self.tracer is None and self.metrics is None:
            return
        instant, count = _DECISIONS[what](*detail)
        if self.tracer is not None and instant is not None:
            name, cat, track, args = instant
            self.tracer.instant(name, cat, t, track, args)
        if self.metrics is not None and count is not None:
            name, labels, amount = count
            self.metrics.counter(name, **labels).add(amount)

    def backlog(self, ic: int, t: float, packets: int) -> None:
        """Ring IC ``ic`` has ``packets`` of work left (a step series)."""
        if self.metrics is not None:
            self.metrics.series("ic.backlog", ic=ic, run=self.run_id).record(t, packets)

    def offer(self, name: str, t: float, queue: Any, shed: bool) -> None:
        """Query ``name`` was offered to the serving admission ``queue`` (and
        ``shed``).  Latency counts from the offer: the span record opens here."""
        if self.spans is not None:
            self.spans.query_begin(name, t)
            if shed:
                self.spans.query_cancel(name)
            _fold_admission(self.spans, t, queue)

    def admission(self, t: float, queue: Any, completed: int,
                  dequeued: Optional[Tuple[str, float]] = None) -> None:
        """A served query completed (``completed`` so far); the admission
        ``queue`` released the ``dequeued`` (query, offer time), if any."""
        if self.spans is not None:
            if dequeued is not None:
                # Named so explain-latency can split admission queueing
                # from in-machine queueing.
                self.spans.record("queueing", dequeued[0], dequeued[1], t, name="admission")
            _fold_admission(self.spans, t, queue)
            self.spans.count("completed", t, float(completed))

    def message(self, ring: str, kind: str, t: float, nbytes: int, queued: int = 0,
                attempt: Optional[int] = None) -> None:
        """One ``send``/``broadcast``/``retransmit`` of ``nbytes`` offered to
        ``ring`` behind ``queued`` others (or as retry ``attempt``)."""
        if self.tracer is not None:
            extra = {"queued": queued} if attempt is None else {"attempt": attempt}
            self.tracer.instant(f"ring.{kind}", "ring", t, ring, {"bytes": nbytes, **extra})
        if self.metrics is not None:
            nbytes_counter, messages, broadcasts, sizes = self._rings[ring]
            nbytes_counter.add(nbytes)
            messages.add()
            if kind == "broadcast":
                broadcasts.add()
            sizes.observe(nbytes)

    def instruction_end(self, ic: int, label: str, op: str, start: float, end: float,
                        rows: int) -> None:
        """Ring IC ``ic`` finished instruction ``label`` (opcode ``op``)."""
        if self.tracer is not None:
            args = {"rows_out": rows}
            self.tracer.span(label, "instruction", start, end - start, f"IC{ic}", args)
        if self.metrics is not None:
            self.metrics.counter("ic.instructions_done", op=op).add()
