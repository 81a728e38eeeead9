"""Unified observability: one ambient session, three optional sinks.

The simulators report every state transition to one
:class:`repro.obs.probe.Probe`, which fans out to the sinks of an
:class:`ObsSession`: a Chrome-trace :class:`Tracer`, a
:class:`MetricsRegistry` and a :class:`SpanCollector`, each ``None`` when
off.  A freshly constructed :class:`repro.sim.engine.Simulator` binds the
*ambient* session; with nothing armed it binds no probe, so an
uninstrumented run pays one ``is not None`` check per hook.  Results are
bit-identical either way (hooks only observe, never schedule).
:func:`observe` swaps the tracer and registry, :func:`collecting` swaps
only the collector; nested, they arm the whole session.

Typical use::

    from repro import obs

    with obs.observe(trace=True, metrics=True) as session:
        report = run_ring_benchmark(catalog, queries)     # instrumented
    session.tracer.write("run.trace.json")                # Perfetto-loadable
    print(session.metrics.report(end_time_ms=report.elapsed_ms))
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Iterator, Optional

from repro.obs.metrics import MetricsRegistry, metric_key, parse_metric_key
from repro.obs.probe import Probe
from repro.obs.spans import SpanCollector
from repro.obs.tracer import Tracer

__all__ = [
    "MetricsRegistry",
    "ObsSession",
    "Probe",
    "SpanCollector",
    "Tracer",
    "ambient",
    "collecting",
    "metric_key",
    "next_run_id",
    "observe",
    "parse_metric_key",
    "peek_run_id",
    "set_next_run_id",
]


@dataclass
class ObsSession:
    """The sinks the simulators record into; each is None when off."""

    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    spans: Optional[SpanCollector] = None

    @property
    def armed(self) -> bool:
        """True when any sink is recording."""
        return not (self.tracer is None and self.metrics is None and self.spans is None)

    @property
    def mergeable(self) -> bool:
        """True unless a sink is one global timeline (tracer, collector)."""
        return self.tracer is None and self.spans is None


_ambient = ObsSession()

#: Monotone ids handed to instrumented Simulators.  A sweep experiment
#: builds many machines under one session; the id becomes the ``run``
#: label that keeps their time series and per-query gauges apart.  A
#: plain integer (not itertools.count) so the sweep runner can read and
#: re-seed the counter — parallel workers number their runs locally and
#: the merge relabels them to the ids serial execution would have used.
_next_run = 1


def next_run_id() -> int:
    """A fresh ``run`` label value for one instrumented simulator."""
    global _next_run
    rid = _next_run
    _next_run += 1
    return rid


def peek_run_id() -> int:
    """The id the next instrumented simulator would receive (no consume)."""
    return _next_run


def set_next_run_id(value: int) -> None:
    """Re-seed the run-id counter.

    The sweep runner uses this in two places: each worker resets to 1
    before executing a point (so per-point numbering is deterministic
    regardless of worker reuse), and the parent advances past all merged
    runs (so simulators built after a parallel sweep continue exactly
    where a serial sweep would have).
    """
    global _next_run
    _next_run = value


def ambient() -> ObsSession:
    """The session a newly built Simulator will record into."""
    return _ambient


@contextmanager
def _swapped(**sinks: Any) -> Iterator[ObsSession]:
    """Make the ambient session, with ``sinks`` replaced, current for the block."""
    global _ambient
    previous, _ambient = _ambient, replace(_ambient, **sinks)
    try:
        yield _ambient
    finally:
        _ambient = previous


@contextmanager
def observe(
    trace: bool = True,
    metrics: bool = True,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[ObsSession]:
    """Install a fresh (or given) tracer and registry for the block.

    The ambient span collector is kept.  Only simulators *constructed
    inside* the block pick the session up — a Simulator binds its probe
    once, at construction.
    """
    if tracer is None and trace:
        tracer = Tracer()
    if registry is None and metrics:
        registry = MetricsRegistry()
    with _swapped(tracer=tracer, metrics=registry) as session:
        yield session


@contextmanager
def collecting(collector: Optional[SpanCollector] = None) -> Iterator[SpanCollector]:
    """Arm span collection for simulators constructed inside the block.

    The ambient tracer and registry are kept; only the collector is
    swapped, so collectors nest.
    """
    installed = collector if collector is not None else SpanCollector()
    with _swapped(spans=installed):
        yield installed
