"""Process-pool fan-out for embarrassingly parallel sweep points.

The headline experiments are sweeps: dozens of *independent* simulator
builds (queries x granularity x processor counts for Figure 3.1, IP
counts for the Section 4 ring sizing, three machine variants for the
ring-vs-DIRECT comparison).  Each point is deterministic and shares no
state with its neighbours, so they parallelize perfectly across worker
processes — the paper's own "run as fast as the hardware allows" applied
to the reproduction harness itself.

Contract: an experiment declares a **module-level point function** (so it
pickles by reference) taking only picklable keyword arguments and
returning a picklable value (plain dicts of numbers, in practice).
:func:`map_points` executes the points — serially by default, or across
``workers`` processes — and returns per-point results **in point order**,
so parallel output is byte-identical to serial output.

Observability: a sweep may run under an ambient :mod:`repro.obs` session
(``repro metrics figure_3_1 --workers 8``).  Worker processes cannot
record into the parent's registry, so each worker captures a fresh local
registry per point and ships a full-fidelity dump back; the parent merges
the dumps in point order, relabeling each worker's locally numbered
``run`` ids to exactly the ids serial execution would have assigned, and
advances the global run-id counter past them.  Tracing (a single global
event timeline) falls back to serial execution.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.errors import SimulationError

#: Sweep points :func:`map_points` has been handed in this process;
#: ``repro bench`` reads the growth across one experiment as its
#: ``points`` field.
points_made = 0


def effective_workers(workers: Optional[int], points: int) -> int:
    """Resolve a ``--workers`` request against the host and the sweep size.

    ``None`` and ``1`` mean serial; ``0`` means one worker per CPU; any
    other positive value is clamped to the number of points.  Negative
    values are rejected.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise SimulationError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, min(workers, points))


def _pool_context():
    """Prefer fork (cheap, Linux) and fall back to spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _run_point(fn: Callable, kwargs: Dict, capture_metrics: bool):
    """Execute one sweep point inside a worker process.

    Installs a fresh observability session (metrics-only, mirroring the
    parent's request) and resets the run-id counter to 1, so a point's
    metric labels depend only on the point itself — never on which worker
    ran it or what ran there before.  Returns ``(value, registry dump or
    None, run ids consumed)``.
    """
    obs.set_next_run_id(1)
    # capture_tally_samples: the parent replays raw tally observations in
    # point order, keeping merged statistics bit-identical to a serial run.
    registry = obs.MetricsRegistry(capture_tally_samples=True) if capture_metrics else None
    with obs.observe(trace=False, metrics=False, registry=registry):
        value = fn(**kwargs)
    consumed = obs.peek_run_id() - 1
    return value, registry.dump() if registry is not None else None, consumed


def map_points(
    fn: Callable,
    points: Sequence[Dict],
    workers: Optional[int] = None,
) -> List:
    """Run ``fn(**point)`` for every point; results come back in point order.

    Serial (``workers`` in (None, 1), a single point, an ambient tracing
    session, or an armed span collector) calls ``fn`` inline under the
    ambient observability session — exactly the pre-sweep behaviour.
    Parallel fans the points out over a process pool and
    deterministically merges each worker's metrics dump back into the
    ambient registry (see the module docstring), so the two modes are
    interchangeable.  Tracing and span collection are single global
    timelines a worker process cannot write into, hence the fallback.
    """
    global points_made
    points = list(points)
    points_made += len(points)
    session = obs.ambient()
    n_workers = effective_workers(workers, len(points))
    if n_workers <= 1 or len(points) <= 1 or not session.mergeable:
        return [fn(**point) for point in points]

    capture_metrics = session.metrics is not None
    with ProcessPoolExecutor(
        max_workers=n_workers, mp_context=_pool_context()
    ) as pool:
        futures = [
            pool.submit(_run_point, fn, point, capture_metrics) for point in points
        ]
        outcomes = [future.result() for future in futures]

    values = [value for value, _dump, _consumed in outcomes]
    if session.metrics is not None:
        offset = obs.peek_run_id() - 1
        for _value, dump, consumed in outcomes:
            session.metrics.merge(dump, run_offset=offset)
            offset += consumed
        obs.set_next_run_id(offset + 1)
    return values
