"""FIFO server resources over the event loop.

A :class:`Resource` models a device with ``capacity`` identical servers
(disk arms, cache ports, a ring's insertion register, a pool of IPs).
Callers submit *jobs* with a known service time; the resource runs up to
``capacity`` jobs at once and queues the rest in FIFO order.  Every job
carries its service time — there are no open-ended holds — so a job's
end is fixed the moment it starts.  Utilization and queueing statistics
are tracked for the experiment reports.

Hot-path note: the simulator's observability probe is pre-bound at
construction (it never flips after ``__init__``), so the per-job cost of
disabled observability is one ``is not None`` check.  The probe resolves
this resource's instruments once, when the resource declares itself.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Simulator


@dataclass
class ResourceStats:
    """Aggregate statistics for one resource."""

    jobs_completed: int = 0
    busy_time: float = 0.0
    wait_time: float = 0.0
    bytes_served: int = 0
    peak_queue: int = 0

    def utilization(self, elapsed: float, capacity: int) -> float:
        """Mean fraction of servers busy over ``elapsed`` ms."""
        if elapsed <= 0 or capacity <= 0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * capacity))

    def mean_wait(self) -> float:
        """Mean queueing delay per completed job, ms."""
        if not self.jobs_completed:
            return 0.0
        return self.wait_time / self.jobs_completed


#: Tolerance for float-summation dust when checking busy time against
#: wall-clock capacity.  Anything beyond this is real over-accounting.
_UTILIZATION_SLOP = 1e-9


def checked_utilization(
    sim: Simulator, busy_ms: float, elapsed_ms: float, capacity: int, what: str
) -> float:
    """Busy-time utilization with an over-accounting oracle, not a clamp.

    ``busy_ms > elapsed_ms * capacity`` means some interval of service was
    credited twice (the failover double-count this guards against), so it
    is reported as a sanitizer failure — or raised directly when sanitize
    mode is off — instead of being silently truncated to 1.0.  Only
    float-summation dust inside ``_UTILIZATION_SLOP`` is shaved.
    """
    if elapsed_ms <= 0 or capacity <= 0:
        return 0.0
    util = busy_ms / (elapsed_ms * capacity)
    if util > 1.0 + _UTILIZATION_SLOP:
        message = (
            f"{what}: busy time {busy_ms:.6f} ms exceeds wall-clock capacity "
            f"{elapsed_ms:.6f} ms x {capacity} servers (utilization {util:.9f}); "
            f"some service interval was credited more than once"
        )
        if sim.sanitizer is not None:
            sim.sanitizer.fail(message)
        raise SimulationError(message)
    return min(util, 1.0)


class Resource:
    """A ``capacity``-server FIFO queueing resource.

    ``submit(service_time, done, nbytes)`` enqueues a job; ``done`` fires
    when the job's service completes.  Service is non-preemptive.
    """

    def __init__(self, sim: Simulator, name: str, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource {name!r} needs capacity >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.stats = ResourceStats()
        self._busy = 0
        self._queue: Deque[
            Tuple[float, Callable[[], None], int, float, Optional[str], str]
        ] = deque()
        #: Jobs currently in service: job id -> (start time, service time).
        self._in_service: Dict[int, Tuple[float, float]] = {}
        self._job_ids = itertools.count()
        # Pre-bound observability probe and queue-depth recorder (None
        # when nothing records them).  Observation only — no events.
        self._probe = sim.probe
        self._record_depth: Optional[Callable[[float, int], None]] = None
        if self._probe is not None:
            self._record_depth = self._probe.resource(name, capacity)

    # -- state ----------------------------------------------------------------

    @property
    def queued(self) -> int:
        """Jobs waiting for a server."""
        return len(self._queue)

    def in_flight_busy_ms(self) -> float:
        """Service time already elapsed on jobs still being served.

        Completed jobs credit :attr:`ResourceStats.busy_time`; this is the
        complement, so mid-run utilization reads do not under-report a
        server halfway through a long transfer.
        """
        now = self.sim.now
        return sum(
            min(now - start, service) for start, service in self._in_service.values()
        )

    def utilization(self, elapsed_ms: Optional[float] = None) -> float:
        """Mean fraction of servers busy over ``elapsed_ms`` (default: now),
        counting both completed and in-flight service time."""
        if elapsed_ms is None:
            elapsed_ms = self.sim.now
        if elapsed_ms <= 0:
            return 0.0
        busy = self.stats.busy_time + self.in_flight_busy_ms()
        return min(1.0, busy / (elapsed_ms * self.capacity))

    # -- job submission ----------------------------------------------------------

    def submit(
        self,
        service_time: float,
        done: Optional[Callable[[], None]] = None,
        nbytes: int = 0,
        query: Optional[str] = None,
        span_kind: str = "service",
    ) -> None:
        """Enqueue a job needing ``service_time`` ms of one server.

        ``nbytes`` is accounting only (for bandwidth reports); ``done`` is
        called at completion time.  ``query``/``span_kind`` tag the job for
        span collection (ignored when it is off): the in-service
        interval is recorded against the query under that attribution
        bucket, while time spent waiting in this FIFO stays uncovered and
        lands in the queueing bucket.
        """
        if service_time < 0:
            raise SimulationError(f"{self.name}: negative service time {service_time}")
        self._queue.append(
            (service_time, done or (lambda: None), nbytes, self.sim.now, query, span_kind)
        )
        if self._record_depth is not None:
            self._record_depth(self.sim.now, len(self._queue))
        self._dispatch()
        # Peak depth is measured *after* dispatch: a job that went straight
        # into a free server never waited, so an uncongested resource
        # reports peak_queue == 0 (it used to read 1 — the depth was
        # sampled before the dispatch pop).
        depth = len(self._queue)
        if depth > self.stats.peak_queue:
            self.stats.peak_queue = depth

    def _dispatch(self) -> None:
        while self._busy < self.capacity and self._queue:
            service_time, done, nbytes, enqueued_at, query, span_kind = (
                self._queue.popleft()
            )
            self._busy += 1
            wait = self.sim.now - enqueued_at
            self.stats.wait_time += wait
            job_id = next(self._job_ids)
            self._in_service[job_id] = (self.sim.now, service_time)
            if self._probe is not None:
                self._probe.service(
                    self.name, query, span_kind, self.sim.now, service_time,
                    wait, nbytes, len(self._queue),
                )

            def finish(st=service_time, cb=done, nb=nbytes, jid=job_id):
                self._busy -= 1
                del self._in_service[jid]
                self.stats.jobs_completed += 1
                self.stats.busy_time += st
                self.stats.bytes_served += nb
                cb()
                self._dispatch()

            self.sim.schedule(service_time, finish, label=f"{self.name}.finish")

    def __repr__(self) -> str:
        return (
            f"Resource({self.name!r}, {self._busy}/{self.capacity} busy, "
            f"{len(self._queue)} queued)"
        )
