"""FIFO server resources over the event loop.

A :class:`Resource` models a device with ``capacity`` identical servers
(disk arms, cache ports, a ring's insertion register, a pool of IPs).
Callers submit *jobs* with a known service time; the resource runs up to
``capacity`` jobs at once and queues the rest in FIFO order.  Every job
carries its service time — there are no open-ended holds — so a job's
end is fixed the moment it starts.  Utilization and queueing statistics
are tracked for the experiment reports.

Hot-path notes: a job starts inline in :meth:`Resource.submit` when a
server is free and nobody waits; otherwise it waits in the FIFO and the
completion that frees a server starts it.  A waiting job's completion is
never scheduled at submit time: that would number it too early and
reorder same-time ties.  A started job joins an in-service heap keyed by
``(end, start order)`` and pushes one bare engine entry (no ``Event``,
no closure) for :meth:`Resource._finish`, which pops that heap's head.
The simulator's observability probe is pre-bound at construction, so
disabled observability costs one ``is not None`` check per job.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter
from typing import Callable, Deque, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Simulator


#: A waiting job: (service time, done, nbytes, enqueued at, query, span kind).
_Job = Tuple[float, Optional[Callable[[], None]], int, float, Optional[str], str]
#: A job in service: (end, start order, start, service time, done, nbytes).
_Serving = Tuple[float, int, float, float, Optional[Callable[[], None]], int]


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
        self._queue: Deque[_Job] = deque()
        #: Jobs in service, a heap on (end, start order).
        self._serving: List[_Serving] = []
        #: Jobs started so far: the next job's start order.
        self._started = 0
        self._push = sim._push
        self._finish_label = f"{name}.finish"
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
        server halfway through a long transfer.  Summed in start order.
        """
        now = self.sim.now
        return sum(
            min(now - job[2], job[3]) for job in sorted(self._serving, key=itemgetter(1))
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

    # -- jobs -------------------------------------------------------------------

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
        now = self.sim.now
        queue = self._queue
        if not queue and self._busy < self.capacity:
            # A free server and nobody ahead: the job starts now and never
            # waited (same steps as ``_start``, with a zero wait).
            self._busy += 1
            seq = self._started
            self._started = seq + 1
            heappush(self._serving, (now + service_time, seq, now, service_time, done, nbytes))
            if self._probe is not None:
                if self._record_depth is not None:
                    self._record_depth(now, 1)
                self._probe.service(
                    self.name, query, span_kind, now, service_time, 0.0, nbytes, 0
                )
            self._push(service_time, self._finish, self._finish_label)
            return
        queue.append((service_time, done, nbytes, now, query, span_kind))
        if self._record_depth is not None:
            self._record_depth(now, len(queue))
        # A server is free with jobs waiting only inside a completion's
        # ``done`` callback: the head of the queue takes it now, as the
        # completion itself would after the callback returns.
        while queue and self._busy < self.capacity:
            self._start(queue.popleft())
        # Peak depth counts only jobs that really wait: an uncongested
        # resource reports peak_queue == 0.
        depth = len(queue)
        if depth > self.stats.peak_queue:
            self.stats.peak_queue = depth

    def _start(self, job: _Job) -> None:
        """Put a job that waited in the FIFO on a free server."""
        service_time, done, nbytes, enqueued_at, query, span_kind = job
        now = self.sim.now
        self._busy += 1
        wait = now - enqueued_at
        self.stats.wait_time += wait
        seq = self._started
        self._started = seq + 1
        heappush(self._serving, (now + service_time, seq, now, service_time, done, nbytes))
        if self._probe is not None:
            self._probe.service(
                self.name, query, span_kind, now, service_time, wait, nbytes, len(self._queue)
            )
        self._push(service_time, self._finish, self._finish_label)

    def _finish(self) -> None:
        """One job's service completes: credit it, run ``done``, refill."""
        _, _, _, service_time, done, nbytes = heappop(self._serving)
        self._busy -= 1
        stats = self.stats
        stats.jobs_completed += 1
        stats.busy_time += service_time
        stats.bytes_served += nbytes
        if done is not None:
            done()
        queue = self._queue
        while queue and self._busy < self.capacity:
            self._start(queue.popleft())

    def __repr__(self) -> str:
        return (
            f"Resource({self.name!r}, {self._busy}/{self.capacity} busy, "
            f"{len(self._queue)} queued)"
        )
