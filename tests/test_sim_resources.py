"""FIFO server resources."""

import dataclasses
import itertools
import random
from collections import deque

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.resources import Resource, ResourceStats


def test_single_server_serializes():
    sim = Simulator()
    res = Resource(sim, "r", capacity=1)
    done = []
    res.submit(10.0, lambda: done.append(sim.now))
    res.submit(10.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [10.0, 20.0]


def test_two_servers_parallelize():
    sim = Simulator()
    res = Resource(sim, "r", capacity=2)
    done = []
    res.submit(10.0, lambda: done.append(sim.now))
    res.submit(10.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [10.0, 10.0]


def test_fifo_order():
    sim = Simulator()
    res = Resource(sim, "r", capacity=1)
    order = []
    for tag in "abc":
        res.submit(1.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == ["a", "b", "c"]


def test_zero_capacity_rejected():
    with pytest.raises(SimulationError):
        Resource(Simulator(), "r", capacity=0)


def test_negative_service_rejected():
    res = Resource(Simulator(), "r")
    with pytest.raises(SimulationError):
        res.submit(-1.0)


def test_busy_and_queued_counters():
    sim = Simulator()
    res = Resource(sim, "r", capacity=1)
    res.submit(5.0)
    res.submit(5.0)
    assert res.queued == 1
    assert "1/1 busy, 1 queued" in repr(res)
    sim.run()
    assert res.queued == 0
    assert "0/1 busy, 0 queued" in repr(res)


def test_stats_jobs_and_busy_time():
    sim = Simulator()
    res = Resource(sim, "r")
    res.submit(3.0, nbytes=100)
    res.submit(4.0, nbytes=200)
    sim.run()
    assert res.stats.jobs_completed == 2
    assert res.stats.busy_time == 7.0
    assert res.stats.bytes_served == 300


def test_wait_time_accumulates():
    sim = Simulator()
    res = Resource(sim, "r")
    res.submit(10.0)
    res.submit(10.0)  # waits 10
    sim.run()
    assert res.stats.wait_time == 10.0
    assert res.stats.mean_wait() == 5.0


def test_utilization():
    sim = Simulator()
    res = Resource(sim, "r", capacity=2)
    res.submit(10.0)
    sim.run()
    assert res.stats.utilization(10.0, 2) == 0.5


def test_utilization_mid_service_counts_in_flight_time():
    # Bugfix: busy_time is only credited at completion, so a mid-run
    # utilization read used to see an idle server halfway through a job.
    sim = Simulator()
    res = Resource(sim, "r", capacity=1)
    res.submit(10.0)
    sim.run(until=5.0)
    assert res.in_flight_busy_ms() == 5.0
    # Busy the whole 5 ms so far; over a 10 ms window, half busy.
    assert res.utilization() == pytest.approx(1.0)
    assert res.utilization(10.0) == pytest.approx(0.5)
    sim.run()
    assert res.in_flight_busy_ms() == 0.0
    assert res.utilization(10.0) == pytest.approx(1.0)


def test_utilization_mid_service_multiple_servers():
    sim = Simulator()
    res = Resource(sim, "r", capacity=2)
    res.submit(10.0)
    res.submit(4.0)
    sim.run(until=6.0)
    # One job still in flight (6 ms elapsed), one completed (4 ms).
    assert res.in_flight_busy_ms() == pytest.approx(6.0)
    assert res.utilization() == pytest.approx((4.0 + 6.0) / (6.0 * 2))


def test_utilization_at_time_zero_is_zero():
    sim = Simulator()
    res = Resource(sim, "r")
    assert res.utilization() == 0.0


def test_peak_queue():
    sim = Simulator()
    res = Resource(sim, "r")
    for _ in range(4):
        res.submit(1.0)
    assert res.stats.peak_queue >= 3


def test_peak_queue_uncongested_is_zero():
    # Bugfix: the queue depth used to be sampled before dispatch, so a job
    # that went straight into a free server still counted as "queued" and
    # an uncongested resource reported peak_queue == 1.
    sim = Simulator()
    res = Resource(sim, "r")
    res.submit(1.0)
    sim.run()
    res.submit(1.0)
    sim.run()
    assert res.stats.peak_queue == 0


def test_peak_queue_counts_only_waiters():
    sim = Simulator()
    res = Resource(sim, "r", capacity=2)
    res.submit(5.0)
    res.submit(5.0)  # both enter free servers immediately
    assert res.stats.peak_queue == 0
    res.submit(5.0)  # this one actually waits
    assert res.stats.peak_queue == 1
    sim.run()
    assert res.stats.peak_queue == 1


def test_submission_inside_completion():
    sim = Simulator()
    res = Resource(sim, "r")
    done = []

    def chain():
        done.append(sim.now)
        if len(done) < 3:
            res.submit(2.0, chain)

    res.submit(2.0, chain)
    sim.run()
    assert done == [2.0, 4.0, 6.0]


def test_zero_service_time_completes():
    sim = Simulator()
    res = Resource(sim, "r")
    done = []
    res.submit(0.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [0.0]


# ------------------------------------------------- differential: dispatch loop


class _DispatchLoopResource:
    """The FIFO resource as a queue plus a dispatch loop (the reference).

    Every job waits in the queue, a dispatch pass starts queued jobs while
    servers are free, and each started job schedules a per-job ``finish``
    closure that credits the job, runs ``done`` and dispatches again.
    """

    def __init__(self, sim, name, capacity=1):
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.stats = ResourceStats()
        self._busy = 0
        self._queue = deque()
        self._in_service = {}
        self._job_ids = itertools.count()

    @property
    def queued(self):
        return len(self._queue)

    def in_flight_busy_ms(self):
        now = self.sim.now
        return sum(
            min(now - start, service) for start, service in self._in_service.values()
        )

    def utilization(self, elapsed_ms=None):
        if elapsed_ms is None:
            elapsed_ms = self.sim.now
        if elapsed_ms <= 0:
            return 0.0
        busy = self.stats.busy_time + self.in_flight_busy_ms()
        return min(1.0, busy / (elapsed_ms * self.capacity))

    def submit(self, service_time, done=None, nbytes=0):
        self._queue.append((service_time, done or (lambda: None), nbytes, self.sim.now))
        self._dispatch()
        depth = len(self._queue)
        if depth > self.stats.peak_queue:
            self.stats.peak_queue = depth

    def _dispatch(self):
        while self._busy < self.capacity and self._queue:
            service_time, done, nbytes, enqueued_at = self._queue.popleft()
            self._busy += 1
            self.stats.wait_time += self.sim.now - enqueued_at
            job_id = next(self._job_ids)
            self._in_service[job_id] = (self.sim.now, service_time)

            def finish(st=service_time, cb=done, nb=nbytes, jid=job_id):
                self._busy -= 1
                del self._in_service[jid]
                self.stats.jobs_completed += 1
                self.stats.busy_time += st
                self.stats.bytes_served += nb
                cb()
                self._dispatch()

            self.sim.schedule(service_time, finish, label=f"{self.name}.finish")


def _job_stream(resource_class, seed):
    """Drive one resource with a seeded job stream; return everything seen.

    Jobs arrive from scheduled events (some at a completion's timestamp)
    and from inside ``done`` callbacks; service times include zeros and
    ties.  The log holds every completion ``(now, job)`` and, at random
    instants inside callbacks and at horizon stops, the resource's
    ``utilization()``, ``queued``, ``in_flight_busy_ms()`` and stats.
    """
    rng = random.Random(seed)
    sim = Simulator()
    res = resource_class(sim, "r", capacity=rng.randint(1, 4))
    log = []
    jobs = itertools.count()

    def observe(where):
        log.append((where, sim.now, res.utilization(), res.queued,
                    res.in_flight_busy_ms(), dataclasses.astuple(res.stats)))

    def submit():
        job = next(jobs)
        if job >= 300:
            return
        service = rng.choice([0.0, 0.0, 0.1, 0.7, 0.7, 1.0, 1.3, 3.25])
        res.submit(service, lambda: done(job), nbytes=rng.randrange(100))

    def done(job):
        log.append(("done", sim.now, job))
        for _ in range(rng.choice([0, 0, 1, 1, 2])):
            submit()
        if rng.random() < 0.3:
            sim.schedule(rng.choice([0.0, 0.5, 1.0]), arrive)
        if rng.random() < 0.3:
            observe("done")

    def arrive():
        for _ in range(rng.choice([1, 1, 2, 3])):
            submit()
        if rng.random() < 0.3:
            observe("arrive")

    for _ in range(12):
        sim.schedule(rng.choice([0.0, 0.5, 1.0, 1.0, 2.0, 3.0]), arrive)
    horizon = 0.0
    while sim.pending:
        horizon += rng.choice([0.25, 0.5, 1.0, 2.0])
        sim.run(until=horizon)
        observe("horizon")
    sim.run()
    observe("end")
    return log


@pytest.mark.parametrize("seed", range(12))
def test_matches_the_dispatch_loop_reference_bit_for_bit(seed):
    reference = _job_stream(_DispatchLoopResource, seed)
    assert repr(_job_stream(Resource, seed)) == repr(reference)
    # The stream really queues jobs and finishes some at equal times.
    completions = [entry[1] for entry in reference if entry[0] == "done"]
    assert len(set(completions)) < len(completions)
    assert max(entry[3] for entry in reference if entry[0] != "done") > 0
