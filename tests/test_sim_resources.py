"""FIFO server resources."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.resources import Resource


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
