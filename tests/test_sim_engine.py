"""The discrete-event engine."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.resources import Resource


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_single_event_fires_at_time():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.schedule(1.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == ["a", "b", "c"]


def test_zero_delay_allowed():
    sim = Simulator()
    fired = []
    sim.schedule(0.0, lambda: fired.append(1))
    sim.run()
    assert fired == [1]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_events_scheduled_during_run():
    sim = Simulator()
    trace = []

    def first():
        trace.append(sim.now)
        sim.schedule(2.0, lambda: trace.append(sim.now))

    sim.schedule(1.0, first)
    sim.run()
    assert trace == [1.0, 3.0]


def test_cancelled_events_skipped():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(1))
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_counts_not_processed():
    sim = Simulator()
    sim.schedule(1.0, lambda: None).cancel()
    sim.run()
    assert sim.events_processed == 0


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append(1))
    end = sim.run(until=5.0)
    assert end == 5.0
    assert fired == []
    sim.run()
    assert fired == [1]


def test_run_until_advances_clock_when_heap_drains():
    # Bugfix: the clock used to stall at the last event when the heap
    # drained before ``until``, skewing elapsed-time denominators.
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    assert sim.run(until=10.0) == 10.0
    assert sim.now == 10.0


def test_run_until_on_empty_heap_returns_until():
    sim = Simulator()
    assert sim.run(until=7.5) == 7.5
    assert sim.now == 7.5


def test_run_until_never_rewinds_clock():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert sim.now == 5.0
    assert sim.run(until=3.0) == 5.0
    assert sim.now == 5.0


def test_schedule_at_absolute_time():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    fired = []
    sim.schedule_at(7.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [7.0]


def test_max_events_raises_on_livelock():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_step_returns_false_when_empty():
    assert Simulator().step() is False


def test_step_fires_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    assert sim.step() is True
    assert fired == [1]


def test_pending_excludes_cancelled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None).cancel()
    assert sim.pending == 1


def test_not_reentrant():
    sim = Simulator()

    def nested():
        sim.run()

    sim.schedule(1.0, nested)
    with pytest.raises(SimulationError):
        sim.run()


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_exception_in_callback_propagates():
    sim = Simulator()

    def boom():
        raise ValueError("boom")

    sim.schedule(1.0, boom)
    with pytest.raises(ValueError):
        sim.run()


# ------------------------------------------------------- batched dispatch


def test_batched_ties_preserve_order_across_many_events():
    sim = Simulator()
    order = []
    for i, t in enumerate((2.0, 1.0, 2.0, 1.0, 2.0)):
        sim.schedule(t, lambda i=i: order.append(i))
    sim.run()
    # Time order first, insertion order within the t=1.0 / t=2.0 batches.
    assert order == [1, 3, 0, 2, 4]


def test_same_time_event_scheduled_mid_batch_fires_after_batch():
    # A callback scheduling at delay 0 opens a fresh bucket at the same
    # timestamp; the new event must fire after the rest of the current
    # batch, exactly as (time, sequence) order dictates.
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0.0, lambda: order.append("late"))

    sim.schedule(1.0, first)
    sim.schedule(1.0, lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second", "late"]


def test_max_events_stops_mid_batch_and_resumes_in_order():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.schedule(1.0, lambda i=i: order.append(i))
    with pytest.raises(SimulationError):
        sim.run(max_events=3)
    assert order == [0, 1, 2]
    sim.run()
    assert order == [0, 1, 2, 3, 4]
    assert sim.events_processed == 5


def test_step_resumes_batch_left_by_run():
    sim = Simulator()
    order = []
    for i in range(3):
        sim.schedule(1.0, lambda i=i: order.append(i))
    with pytest.raises(SimulationError):
        sim.run(max_events=1)
    assert sim.step() is True
    assert sim.step() is True
    assert sim.step() is False
    assert order == [0, 1, 2]


# ------------------------------------------------------- until + cancellation


def test_cancelled_events_beyond_until_are_not_drained():
    # run(until=...) used to eagerly pop batches past the horizon just to
    # drop their cancelled events, leaving the event list in a different
    # state than an equivalent step() sequence.
    sim = Simulator()
    fired = []
    doomed = sim.schedule(10.0, lambda: fired.append("doomed"))
    sim.schedule(10.0, lambda: fired.append("survivor"))
    doomed.cancel()
    assert sim.run(until=5.0) == 5.0
    assert sim.now == 5.0
    assert fired == []
    assert sim.pending == 1
    sim.run()
    assert fired == ["survivor"]
    assert sim.now == 10.0


def test_all_cancelled_batch_does_not_advance_clock():
    sim = Simulator()
    for _ in range(3):
        sim.schedule(10.0, lambda: None).cancel()
    sim.run(until=5.0)
    assert sim.now == 5.0
    sim.run()
    # Only fires advance the clock; draining cancelled events must not.
    assert sim.now == 5.0
    assert sim.events_processed == 0


def test_pending_is_zero_after_mass_cancel():
    sim = Simulator()
    events = [sim.schedule(float(i % 7), lambda: None) for i in range(100)]
    assert sim.pending == 100
    for event in events:
        event.cancel()
    assert sim.pending == 0
    # Double-cancel must not drive the counter negative.
    events[0].cancel()
    assert sim.pending == 0
    sim.run()
    assert sim.events_processed == 0


def test_pending_tracks_fires():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.step()
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0


# ------------------------------------------------------- reentrancy


def test_step_inside_callback_raises():
    sim = Simulator()

    def nested():
        sim.step()

    sim.schedule(1.0, nested)
    sim.schedule(2.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.run()


def test_run_inside_step_raises():
    sim = Simulator()

    def nested():
        sim.run()

    sim.schedule(1.0, nested)
    with pytest.raises(SimulationError):
        sim.step()


# ------------------------------------------------------- fire-order property


def _random_workload(seed: int):
    """Drive a simulator through a seeded workload.

    Cancellable events (``schedule``) interleave with bare entries (the
    completions of two ``Resource``s), and the run is cut by horizon
    stops, ``max_events`` stops and single steps.  Returns ``(fired,
    expected, pushed, bare, stops, sim)``: the ``(time, order)`` pairs in
    the order the simulator fired them, the reference order — every
    pushed entry not cancelled before it fired, sorted by ``(time,
    order)`` where ``order`` counts pushes of either kind — the number of
    pushes, how many of them were bare, and how many ``max_events``
    stops raised.
    """
    rng = random.Random(seed)
    sim = Simulator()
    scheduled = []  # order -> [time, event or None if bare, cancelled-before-firing]
    fired = []

    def record(when, order):
        assert sim.now == when
        fired.append((when, order))

    # Observe the engine's bare pushes: each resource binds ``_push`` at
    # construction, so this wrapper sees every completion it schedules.
    push = sim._push

    def recording_push(delay, action, label):
        order = len(scheduled)
        when = sim.now + delay
        scheduled.append([when, None, False])

        def fire():
            record(when, order)
            action()

        push(delay, fire, label)

    sim._push = recording_push
    resources = [Resource(sim, "r1", capacity=1), Resource(sim, "r2", capacity=2)]

    def schedule(delay):
        order = len(scheduled)
        when = sim.now + delay
        event = sim.schedule(delay, lambda: react(when, order), label=f"e{order}")
        scheduled.append([when, event, False])

    def submit():
        rng.choice(resources).submit(rng.choice([0.0, 0.5, 1.0, 1.0, 2.5]), job_done)

    def job_done():
        if rng.random() < 0.3:
            submit()
        if rng.random() < 0.3:
            schedule(rng.choice([0.0, 0.5, 1.0]))

    def react(when, order):
        record(when, order)
        # Mid-run scheduling with quantized delays (timestamp ties) and
        # same-time (delay 0) events and jobs.
        if rng.random() < 0.45:
            schedule(rng.choice([0.0, 0.5, 1.0, 1.0, 2.5]))
        if rng.random() < 0.35:
            submit()
        if rng.random() < 0.2:
            entry = rng.choice([e for e in scheduled if e[1] is not None])
            if not entry[1].fired:
                entry[2] = True
            entry[1].cancel()

    for _ in range(60):
        schedule(rng.choice([0.0, 0.25, 1.0, 1.0, 3.0, 7.5]))
    for _ in range(20):
        submit()
    # Horizon stops land on, between and past event timestamps; single
    # steps and max_events stops in between resume mid-bucket.
    horizon = 0.0
    stops = 0
    for _ in range(10_000):
        if not sim.pending:
            break
        horizon += rng.choice([0.0, 0.25, 0.5, 1.0, 2.0])
        if rng.random() < 0.3:
            try:
                sim.run(until=horizon, max_events=rng.randrange(4))
            except SimulationError:
                stops += 1
        else:
            assert sim.run(until=horizon) == horizon
            assert all(when <= horizon for when, _ in fired)
        for _ in range(rng.randrange(3)):
            sim.step()
        horizon = sim.now
    assert sim.pending == 0
    assert not sim.step()
    expected = sorted(
        (when, order)
        for order, (when, _event, cancelled) in enumerate(scheduled)
        if not cancelled
    )
    bare = sum(1 for _, event, _ in scheduled if event is None)
    return fired, expected, len(scheduled), bare, stops, sim


@pytest.mark.parametrize("seed", [1, 2, 3, 17, 1979])
def test_fire_order_matches_sorted_time_sequence_reference(seed):
    fired, expected, pushed, bare, stops, sim = _random_workload(seed)
    assert fired == expected
    assert sim.events_processed == len(fired)
    assert sim.pending == 0
    # The workload really exercises ties, cancellations, bare entries
    # and max_events stops.
    times = [when for when, _ in fired]
    assert len(set(times)) < len(times)
    assert len(expected) < pushed
    assert 0 < bare < pushed
    assert stops > 0


def test_until_horizon_resumes_in_order():
    # A horizon stop on a tied timestamp fires the whole tie, then resumes.
    sim = Simulator()
    trace = []
    for i, t in enumerate((1.0, 4.0, 4.0, 9.0)):
        sim.schedule(t, lambda i=i: trace.append((sim.now, i)))
    assert sim.run(until=4.0) == 4.0
    assert trace == [(1.0, 0), (4.0, 1), (4.0, 2)]
    sim.run()
    assert trace[-1] == (9.0, 3)
