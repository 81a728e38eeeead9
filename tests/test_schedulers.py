"""The tie-batched heap and the fire order it gives the simulator.

The engine's contract is a total ``(time, sequence)`` order: events fire
in timestamp order, and same-time events fire in the order they were
scheduled.  The unit tests pin the heap's batch structure; the property
test drives a ``Simulator`` through randomized workloads (ties, zero
delays, cancellations, mid-run scheduling, horizon stops and single
steps) and checks its fire order against a plain ``sorted`` reference.
"""

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.schedulers import TieBatchedHeap


# ------------------------------------------------------------ structure units


class _Tag:
    """Stand-in event: the heap stores, never inspects."""

    def __init__(self, n):
        self.n = n


def test_batches_come_out_in_time_order_with_fifo_ties():
    fel = TieBatchedHeap()
    fel.push(2.0, _Tag("b1"))
    fel.push(1.0, _Tag("a1"))
    fel.push(2.0, _Tag("b2"))
    assert fel.peek_time() == 1.0
    when, batch = fel.pop_batch()
    assert when == 1.0 and [e.n for e in batch] == ["a1"]
    when, batch = fel.pop_batch()
    assert when == 2.0 and [e.n for e in batch] == ["b1", "b2"]
    assert fel.peek_time() is None


def test_len_counts_distinct_timestamps():
    fel = TieBatchedHeap()
    for when in (1.0, 1.0, 2.0, 3.0, 3.0, 3.0):
        fel.push(when, _Tag(when))
    assert len(fel) == 3


# ------------------------------------------------------------ property test


def _random_workload(seed: int):
    """Drive a simulator through a seeded workload.

    Returns ``(fired, expected, scheduled, sim)``: the ``(time, order)``
    pairs in the order the simulator fired them, the reference order —
    every scheduled event not cancelled before it fired, sorted by
    ``(time, order)`` where ``order`` counts ``schedule`` calls — and the
    number of ``schedule`` calls.
    """
    rng = random.Random(seed)
    sim = Simulator()
    scheduled = []  # order -> [time, event, cancelled-before-firing]
    fired = []

    def schedule(delay):
        order = len(scheduled)
        when = sim.now + delay
        event = sim.schedule(delay, lambda: fire(when, order), label=f"e{order}")
        scheduled.append([when, event, False])

    def fire(when, order):
        assert sim.now == when
        fired.append((when, order))
        # Mid-run scheduling with quantized delays (timestamp ties) and
        # same-time (delay 0) events.
        if rng.random() < 0.45:
            schedule(rng.choice([0.0, 0.5, 1.0, 1.0, 2.5]))
        if rng.random() < 0.2:
            entry = scheduled[rng.randrange(len(scheduled))]
            if not entry[1].fired:
                entry[2] = True
            entry[1].cancel()

    for _ in range(60):
        schedule(rng.choice([0.0, 0.25, 1.0, 1.0, 3.0, 7.5]))
    # Horizon stops land on, between and past event timestamps; single
    # steps in between resume mid-batch.
    horizon = 0.0
    while sim.pending > 0:
        horizon += rng.choice([0.0, 0.25, 0.5, 1.0, 2.0])
        assert sim.run(until=horizon) == horizon
        assert all(when <= horizon for when, _ in fired)
        for _ in range(rng.randrange(3)):
            sim.step()
        horizon = sim.now
    assert not sim.step()
    expected = sorted(
        (when, order)
        for order, (when, _event, cancelled) in enumerate(scheduled)
        if not cancelled
    )
    return fired, expected, len(scheduled), sim


@pytest.mark.parametrize("seed", [1, 2, 3, 17, 1979])
def test_fire_order_matches_sorted_time_sequence_reference(seed):
    fired, expected, scheduled, sim = _random_workload(seed)
    assert fired == expected
    assert sim.events_processed == len(fired)
    assert sim.pending == 0
    # The workload really exercises ties and cancellations.
    times = [when for when, _ in fired]
    assert len(set(times)) < len(times)
    assert len(expected) < scheduled


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
