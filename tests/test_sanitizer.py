"""The runtime simulation sanitizer: every violation class, injected.

Each test seeds exactly one invariant violation and asserts the sanitizer
converts it into a :class:`SanitizerError`; the closing tests prove the
sanitizer changes *nothing* about a clean run's results and costs nothing
when off.
"""

import json

import pytest

from repro import hw
from repro.check import is_active, sanitizing
from repro.check.sanitizer import Sanitizer
from repro.direct.cache import DiskCache, PageRef
from repro.direct.exec_model import ExecModel
from repro.direct.traffic import TrafficMeter
from repro.errors import SanitizerError, SimulationError
from repro.relational.page import Page
from repro.relational.schema import DataType, Schema
from repro.ring.network import Ring
from repro.sim.engine import Simulator
from repro.sim.resources import Resource

SCHEMA = Schema.build(("k", DataType.INT))


def sanitized_sim():
    return Simulator(sanitize=True)


# ---------------------------------------------------------------------- modes


def test_sanitizer_off_by_default():
    assert Simulator().sanitizer is None


def test_explicit_flag_enables():
    assert sanitized_sim().sanitizer is not None


def test_ambient_context_enables():
    assert not is_active()
    with sanitizing():
        assert is_active()
        assert Simulator().sanitizer is not None
    assert not is_active()
    assert Simulator().sanitizer is None


def test_finalize_without_sanitizer_is_a_noop():
    sim = Simulator()
    sim.run()
    sim.finalize_sanitizer()  # must not raise


# ---------------------------------------------------------------------- delays


def test_nan_delay_raises():
    sim = sanitized_sim()
    with pytest.raises(SanitizerError, match="NaN"):
        sim.schedule(float("nan"), lambda: None, label="x")


def test_infinite_delay_raises():
    sim = sanitized_sim()
    with pytest.raises(SanitizerError, match="infinite"):
        sim.schedule(float("inf"), lambda: None, label="x")


def test_negative_delay_raises_simulation_error_in_both_modes():
    # Delay validation runs before the sanitizer, so callers see the same
    # exception type whether or not sanitize mode is on.  (The sanitizer
    # used to win with SanitizerError, making error handling mode-
    # dependent.)  SanitizerError still covers NaN/inf, which the engine
    # itself does not validate.
    sim = sanitized_sim()
    with pytest.raises(SimulationError, match="into the past"):
        sim.schedule(-0.5, lambda: None, label="x")
    with pytest.raises(SimulationError, match="into the past"):
        Simulator().schedule(-0.5, lambda: None)


def test_breadcrumb_carries_recent_events():
    sim = sanitized_sim()
    sim.schedule(1.0, lambda: None, label="alpha")
    sim.run()
    with pytest.raises(SanitizerError, match="alpha"):
        sim.schedule(float("nan"), lambda: None, label="boom")


# ---------------------------------------------------------------------- tie audit


def test_unlabeled_tie_raises():
    sim = sanitized_sim()
    sim.schedule(5.0, lambda: None)
    with pytest.raises(SanitizerError, match="order hazard"):
        sim.schedule(5.0, lambda: None)


def test_labeled_tie_is_auditable_and_fine():
    sim = sanitized_sim()
    sim.schedule(5.0, lambda: None, label="a")
    sim.schedule(5.0, lambda: None, label="b")
    sim.schedule(5.0, lambda: None, label="c")
    sim.run()
    sim.finalize_sanitizer()


def test_unlabeled_events_without_ties_are_fine():
    sim = sanitized_sim()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    sim.finalize_sanitizer()


def test_fired_events_leave_the_tie_window():
    # An unlabeled event that already fired cannot form a hazard with a
    # later arrival at the same timestamp: by then the order is decided.
    sim = sanitized_sim()
    sim.schedule(5.0, lambda: None)
    sim.run()
    sim.schedule(0.0, lambda: None)  # lands at t=5.0 again — no pending tie
    sim.run()
    sim.finalize_sanitizer()


def test_cancelled_events_leave_the_tie_window():
    sim = sanitized_sim()
    event = sim.schedule(5.0, lambda: None)
    event.cancel()
    sim.run()
    sim.schedule(0.0, lambda: None)
    sim.run()
    sim.finalize_sanitizer()


# ---------------------------------------------------------------------- disk cache


def make_cache(sim, frames=4):
    ports = Resource(sim, "ports", capacity=2)
    disks = [Resource(sim, "d0")]
    return DiskCache(sim, TrafficMeter(), ExecModel(page_bytes=128), frames, ports, disks)


def make_ref(key, on_disk=True):
    page = Page(SCHEMA, 128)
    page.append((1,))
    return PageRef(key=key, nbytes=128, payload=page, on_disk=on_disk, disk_id=0, row_count=1)


def test_pinned_frame_leak_reported():
    sim = sanitized_sim()
    cache = make_cache(sim)
    cache.write_page(make_ref("q.n1:0", on_disk=False), lambda: None)
    sim.run()
    cache._pin("q.n1:0")  # injected leak: a pin with no matching unpin
    with pytest.raises(SanitizerError, match="leaked 1 pin"):
        sim.finalize_sanitizer()


def test_double_reserve_raises_immediately():
    sim = sanitized_sim()
    cache = make_cache(sim, frames=4)
    for _ in range(4):
        cache._reserve_slot()
    with pytest.raises(SanitizerError, match="double-reserve"):
        cache._reserve_slot()


def test_undelivered_inflight_read_reported():
    sim = sanitized_sim()
    cache = make_cache(sim)
    from repro.direct.cache import _SharedRead

    # Injected: a read registered but whose delivery never ran.
    cache._inflight_reads["ghost:0"] = _SharedRead(waiters=[lambda: None])
    with pytest.raises(SanitizerError, match="ghost:0"):
        sim.finalize_sanitizer()


def test_clean_cache_workload_passes_finish_checks():
    sim = sanitized_sim()
    cache = make_cache(sim)
    for i in range(6):  # forces evictions through a full cache
        cache.read_shared(make_ref(f"base:r:{i}"), lambda: None)
        sim.run()
    cache.write_page(make_ref("q.n1:0", on_disk=False), lambda: None)
    sim.run()
    sim.finalize_sanitizer()


# ---------------------------------------------------------------------- ring


def test_ring_packet_conservation_violation_reported():
    sim = sanitized_sim()
    ring = Ring(sim, hw.OUTER_RING_TTL, "outer")
    ring.send(100, lambda: None)
    sim.run()
    ring.packets_injected += 1  # injected imbalance
    with pytest.raises(SanitizerError, match="packet conservation"):
        sim.finalize_sanitizer()


def test_ring_conserves_packets_on_clean_run():
    sim = sanitized_sim()
    ring = Ring(sim, hw.OUTER_RING_TTL, "outer")
    for i in range(5):
        ring.send(100 * (i + 1), lambda: None)
    ring.broadcast(500, lambda: None)
    sim.run()
    assert ring.packets_injected == ring.packets_removed == 6
    sim.finalize_sanitizer()


# ---------------------------------------------------------------------- identity


def test_sanitized_run_matches_unsanitized_results():
    from repro.experiments import figure_3_1

    plain = figure_3_1.run(processors=(2,), scale=0.05, selectivity=0.3)
    with sanitizing():
        checked = figure_3_1.run(processors=(2,), scale=0.05, selectivity=0.3)
    assert checked.rows == plain.rows


def test_sanitized_serving_run_is_byte_identical_to_unsanitized():
    from repro.serve import ServeConfig
    from repro.serve.service import serve

    config = ServeConfig(
        machine="ring",
        rate_qps=20.0,
        duration_ms=400.0,
        scale=0.02,
        b_domain=25,
        processors=2,
    )
    plain = json.dumps(serve(config), sort_keys=True)
    with sanitizing():
        sanitized = json.dumps(serve(config), sort_keys=True)
    assert sanitized == plain


def test_sanitizer_counts_audited_events():
    sim = sanitized_sim()
    for i in range(5):
        sim.schedule(float(i), lambda: None, label=f"e{i}")
    sim.run()
    assert sim.sanitizer.events_audited == 5
    sim.finalize_sanitizer()
    assert sim.sanitizer.finished


def test_finish_check_registration_is_direct():
    sim = sanitized_sim()
    sanitizer = sim.sanitizer
    assert isinstance(sanitizer, Sanitizer)
    sanitizer.register_finish_check("custom", lambda: ["it broke"])
    with pytest.raises(SanitizerError, match="custom: it broke"):
        sim.finalize_sanitizer()
