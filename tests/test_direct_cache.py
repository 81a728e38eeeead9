"""The shared disk cache: hits, misses, spills, broadcast sharing."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.direct import traffic as tl
from repro.direct.cache import DiskCache, PageRef
from repro.direct.exec_model import ExecModel
from repro.direct.traffic import TrafficMeter
from repro.errors import MachineError
from repro.relational.page import Page
from repro.relational.schema import DataType, Schema
from repro.sim.engine import Simulator
from repro.sim.resources import Resource

SCHEMA = Schema.build(("k", DataType.INT))


def make_cache(frames=4, disks=1):
    sim = Simulator()
    meter = TrafficMeter()
    model = ExecModel(page_bytes=128)
    ports = Resource(sim, "ports", capacity=2)
    disk_resources = [Resource(sim, f"d{i}") for i in range(disks)]
    cache = DiskCache(sim, meter, model, frames, ports, disk_resources)
    return sim, meter, cache


def make_ref(key, on_disk=True, nbytes=128):
    page = Page(SCHEMA, 128)
    page.append((1,))
    return PageRef(key=key, nbytes=nbytes, payload=page, on_disk=on_disk, disk_id=0, row_count=1)


def reference_victim(cache):
    """The eviction rule by full scan: the unpinned frame of least
    (protected, last_use)."""
    best = None
    for key, frame in cache._frames.items():
        if frame.pins == 0 and (
            best is None
            or (frame.protected, frame.last_use)
            < (cache._frames[best].protected, cache._frames[best].last_use)
        ):
            best = key
    return best


def checked_victims(cache):
    """Make every victim pick assert agreement with the reference scan."""
    picks = []
    ordered = cache._pick_victim

    def pick():
        expected = reference_victim(cache)
        victim = ordered()
        assert victim == expected
        picks.append(victim)
        return victim

    cache._pick_victim = pick
    return picks


def test_miss_reads_disk_then_delivers():
    sim, meter, cache = make_cache()
    ref = make_ref("base:r:0")
    done = []
    cache.read_shared(ref, lambda: done.append(sim.now))
    sim.run()
    assert done and done[0] > 0
    assert meter.bytes_at(tl.DISK_TO_CACHE) == 128
    assert meter.bytes_at(tl.CACHE_TO_PROC) > 0


def test_hit_skips_disk():
    sim, meter, cache = make_cache()
    ref = make_ref("base:r:0")
    cache.read_shared(ref, lambda: None)
    sim.run()
    before = meter.bytes_at(tl.DISK_TO_CACHE)
    cache.read_shared(ref, lambda: None)
    sim.run()
    assert meter.bytes_at(tl.DISK_TO_CACHE) == before


def test_concurrent_readers_share_one_transfer():
    sim, meter, cache = make_cache()
    ref = make_ref("base:r:0")
    done = []
    cache.read_shared(ref, lambda: done.append("a"))
    cache.read_shared(ref, lambda: done.append("b"))
    sim.run()
    assert sorted(done) == ["a", "b"]
    assert meter.bytes_at(tl.DISK_TO_CACHE) == 128
    assert meter.bytes_at(tl.CACHE_TO_PROC) == ExecModel(page_bytes=128).packet_bytes(128)


def test_write_page_counts_proc_to_cache():
    sim, meter, cache = make_cache()
    ref = make_ref("q.n1:0", on_disk=False)
    done = []
    cache.write_page(ref, lambda: done.append(1))
    sim.run()
    assert done == [1]
    assert meter.bytes_at(tl.PROC_TO_CACHE) > 0
    assert cache.is_resident(ref)


def test_read_of_written_intermediate():
    sim, meter, cache = make_cache()
    ref = make_ref("q.n1:0", on_disk=False)
    cache.write_page(ref, lambda: None)
    sim.run()
    done = []
    cache.read_shared(ref, lambda: done.append(1))
    sim.run()
    assert done == [1]
    assert meter.bytes_at(tl.DISK_TO_CACHE) == 0


def test_discarded_intermediate_read_is_an_error():
    sim, meter, cache = make_cache()
    ref = make_ref("q.n1:0", on_disk=False)
    cache.write_page(ref, lambda: None)
    sim.run()
    cache.discard(ref)
    with pytest.raises(MachineError):
        cache.read_shared(ref, lambda: None)
        sim.run()


def test_dirty_eviction_spills_to_disk():
    sim, meter, cache = make_cache(frames=4)
    for i in range(4):
        cache.write_page(make_ref(f"q.n1:{i}", on_disk=False), lambda: None)
    sim.run()
    # A fifth page forces a dirty eviction.
    cache.write_page(make_ref("q.n1:4", on_disk=False), lambda: None)
    sim.run()
    assert meter.bytes_at(tl.CACHE_TO_DISK) == 128


def test_spilled_page_becomes_on_disk():
    sim, meter, cache = make_cache(frames=4)
    refs = [make_ref(f"q.n1:{i}", on_disk=False) for i in range(5)]
    for ref in refs:
        cache.write_page(ref, lambda: None)
        sim.run()
    assert any(r.on_disk for r in refs[:1])


def test_clean_eviction_no_disk_write():
    sim, meter, cache = make_cache(frames=4)
    for i in range(6):
        cache.read_shared(make_ref(f"base:r:{i}"), lambda: None)
        sim.run()
    assert meter.bytes_at(tl.CACHE_TO_DISK) == 0


def test_protected_frames_evicted_last():
    sim, meter, cache = make_cache(frames=4)
    protected = make_ref("base:r:0")
    cache.read_shared(protected, lambda: None)
    sim.run()
    cache.protect(protected)
    for i in range(1, 6):
        cache.read_shared(make_ref(f"base:r:{i}"), lambda: None)
        sim.run()
    assert cache.is_resident(protected)


def test_unprotect_allows_eviction():
    sim, meter, cache = make_cache(frames=4)
    ref = make_ref("base:r:0")
    cache.read_shared(ref, lambda: None)
    sim.run()
    cache.protect(ref)
    cache.unprotect(ref)
    for i in range(1, 8):
        cache.read_shared(make_ref(f"base:r:{i}"), lambda: None)
        sim.run()
    assert not cache.is_resident(ref)


def test_has_inflight_window():
    sim, meter, cache = make_cache()
    ref = make_ref("base:r:0")
    cache.read_shared(ref, lambda: None)
    assert cache.has_inflight(ref)
    sim.run()
    assert not cache.has_inflight(ref)


def test_sequential_read_faster_than_random():
    model = ExecModel(page_bytes=128)
    sim, meter, cache = make_cache()
    t_done = []
    cache.read_shared(make_ref("base:r:0"), lambda: t_done.append(sim.now))
    sim.run()
    first = t_done[0]
    cache.read_shared(make_ref("base:r:1"), lambda: t_done.append(sim.now))
    sim.run()
    second = t_done[1] - first
    assert second < first  # follow-on read skipped the seek


def test_read_during_spill_aborts_eviction():
    # Bugfix: a dirty victim's write-back takes disk time, and a reader
    # that hits the still-resident frame mid-spill pins it.  Eviction used
    # to delete the frame anyway when the spill completed, yanking it out
    # from under the pinned reader; now the eviction aborts and retries
    # against a different victim.
    sim, meter, cache = make_cache(frames=4)
    picks = checked_victims(cache)
    victim = make_ref("q.n1:0", on_disk=False)
    cache.write_page(victim, lambda: None)
    sim.run()
    for i in range(1, 4):
        cache.write_page(make_ref(f"q.n1:{i}", on_disk=False), lambda: None)
    sim.run()
    assert cache.resident_frames == 4

    # The fifth page forces a dirty eviction of the LRU victim; its spill
    # occupies the disk until disk_ms(128) from now.
    spill_ms = cache.model.disk_ms(128)
    port_ms = cache.model.cache_port_ms(128)
    assert port_ms < spill_ms  # the read below must still be pinned at spill end
    cache.write_page(make_ref("q.n1:4", on_disk=False), lambda: None)
    read_done = []
    sim.schedule(
        spill_ms - port_ms / 2,
        lambda: cache.read_shared(victim, lambda: read_done.append(sim.now)),
    )
    sim.run()
    assert read_done  # the pinned reader was served
    assert cache.is_resident(victim)  # eviction aborted, frame survived
    assert picks[:2] == ["q.n1:0", "q.n1:1"]  # the retry took the next LRU frame
    assert cache.resident_frames == 4  # capacity accounting intact
    # The aborted write-back still persisted the page.
    assert victim.on_disk
    # A later read of the survivor is a plain cache hit.
    before = meter.bytes_at(tl.DISK_TO_CACHE)
    cache.read_shared(victim, lambda: read_done.append(sim.now))
    sim.run()
    assert len(read_done) == 2
    assert meter.bytes_at(tl.DISK_TO_CACHE) == before


def test_rewrite_resident_key_does_not_leak_slots():
    # Bugfix: re-installing an already-resident key used to allocate a
    # *second* slot (evicting an innocent neighbour) while the dict entry
    # was simply overwritten, so the reserved count drifted one above the
    # real frame population on every rewrite.
    sim, meter, cache = make_cache(frames=4)
    refs = [make_ref(f"q.n1:{i}", on_disk=False) for i in range(4)]
    for ref in refs:
        cache.write_page(ref, lambda: None)
    sim.run()
    assert cache.resident_frames == 4
    for _ in range(3):  # rewrite one key repeatedly at full capacity
        cache.write_page(make_ref("q.n1:0", on_disk=False), lambda: None)
        sim.run()
        assert cache.resident_frames == 4
    # In-place refresh: nothing was evicted or spilled.
    assert all(cache.is_resident(ref) for ref in refs)
    assert meter.bytes_at(tl.CACHE_TO_DISK) == 0


def test_rewrite_updates_frame_content():
    sim, meter, cache = make_cache(frames=4)
    first = make_ref("q.n1:0", on_disk=False)
    cache.write_page(first, lambda: None)
    sim.run()
    second = make_ref("q.n1:0", on_disk=False)
    second.row_count = 7
    cache.write_page(second, lambda: None)
    sim.run()
    assert cache.resident_frames == 1
    done = []
    cache.read_shared(second, lambda: done.append(1))
    sim.run()
    assert done == [1]


def test_write_during_fill_does_not_leak_a_reservation():
    # Bugfix: write_page of a key whose disk fill was still in flight
    # installed a second frame under a second reservation; the fill's
    # completion then overwrote the dict entry, leaving the reserved count
    # one above the real frame population for the rest of the run.  Now the
    # fill detects the newer frame, keeps it, and hands its duplicate
    # reservation back.
    sim, meter, cache = make_cache(frames=4)
    ref = make_ref("base:r:0")  # on disk: the read below must fill
    read_done = []
    cache.read_shared(ref, lambda: read_done.append(sim.now))
    assert cache.has_inflight(ref)
    # While the fill is on the disk, a producer rewrites the same key.
    rewrite = make_ref("base:r:0", on_disk=False)
    write_done = []
    cache.write_page(rewrite, lambda: write_done.append(sim.now))
    sim.run()
    assert read_done and write_done
    assert cache.resident_frames == 1  # no leaked slot
    assert cache.is_resident(ref)
    # The full capacity is still usable afterwards.
    for i in range(1, 5):
        cache.write_page(make_ref(f"q.n1:{i}", on_disk=False), lambda: None)
        sim.run()
    assert cache.resident_frames == 4


def test_write_during_fill_passes_sanitizer_accounting():
    from repro.check import sanitizing

    with sanitizing():
        sim, meter, cache = make_cache(frames=4)
        ref = make_ref("base:r:0")
        cache.read_shared(ref, lambda: None)
        cache.write_page(make_ref("base:r:0", on_disk=False), lambda: None)
        sim.run()
        sim.finalize_sanitizer()  # raises on any reservation imbalance


def test_fill_during_write_allocation_does_not_leak_a_reservation():
    # Bugfix: a write_page that waited for a frame while a disk fill of the
    # same key completed installed a second frame over the filled one; the
    # fill's reservation was never handed back.
    from repro.check import sanitizing

    with sanitizing():
        sim, meter, cache = make_cache(frames=4)
        refs = [make_ref(f"base:r:{i}") for i in range(3)]
        for ref in refs:
            cache.read_shared(ref, lambda: None)  # three fills queue on the drive
        cache.write_page(refs[0], lambda: None)  # the fourth slot
        cache.write_page(refs[1], lambda: None)  # waits, while base:r:1 fills
        sim.run()
        sim.finalize_sanitizer()  # raises on any reservation imbalance
        assert cache.resident_frames == len(cache._frames)


def test_minimum_frames_enforced():
    sim = Simulator()
    with pytest.raises(MachineError):
        DiskCache(sim, TrafficMeter(), ExecModel(), 2, Resource(sim, "p"), [Resource(sim, "d")])


# -- victim order --------------------------------------------------------------


cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "write_clean", "protect", "unprotect", "discard"]),
        st.integers(0, 9),
        st.sampled_from([0.0, 1.0, 5.0, 20.0, 60.0]),
    ),
    min_size=20,
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(ops=cache_ops, frames=st.integers(4, 6))
def test_victim_order_matches_reference_scan(ops, frames):
    from repro.check import sanitizing

    with sanitizing():
        sim, meter, cache = make_cache(frames=frames, disks=2)
        checked_victims(cache)
        # Keys 0-4 are base pages (on disk); 5-9 are intermediates.  Large
        # pages keep a port transaction (and its pin) open for a quarter
        # of a spill, so re-reads often abort a dirty eviction.
        refs = {
            i: make_ref(f"base:r:{i}" if i < 5 else f"q.n1:{i}", on_disk=i < 5, nbytes=65536)
            for i in range(10)
        }
        for op, i, advance in ops:
            ref = refs[i]
            if op == "read":
                readable = cache.is_resident(ref) or cache.has_inflight(ref) or ref.on_disk
                if readable:
                    cache.read_shared(ref, lambda: None)
            elif op in ("write", "write_clean"):
                cache.write_page(ref, lambda: None, dirty=op == "write")
            elif op == "protect":
                cache.protect(ref)
            elif op == "unprotect":
                cache.unprotect(ref)
            else:
                cache.discard(ref)
            sim.run(until=sim.now + advance)
        sim.run()
        sim.finalize_sanitizer()  # every evictable frame is in the victim order


def test_sanitizer_flags_an_evictable_frame_missing_from_the_victim_order():
    from repro.check import sanitizing
    from repro.errors import SanitizerError

    with sanitizing():
        sim, meter, cache = make_cache(frames=4)
        for i in range(5):  # the fifth page evicts: the victim order exists
            cache.write_page(make_ref(f"q.n1:{i}", on_disk=False), lambda: None)
            sim.run()
        cache._victims.clear()  # a missed push
        with pytest.raises(SanitizerError, match="missing from the victim order"):
            sim.finalize_sanitizer()
