"""The shared multiport disk cache: frames, LRU replacement, dirty spills.

DIRECT places a CCD disk cache between the query processors and the
mass-storage disks; together with processor memory this forms the paper's
three-level storage hierarchy.  The cache is page-framed: a read miss
allocates a frame and fills it from disk; producing an intermediate page
allocates a frame dirty; evicting a dirty frame first writes it to disk
("when an IC fills its segment of the disk cache, pages will be swapped
out to disk").

Concurrent requests for the same page share one transfer (the cross-point
switch "broadcast facility" — requirement 4 of Section 4.0), which is what
makes the nested-loops join's inner-relation streaming cheap.

**Storage faults** (paper requirement 5): an armed ``disk_read_error``
spec makes mass-storage page transfers fail transiently — the cache
retries after ``retry_delay_ms``, up to ``max_retries`` times, then
raises :class:`repro.errors.RetryExhaustedError` naming the drive.  An
armed ``cache_poison`` spec corrupts clean, unpinned frames at hit time;
the cache discards the poisoned frame and re-fetches the page from its
mass-storage copy.  Both draw from seeded per-site streams, so recovery
is deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import MachineError, RetryExhaustedError
from repro.faults.plan import FaultSpec
from repro.direct import traffic as tlevels
from repro.direct.exec_model import ExecModel
from repro.direct.traffic import TrafficMeter
from repro.relational.page import Page
from repro.relational.relation import Relation
from repro.sim.engine import Simulator
from repro.sim.resources import Resource


@dataclass
class PageRef:
    """A page identity flowing through the machine.

    ``payload`` carries the actual rows (None only for never-materialized
    pages, which do not occur in practice).  ``on_disk`` tracks whether a
    copy exists on mass storage; base-relation pages start True,
    intermediate pages become True only if spilled.
    """

    key: str
    nbytes: int
    payload: Optional[Page]
    on_disk: bool
    disk_id: int
    row_count: int = 0

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other) -> bool:
        return isinstance(other, PageRef) and other.key == self.key


def base_page_refs(relation: Relation, page_bytes: int, num_disks: int) -> List[PageRef]:
    """Machine-page-size images of a base relation, spread over the disks."""
    # Shared read-only images, memoized on the relation: machines built
    # over the same catalog repack nothing.
    pages = relation.packed_pages(page_bytes)
    salt = zlib.crc32(relation.name.encode("utf-8"))
    return [
        PageRef(
            key=f"base:{relation.name}:{i}",
            nbytes=page_bytes,
            payload=page,
            on_disk=True,
            disk_id=(salt + i) % max(1, num_disks),
            row_count=page.row_count,
        )
        for i, page in enumerate(pages)
    ]


@dataclass
class _Frame:
    ref: PageRef
    dirty: bool
    pins: int = 0
    last_use: int = 0
    doomed: bool = False
    #: Soft-pinned: evicted only when no unprotected victim exists.  Models
    #: the IC cache segments of Section 4.1 (operand pages of an active
    #: instruction keep their frames while the instruction runs).
    protected: bool = False


@dataclass
class _SharedRead:
    waiters: List[Callable[[], None]] = field(default_factory=list)


class DiskCache:
    """Frame-managed CCD cache in front of the mass-storage drives."""

    def __init__(
        self,
        sim: Simulator,
        meter: TrafficMeter,
        model: ExecModel,
        capacity_frames: int,
        ports: Resource,
        disks: List[Resource],
    ):
        if capacity_frames < 4:
            raise MachineError(f"cache needs at least 4 frames, got {capacity_frames}")
        self.sim = sim
        self.meter = meter
        self.model = model
        self.capacity_frames = capacity_frames
        self.ports = ports
        self.disks = disks
        self._frames: Dict[str, _Frame] = {}
        self._use_clock = itertools.count()
        #: Victim order: a lazy min-heap of ``(protected, last_use, key)``
        #: over the evictable (unpinned) frames.  An entry is live while its
        #: frame is resident, unpinned and still has that rank; anything
        #: else is stale and popped when it reaches the top.  ``last_use``
        #: values are unique, so ranks never tie.  Built at the first
        #: eviction: a cache that never fills never ranks its frames.
        self._victims: Optional[List[Tuple[bool, int, str]]] = None
        self._alloc_waiters: Deque[Callable[[], None]] = deque()
        self._inflight_reads: Dict[str, _SharedRead] = {}
        #: Pages counted resident including frames mid-fill.
        self._reserved = 0
        #: Last page key read per drive, for sequential-transfer detection.
        self._disk_last: Dict[int, str] = {}
        self._sanitizer = sim.sanitizer
        if self._sanitizer is not None:
            self._sanitizer.register_finish_check("disk-cache", self._sanitize_finish)
        # Fault injection: resolve the storage specs once.  ``None`` when
        # nothing is armed, so the fault-free paths below run verbatim.
        self._injector = sim.faults
        self._disk_spec: Optional[FaultSpec] = None
        self._poison_spec: Optional[FaultSpec] = None
        if self._injector is not None:
            self._disk_spec = self._injector.armed_spec("disk_read_error")
            self._poison_spec = self._injector.armed_spec("cache_poison")
            if self._disk_spec is None and self._poison_spec is None:
                self._injector = None

    # -- public API -------------------------------------------------------------

    @property
    def resident_frames(self) -> int:
        """Frames currently allocated (including mid-transfer)."""
        return self._reserved

    def is_resident(self, ref: PageRef) -> bool:
        """True when ``ref`` currently occupies a frame."""
        return ref.key in self._frames

    def has_inflight(self, ref: PageRef) -> bool:
        """True when a delivery of ``ref`` is on the interconnect right now.

        Joining such a read costs nothing extra (broadcast) — the paper's
        IPs use exactly this opportunism via their IRC vectors.
        """
        return ref.key in self._inflight_reads

    def read_shared(self, ref: PageRef, done: Callable[[], None]) -> None:
        """Deliver ``ref`` toward the processor interconnect.

        Cache hit: one port transaction.  Miss: disk fill, then one port
        transaction.  Requests arriving while the same page's delivery is
        in flight share it (broadcast), paying no extra port or disk time
        and adding no extra interconnect bytes.
        """
        inflight = self._inflight_reads.get(ref.key)
        if inflight is not None:
            inflight.waiters.append(done)
            return
        self._inflight_reads[ref.key] = _SharedRead(waiters=[done])

        if self._poison_spec is not None:
            frame = self._frames.get(ref.key)
            if (
                frame is not None
                and frame.pins == 0
                and not frame.dirty
                and frame.ref.on_disk
                and self._injector.decide(
                    "cache_poison", "cache", self._poison_spec.rate
                )
            ):
                # The frame's content is corrupt; its clean disk copy is
                # authoritative, so drop the frame and fall through to a
                # normal miss (re-fetch from mass storage).
                self._injector.count("cache.poison")
                self._injector.count("cache.refetch")
                self._release(ref.key)

        if ref.key in self._frames:
            self._pin(ref.key)
            self._port_deliver(ref)
            return
        if not ref.on_disk:
            raise MachineError(
                f"page {ref.key!r} is neither cached nor on disk — it was "
                f"discarded while still needed"
            )
        self._allocate(lambda: self._fill_from_disk(ref))

    def write_page(self, ref: PageRef, done: Callable[[], None], dirty: bool = True) -> None:
        """Install a processor-produced page into the cache.

        Charges one port transaction and counts processor-to-cache
        interconnect bytes; the frame lands dirty (an intermediate page
        with no disk copy yet).  Writing a key that is already resident
        rewrites its frame in place — allocating a second slot for the
        same key would leak the first reservation and shrink effective
        capacity for the rest of the run.
        """

        def delivered() -> None:
            self.meter.add(tlevels.PROC_TO_CACHE, self.model.packet_bytes(ref.nbytes))
            self._unpin(ref.key)
            done()

        def install(reserved: bool) -> None:
            existing = self._frames.get(ref.key)
            if existing is None:
                self._frames[ref.key] = _Frame(
                    ref=ref, dirty=dirty, pins=1, last_use=next(self._use_clock)
                )
            else:
                existing.ref = ref
                existing.dirty = dirty
                self._pin(ref.key)
                if reserved:
                    # A disk fill installed this key while the allocation
                    # waited: hand the duplicate reservation back.
                    self._unreserve_slot()
            self.ports.submit(self.model.cache_port_ms(ref.nbytes), delivered, nbytes=ref.nbytes)

        if ref.key in self._frames:
            install(reserved=False)
        else:
            self._allocate(lambda: install(reserved=True))

    def protect(self, ref: PageRef) -> None:
        """Soft-pin ``ref``'s frame while its instruction is active."""
        self._set_protected(ref.key, True)

    def unprotect(self, ref: PageRef) -> None:
        """Release the soft pin on ``ref``."""
        self._set_protected(ref.key, False)

    def discard(self, ref: PageRef) -> None:
        """Drop ``ref`` from the hierarchy (its consumers are all done).

        A pinned frame is doomed instead and freed at unpin time.
        """
        frame = self._frames.get(ref.key)
        if frame is None:
            return
        if frame.pins > 0:
            frame.doomed = True
            return
        self._release(ref.key)

    # -- internals -------------------------------------------------------------

    def _sanitize_finish(self) -> List[str]:
        """End-of-run frame-accounting invariants for the sanitizer."""
        violations: List[str] = []
        ranked = (
            None
            if self._victims is None
            else {entry[2] for entry in self._victims if self._is_live(entry)}
        )
        for key, frame in sorted(self._frames.items()):
            if frame.pins > 0:
                violations.append(f"frame {key!r} leaked {frame.pins} pin(s)")
            elif ranked is not None and key not in ranked:
                violations.append(f"evictable frame {key!r} is missing from the victim order")
        if self._reserved != len(self._frames):
            violations.append(
                f"reservation imbalance: {self._reserved} reserved slots for "
                f"{len(self._frames)} resident frames"
            )
        if self._alloc_waiters:
            violations.append(
                f"{len(self._alloc_waiters)} frame-allocation waiter(s) stranded"
            )
        for key in sorted(self._inflight_reads):
            violations.append(f"in-flight read of {key!r} was never delivered")
        return violations

    def _reserve_slot(self) -> None:
        """Count one frame reservation; sanitize mode polices the ceiling."""
        self._reserved += 1
        if self._sanitizer is not None and self._reserved > self.capacity_frames:
            self._sanitizer.fail(
                f"disk-cache double-reserve: {self._reserved} reservations "
                f"exceed {self.capacity_frames} frames"
            )

    def _unreserve_slot(self) -> None:
        """Hand a reservation back; a queued allocation claims it at once."""
        self._reserved -= 1
        if self._alloc_waiters:
            waiter = self._alloc_waiters.popleft()
            self._reserve_slot()
            waiter()

    def _pin(self, key: str, use: bool = True) -> None:
        """One more holder of the frame; a pinned frame is never a victim.

        ``use`` refreshes the frame's LRU rank.
        """
        frame = self._frames[key]
        frame.pins += 1
        if use:
            frame.last_use = next(self._use_clock)

    def _drop_pin(self, key: str, frame: _Frame) -> bool:
        """Release one pin; True when the frame just became evictable.

        Every pin release goes through here, so every frame that reaches
        zero pins enters the victim order.
        """
        frame.pins -= 1
        if frame.pins > 0:
            return False
        self._rank(key, frame)
        return True

    def _rank(self, key: str, frame: _Frame) -> None:
        """Enter an unpinned frame into the victim order at its rank."""
        victims = self._victims
        if victims is None:
            return
        heapq.heappush(victims, (frame.protected, frame.last_use, key))
        if len(victims) > 4 * self.capacity_frames:
            # Too many stale entries.  The ranks are exact, so a rebuild
            # does not change the victim sequence.
            self._rebuild_victims()

    def _rebuild_victims(self) -> List[Tuple[bool, int, str]]:
        """The victim order from scratch: one entry per unpinned frame."""
        victims = [(f.protected, f.last_use, k) for k, f in self._frames.items() if f.pins == 0]
        heapq.heapify(victims)
        self._victims = victims
        return victims

    def _is_live(self, entry: Tuple[bool, int, str]) -> bool:
        """True when a victim-order entry still ranks its frame."""
        protected, last_use, key = entry
        frame = self._frames.get(key)
        return (
            frame is not None
            and frame.pins == 0
            and frame.last_use == last_use
            and frame.protected == protected
        )

    def _set_protected(self, key: str, protected: bool) -> None:
        frame = self._frames.get(key)
        if frame is None or frame.protected == protected:
            return
        frame.protected = protected
        if frame.pins == 0:
            self._rank(key, frame)  # its old entry is stale now

    def _unpin(self, key: str) -> None:
        frame = self._frames.get(key)
        if frame is None:
            return
        if self._drop_pin(key, frame):
            if frame.doomed:
                self._release(key)
            else:
                # The frame just became evictable; a queued allocation may
                # now be able to claim it.
                self._retry_alloc_waiters()

    def _release(self, key: str) -> None:
        del self._frames[key]
        self._unreserve_slot()

    def _allocate(self, granted: Callable[[], None]) -> None:
        """Hand a free frame slot to ``granted``, evicting if needed."""
        if self._reserved < self.capacity_frames:
            self._reserve_slot()
            granted()
            return
        victim = self._pick_victim()
        if victim is None:
            # Everything pinned: wait for an unpin/release.
            self._alloc_waiters.append(granted)
            return
        self._evict_then(victim, granted)

    def _evict_then(self, victim: str, granted: Callable[[], None]) -> None:
        """Evict ``victim`` (spilling a dirty frame first), then grant.

        A dirty victim's write-back takes disk time, during which the frame
        stays resident (readers may legitimately hit it — the page is still
        in the cache).  If anyone re-pins the frame while the write-back is
        in flight, the eviction *aborts* at completion rather than deleting
        a frame a consumer believes is resident; the allocation then retries
        against the current frame population.  The write-back itself is
        never wasted: the spilled content is on disk either way.
        """
        frame = self._frames[victim]
        if frame.dirty:
            # Hold the victim during the write-back.  Not a use: its LRU
            # rank stays as it was if the eviction aborts.
            self._pin(victim, use=False)
            spilled_ref = frame.ref  # the content this write-back persists

            def spilled() -> None:
                self.meter.add(tlevels.CACHE_TO_DISK, spilled_ref.nbytes)
                spilled_ref.on_disk = True
                if frame.ref is spilled_ref:
                    # Not rewritten mid-spill: the frame is clean now.
                    frame.dirty = False
                if not self._drop_pin(victim, frame):
                    self._allocate(granted)  # re-referenced: abort eviction
                    return
                del self._frames[victim]
                granted()

            disk_index = spilled_ref.disk_id % len(self.disks)
            disk = self.disks[disk_index]
            self._disk_last[disk_index] = spilled_ref.key  # spill moves the arm
            disk.submit(self.model.disk_ms(spilled_ref.nbytes), spilled, nbytes=spilled_ref.nbytes)
        else:
            del self._frames[victim]
            granted()

    def _retry_alloc_waiters(self) -> None:
        """Serve queued allocations as frames become evictable."""
        while self._alloc_waiters:
            victim = self._pick_victim()
            if victim is None:
                return
            waiter = self._alloc_waiters.popleft()
            self._evict_then(victim, waiter)

    def _pick_victim(self) -> Optional[str]:
        """The unpinned frame of least ``(protected, last_use)``: unprotected
        LRU first.  Stale entries on top of the victim order are dropped;
        the live top entry stays until its frame is pinned or released."""
        victims = self._victims
        if victims is None:
            victims = self._rebuild_victims()
        while victims:
            if self._is_live(victims[0]):
                return victims[0][2]
            heapq.heappop(victims)
        return None

    def _sequential_read(self, disk_index: int, key: str) -> bool:
        """True when ``key`` continues the drive's previous read.

        Base pages are laid out contiguously per relation and interleaved
        across the drives, so a relation scan reads keys ``rel:i`` and
        ``rel:i+k`` (k = number of drives) on one arm — no seek needed.
        """
        previous = self._disk_last.get(disk_index)
        if previous is None:
            return False
        prev_prefix, _, prev_idx = previous.rpartition(":")
        cur_prefix, _, cur_idx = key.rpartition(":")
        if prev_prefix != cur_prefix or not prev_idx.isdigit() or not cur_idx.isdigit():
            return False
        gap = int(cur_idx) - int(prev_idx)
        return 0 < gap <= 2 * len(self.disks)

    def _fill_from_disk(self, ref: PageRef, attempt: int = 0) -> None:
        disk_index = ref.disk_id % len(self.disks)
        disk = self.disks[disk_index]
        sequential = self._sequential_read(disk_index, ref.key)
        self._disk_last[disk_index] = ref.key

        def filled() -> None:
            if self._disk_spec is not None and self._injector.decide(
                "disk_read_error", f"disk{disk_index}", self._disk_spec.rate
            ):
                # Transient read error: the transfer is discarded and
                # retried after a fixed delay (re-charging disk time; the
                # retry is a random read — the arm has not moved).
                spec = self._disk_spec
                if attempt >= spec.max_retries:
                    raise RetryExhaustedError(
                        f"disk{disk_index}: read of {ref.key!r} still failing "
                        f"after {attempt + 1} attempts "
                        f"(max_retries={spec.max_retries})"
                    )
                self._injector.count("disk.read_error", f"disk{disk_index}")
                self._injector.count("disk.retry", f"disk{disk_index}")
                self.sim.schedule(
                    spec.retry_delay_ms,
                    lambda: self._fill_from_disk(ref, attempt + 1),
                    label=f"cache.disk{disk_index}.retry",
                )
                return
            self.meter.add(tlevels.DISK_TO_CACHE, ref.nbytes)
            existing = self._frames.get(ref.key)
            if existing is not None:
                # A concurrent write_page installed this key while the
                # disk fill was in flight.  Keep that (newer) frame and
                # hand the fill's duplicate reservation back — keeping
                # both would permanently shrink effective capacity.
                self._pin(ref.key)
                self._unreserve_slot()
                self._port_deliver(ref)
                return
            self._frames[ref.key] = _Frame(
                ref=ref, dirty=False, pins=1, last_use=next(self._use_clock)
            )
            self._port_deliver(ref)

        disk.submit(
            self.model.disk_ms(ref.nbytes, sequential=sequential),
            filled,
            nbytes=ref.nbytes,
        )

    def _port_deliver(self, ref: PageRef) -> None:
        def delivered() -> None:
            self.meter.add(tlevels.CACHE_TO_PROC, self.model.packet_bytes(ref.nbytes))
            self._unpin(ref.key)
            shared = self._inflight_reads.pop(ref.key)
            for waiter in shared.waiters:
                waiter()

        self.ports.submit(self.model.cache_port_ms(ref.nbytes), delivered, nbytes=ref.nbytes)
