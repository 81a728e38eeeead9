"""The durable half of the crash model: page images plus the forced log.

A :class:`StableStore` is what survives a ``machine_crash`` fault — the
simulated disk.  It holds per-relation page images keyed by page number,
a per-page checksum written *with* the page (the sector-checksum model:
a torn write leaves bytes that no longer match their own checksum), the
durable suffix of the write-ahead log, and a commit index.

The log is kept as the list of forced frames, appended as they arrive
and joined only when someone reads :attr:`StableStore.log`.  Each
checkpoint drops the frames wholly below its redo point
(:meth:`StableStore.checkpoint_log`), so the log holds what restart can
still need, not the run's history.  The names of the commits at or
below the last checkpoint move into :attr:`StableStore.commit_index`,
which restart reports ahead of the commits it finds in the log.
Restart also cuts a torn tail off (:meth:`StableStore.truncate_log`).

Everything else — buffer pool, active-transaction table, dirty page
table, the unforced log tail — lives in the
:class:`~repro.recovery.txn.TransactionManager` and is simply discarded
at a crash.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Sequence, Tuple

from repro.errors import RecoveryError
from repro.recovery.wal import KIND_BEGIN, KIND_COMMIT, NO_LSN, LogRecord, first_lsn

__all__ = ["StableStore", "page_crc"]


def page_crc(data: bytes) -> int:
    """The checksum stored alongside a page image."""
    return zlib.crc32(data) & 0xFFFFFFFF


class StableStore:
    """Durable page images + durable log suffix + commit index."""

    def __init__(self) -> None:
        #: relation -> {page_number: image bytes}; absent key = absent page.
        self.pages: Dict[str, Dict[int, bytes]] = {}
        #: relation -> {page_number: checksum the writer intended}.
        self.checksums: Dict[str, Dict[int, int]] = {}
        #: Forced log frames in force order; :attr:`log` joins them.
        self._frames: List[bytes] = []
        #: The LSN each frame opens with (``NO_LSN`` for debris).
        self._frame_lsns: List[int] = []
        #: Names of the commits at or below LSN :attr:`index_lsn`, in
        #: commit order; the log holds only the commits after it.
        self.commit_index: List[str] = []
        self.index_lsn = NO_LSN
        self.page_writes = 0
        self.log_forces = 0

    # -- pages ---------------------------------------------------------------

    def seed_relation(self, relation: str, images: List[bytes]) -> None:
        """Install the initial (pre-history) images of a relation."""
        self.pages[relation] = {i: bytes(img) for i, img in enumerate(images)}
        self.checksums[relation] = {
            i: page_crc(img) for i, img in enumerate(images)
        }

    def write_page(
        self, relation: str, page_number: int, data: bytes, torn: bytes = b""
    ) -> None:
        """One durable page write.

        ``torn`` models a write interrupted mid-sector: the checksum of
        the *intended* image is recorded (as a real sector checksum would
        be staged with the I/O) but the bytes that land are ``torn`` —
        detectable later via :meth:`page_intact`.
        """
        pages = self.pages.setdefault(relation, {})
        sums = self.checksums.setdefault(relation, {})
        if data:
            sums[page_number] = page_crc(data)
            pages[page_number] = bytes(torn) if torn else bytes(data)
        else:
            pages.pop(page_number, None)
            sums.pop(page_number, None)
        self.page_writes += 1

    def read_page(self, relation: str, page_number: int) -> bytes:
        """The raw bytes on disk (possibly torn); empty if absent."""
        return self.pages.get(relation, {}).get(page_number, b"")

    def page_intact(self, relation: str, page_number: int) -> bool:
        """Does the stored image match the checksum written with it?"""
        data = self.pages.get(relation, {}).get(page_number)
        if data is None:
            return True
        return page_crc(data) == self.checksums[relation][page_number]

    def damaged_pages(self) -> List[Tuple[str, int]]:
        """Every (relation, page_number) whose bytes fail their checksum."""
        damaged = []
        for relation in sorted(self.pages):
            for page_number in sorted(self.pages[relation]):
                if not self.page_intact(relation, page_number):
                    damaged.append((relation, page_number))
        return damaged

    def relation_images(self, relation: str) -> List[bytes]:
        """The dense page list of a relation; raises on holes.

        Committed state is always densely packed (canonical install), so
        a hole here means a recovery bug, not a crash artifact.
        """
        table = self.pages.get(relation, {})
        images: List[bytes] = []
        for i, page_number in enumerate(sorted(table)):
            if page_number != i:
                raise RecoveryError(
                    f"relation {relation!r} has a page hole at {i} "
                    f"(next stored page is {page_number})"
                )
            images.append(table[page_number])
        return images

    def committed_bytes(self) -> bytes:
        """One deterministic byte string for the whole durable database.

        The framing (name + page count + per-page length prefix) makes
        the serialization injective, so byte equality here is state
        equality.  This is what ``repro recover`` writes to disk for the
        CI ``cmp`` and what the E17 oracle comparison uses.
        """
        parts: List[bytes] = []
        for relation in sorted(self.pages):
            images = self.relation_images(relation)
            header = f"{relation}:{len(images)}\n".encode("utf-8")
            parts.append(header)
            for image in images:
                parts.append(len(image).to_bytes(4, "little"))
                parts.append(image)
        return b"".join(parts)

    # -- log -----------------------------------------------------------------

    @property
    def log(self) -> bytes:
        """The durable log, read-only: the retained frames, joined."""
        return b"".join(self._frames)

    def append_log(self, data: bytes) -> None:
        """Force ``data`` onto the durable log as one frame."""
        frame = bytes(data)
        self._frames.append(frame)
        self._frame_lsns.append(first_lsn(frame))
        self.log_forces += 1

    def truncate_log(self, size: int) -> None:
        """Cut the durable log back to its first ``size`` bytes."""
        kept: List[bytes] = []
        for frame in self._frames:
            if size <= 0:
                break
            kept.append(frame[:size])
            size -= len(frame)
        self._frames = kept
        self._frame_lsns = [first_lsn(frame) for frame in kept]

    def committed(self, records: Sequence[LogRecord]) -> List[str]:
        """Every durable commit in commit order: the commit index, then
        the COMMITs after it in ``records``, the decoded :attr:`log`.

        A transaction that commits after the index was last extended
        was open at that checkpoint or began after it, so the log still
        holds the BEGIN that names it.
        """
        names = {r.txn_id: r.name for r in records if r.kind == KIND_BEGIN}
        return self.commit_index + [
            names.get(r.txn_id, f"txn{r.txn_id}")
            for r in records
            if r.kind == KIND_COMMIT and r.lsn > self.index_lsn
        ]

    def checkpoint_log(
        self, redo_lsn: int, commits: Sequence[str], index_lsn: int
    ) -> None:
        """Index ``commits`` and drop the log frames below ``redo_lsn``.

        ``commits`` are the names of the commits after the old
        :attr:`index_lsn` and at or below ``index_lsn`` (the checkpoint's
        own LSN), in commit order.  A frame is dropped whole when the
        next one opens at or below ``redo_lsn``, so every record it
        holds is below the redo point; the frame holding the redo point
        and everything after it stay.
        """
        self.commit_index.extend(commits)
        self.index_lsn = index_lsn
        lsns = self._frame_lsns
        drop = 0
        while drop + 1 < len(lsns) and NO_LSN < lsns[drop + 1] <= redo_lsn:
            drop += 1
        del self._frames[:drop]
        del lsns[:drop]
