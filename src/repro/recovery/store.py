"""The durable half of the crash model: page images plus the forced log.

A :class:`StableStore` is what survives a ``machine_crash`` fault — the
simulated disk.  It holds per-relation page images keyed by page number,
a per-page checksum written *with* the page (the sector-checksum model:
a torn write leaves bytes that no longer match their own checksum), and
the durable prefix of the write-ahead log.

The log is kept as the list of forced frames, appended as they arrive
and joined only when someone reads :attr:`StableStore.log`: a growing
run never copies the whole log to extend it.  It is never truncated
except by restart, which cuts a torn tail off.

Everything else — buffer pool, active-transaction table, dirty page
table, the unforced log tail — lives in the
:class:`~repro.recovery.txn.TransactionManager` and is simply discarded
at a crash.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Tuple

from repro.errors import RecoveryError

__all__ = ["StableStore", "page_crc"]


def page_crc(data: bytes) -> int:
    """The checksum stored alongside a page image."""
    return zlib.crc32(data) & 0xFFFFFFFF


class StableStore:
    """Durable page images + durable log prefix."""

    def __init__(self) -> None:
        #: relation -> {page_number: image bytes}; absent key = absent page.
        self.pages: Dict[str, Dict[int, bytes]] = {}
        #: relation -> {page_number: checksum the writer intended}.
        self.checksums: Dict[str, Dict[int, int]] = {}
        #: Forced log frames in force order; :attr:`log` joins them.
        self._log: List[bytes] = []
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
        """The durable log, read-only.

        The frames are joined on read and the joined bytes replace them,
        so a second read with no force in between copies nothing.
        """
        if len(self._log) > 1:
            self._log = [b"".join(self._log)]
        return self._log[0] if self._log else b""

    def append_log(self, data: bytes) -> None:
        """Force ``data`` onto the durable log."""
        self._log.append(bytes(data))
        self.log_forces += 1

    def truncate_log(self, size: int) -> None:
        """Cut the durable log back to its first ``size`` bytes."""
        log = self.log
        self._log = [log[:size]] if size else []
