"""Byte-accurate fixed-size pages of fixed-width records.

A page is the unit of scheduling for the paper's preferred *page-level
granularity* (Section 3.2), the unit the disk cache and mass storage move
(Section 3.3: "any such mechanism relies on block transfers of data"), and
the operand carried in instruction packets (Figure 4.3).

Layout of a serialized page::

    +----------------+---------------+----------------------+---------+
    | record_count:4 | record_width:4| records (packed rows)| padding |
    +----------------+---------------+----------------------+---------+

Records are stored densely; deletion is handled a level up (heap files
rewrite pages), which matches the paper's append-only page streams where
partial pages are *compressed* into full pages by the receiving IC.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.errors import PageError
from repro.relational.schema import Row, Schema

_HEADER = struct.Struct("<II")

#: Default page size used by the relational substrate (the Section 3.3
#: analysis uses 1,000-byte pages; the ring machine uses 16K pages — both
#: are passed explicitly by the machines).
DEFAULT_PAGE_BYTES = 4096


class Page:
    """A fixed-capacity page holding packed rows of a single schema.

    Pages know their byte budget and refuse to overflow it, so the "5.5
    megabyte database" of the benchmark is literally 5.5 MB of page bytes.
    """

    __slots__ = ("schema", "page_bytes", "_rows", "_capacity", "dirty")

    def __init__(self, schema: Schema, page_bytes: int = DEFAULT_PAGE_BYTES):
        if page_bytes < _HEADER.size + schema.record_width:
            raise PageError(
                f"page of {page_bytes} bytes cannot hold even one "
                f"{schema.record_width}-byte record"
            )
        self.schema = schema
        self.page_bytes = page_bytes
        self._rows: List[Row] = []
        # Both fields are set once and never change, so the division is
        # hoisted out of the append/is_full hot path.
        self._capacity = (page_bytes - _HEADER.size) // schema.record_width
        #: True when the in-memory image has diverged from the last
        #: serialized/durable copy; cleared by :meth:`mark_clean`.
        self.dirty = False

    # -- capacity -----------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum number of records this page can hold."""
        return self._capacity

    @property
    def row_count(self) -> int:
        """Number of records currently on the page."""
        return len(self._rows)

    @property
    def used_bytes(self) -> int:
        """Bytes occupied by the header plus current records."""
        return _HEADER.size + self.row_count * self.schema.record_width

    @property
    def free_slots(self) -> int:
        """Records that can still be appended."""
        return self.capacity - self.row_count

    @property
    def is_full(self) -> bool:
        """True when no more records fit."""
        return self.row_count >= self.capacity

    @property
    def is_empty(self) -> bool:
        """True when the page holds no records."""
        return not self._rows

    # -- mutation -----------------------------------------------------------

    def append(self, row: Row) -> None:
        """Append one row; raises :class:`PageError` when the page is full."""
        if self.is_full:
            raise PageError(f"page is full ({self.capacity} records)")
        self.schema.validate_row(row)
        self._rows.append(tuple(row))
        self.dirty = True

    def mutate_row(self, slot: int, row: Row) -> Row:
        """Overwrite the record in ``slot`` in place; returns the old row.

        This is the page-granularity write the WAL logs (DESIGN.md §13):
        machine code must only reach it through a logged transaction —
        the R011 lint rule enforces that — but the page itself just
        mutates and marks the frame dirty.
        """
        self.schema.validate_row(row)
        if not 0 <= slot < len(self._rows):
            raise PageError(
                f"no slot {slot} on page with {self.row_count} records"
            )
        old = self._rows[slot]
        self._rows[slot] = tuple(row)
        self.dirty = True
        return old

    def mark_clean(self) -> None:
        """Record that the current image has been made durable."""
        self.dirty = False

    def try_append(self, row: Row) -> bool:
        """Append ``row`` if there is room; return whether it was stored."""
        if self.is_full:
            return False
        self.append(row)
        return True

    def extend(self, rows: Iterable[Row]) -> int:
        """Append rows until the page fills; return how many were taken."""
        taken = 0
        for row in rows:
            if not self.try_append(row):
                break
            taken += 1
        return taken

    def extend_unchecked(self, rows: Sequence[Row]) -> None:
        """Bulk-append rows without checking them on entry.

        For rows the caller knows are valid tuples of this schema: the
        machines' result shipping moves rows that came off existing pages
        or out of the page kernels, and :meth:`Relation.insert_many` checks
        its whole batch first.  The rows are not trusted for good:
        :meth:`to_bytes` checks every row again before it becomes bytes in
        a packet or the WAL.  Overflow is still checked; callers sizing by
        :attr:`capacity` can never trip it.
        """
        if self.row_count + len(rows) > self._capacity:
            raise PageError(
                f"bulk append of {len(rows)} rows overflows page "
                f"({self.row_count}/{self._capacity} records)"
            )
        self._rows.extend(rows)
        self.dirty = True

    def clear(self) -> None:
        """Drop every record from the page."""
        self._rows.clear()
        self.dirty = True

    # -- access -------------------------------------------------------------

    def rows(self) -> Iterator[Row]:
        """Iterate the records on the page in insertion order."""
        return iter(self._rows)

    def row(self, slot: int) -> Row:
        """The record in ``slot``; raises :class:`PageError` on a bad slot."""
        try:
            return self._rows[slot]
        except IndexError:
            raise PageError(f"no slot {slot} on page with {self.row_count} records") from None

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def __len__(self) -> int:
        return self.row_count

    def __repr__(self) -> str:
        return f"Page({self.row_count}/{self.capacity} records, {self.page_bytes}B)"

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to exactly :attr:`page_bytes` bytes (zero-padded).

        Every row is checked against the schema on the way (see
        :meth:`Schema.pack_many`); for pages filled by
        :meth:`extend_unchecked` this is the only type check before the
        bytes reach a packet or the WAL.
        """
        body = self.schema.pack_many(self._rows)
        header = _HEADER.pack(self.row_count, self.schema.record_width)
        payload = header + body
        return payload + b"\x00" * (self.page_bytes - len(payload))

    @classmethod
    def from_bytes(cls, schema: Schema, data: bytes) -> "Page":
        """Rebuild a page from :meth:`to_bytes` output."""
        if len(data) < _HEADER.size:
            raise PageError("page bytes shorter than header")
        count, width = _HEADER.unpack_from(data)
        if width != schema.record_width:
            raise PageError(
                f"page records are {width} bytes but schema needs {schema.record_width}"
            )
        end = _HEADER.size + count * width
        if end > len(data):
            raise PageError(f"page header claims {count} records but bytes are short")
        page = cls(schema, page_bytes=len(data))
        if count > page.capacity:
            raise PageError(f"page header claims {count} records over capacity {page.capacity}")
        for row in schema.unpack_many(data[_HEADER.size : end]):
            page.append(row)
        # A page rebuilt from serialized bytes *is* the durable image.
        page.dirty = False
        return page

    def copy(self) -> "Page":
        """An independent copy of this page (dirty state included)."""
        dup = Page(self.schema, self.page_bytes)
        dup._rows = list(self._rows)
        dup.dirty = self.dirty
        return dup


def page_capacity(schema: Schema, page_bytes: int) -> int:
    """Records a page of ``page_bytes`` holds, without building one."""
    return (page_bytes - _HEADER.size) // schema.record_width


class PageAssembler:
    """Packs a stream of result rows densely into full pages of one schema.

    Every machine sends its results on in full pages (Section 4.2: as
    pages "arrive, they are compressed to form full pages"): :meth:`add`
    returns the pages the new rows complete, :meth:`flush` the final
    partial page.  The rows come out of the page kernels or off shipped
    pages, so they go onto pages unchecked (:meth:`Page.extend_unchecked`).
    """

    __slots__ = ("schema", "page_bytes", "_capacity", "_rows")

    def __init__(self, schema: Schema, page_bytes: int):
        self.schema = schema
        self.page_bytes = page_bytes
        self._capacity = page_capacity(schema, page_bytes)
        self._rows: List[Row] = []

    def __len__(self) -> int:
        """Rows buffered toward the next page."""
        return len(self._rows)

    def add(self, rows: Sequence[Row]) -> List[Page]:
        """Buffer ``rows``; return the full pages they complete, in order."""
        buffer = self._rows
        buffer.extend(rows)
        capacity = self._capacity
        if len(buffer) < capacity:
            return []
        pages: List[Page] = []
        start = 0
        while len(buffer) - start >= capacity:
            page = Page(self.schema, self.page_bytes)
            page.extend_unchecked(buffer[start : start + capacity])
            pages.append(page)
            start += capacity
        del buffer[:start]
        return pages

    def flush(self) -> Optional[Page]:
        """The final partial page of the buffered rows, or None if empty."""
        if not self._rows:
            return None
        page = Page(self.schema, self.page_bytes)
        page.extend_unchecked(self._rows)  # never overflows: add drains full pages
        self._rows = []
        return page

    def discard(self) -> None:
        """Drop the buffered rows (their producer failed or was aborted)."""
        self._rows = []


def pack_rows_into_pages(
    schema: Schema,
    rows: Iterable[Row],
    page_bytes: int = DEFAULT_PAGE_BYTES,
    validated: bool = False,
) -> List[Page]:
    """Pack ``rows`` densely into a list of pages.

    This is the "compression" step the paper's ICs perform on arriving
    partial pages (Section 4.2: "as pages (which may not be full) arrive,
    they are compressed to form full pages").

    The rows are checked as one batch (:meth:`Schema.validate_rows`) unless
    ``validated=True`` says they are already valid tuples of ``schema``
    (e.g. rows read back off existing pages); either way
    :meth:`Page.to_bytes` checks them again before they become bytes, and
    the page boundaries are the same.
    """
    if validated:
        row_list = rows if isinstance(rows, list) else list(rows)
    else:
        row_list = list(map(tuple, rows))
        schema.validate_rows(row_list)
    pages: List[Page] = []
    fill_pages(pages, schema, row_list, page_bytes)
    return pages


def fill_pages(
    pages: List[Page], schema: Schema, rows: Sequence[Row], page_bytes: int
) -> None:
    """Append checked ``rows`` to the page list ``pages``, densely.

    The last page is topped up first; the rest go onto new pages of
    ``page_bytes`` in capacity-sized slices, so the page boundaries are
    those of appending the rows one by one.
    """
    start = 0
    if rows and pages and not pages[-1].is_full:
        start = pages[-1].free_slots
        pages[-1].extend_unchecked(rows[:start])
    while start < len(rows):
        page = Page(schema, page_bytes)
        page.extend_unchecked(rows[start : start + page.capacity])
        pages.append(page)
        start += page.capacity
