"""Relations as schemas plus page lists, and the page tables that name them.

The paper assumes "the data is represented by page tables, pointing to pages
either in a cache or on mass storage" (Section 2.3).  :class:`PageTable`
models exactly that indirection: an ordered list of page identifiers plus a
completeness flag (an operand's table keeps growing while the producing
instruction is still running, which is what enables page-level pipelining).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.errors import PageError
from repro.relational.page import (
    DEFAULT_PAGE_BYTES,
    Page,
    fill_pages,
    pack_rows_into_pages,
)
from repro.relational.schema import Row, Schema

_relation_ids = itertools.count(1)


class Relation:
    """A named relation: a schema and an ordered list of pages.

    Relations are the leaves of query trees and the values the reference
    operators produce.  Pages are dense (no tombstones); deletion produces a
    rewritten relation, matching the paper's stream-of-pages model.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        pages: Optional[Sequence[Page]] = None,
        page_bytes: int = DEFAULT_PAGE_BYTES,
    ):
        self.name = name
        self.schema = schema
        self.page_bytes = page_bytes
        self.relation_id = next(_relation_ids)
        self._pages: List[Page] = list(pages) if pages is not None else []
        #: page_bytes -> densely packed page images (see :meth:`packed_pages`).
        self._packed_cache: Dict[int, List[Page]] = {}
        for page in self._pages:
            if page.schema.record_width != schema.record_width:
                raise PageError(
                    f"page record width {page.schema.record_width} does not match "
                    f"relation {name!r} record width {schema.record_width}"
                )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        name: str,
        schema: Schema,
        rows: Iterable[Row],
        page_bytes: int = DEFAULT_PAGE_BYTES,
        validated: bool = False,
    ) -> "Relation":
        """Build a relation by packing ``rows`` densely into pages.

        ``validated=True`` asserts the rows are already valid tuples of
        ``schema`` and skips the check on entry (see
        :func:`pack_rows_into_pages`); page boundaries are identical.
        """
        return cls(
            name,
            schema,
            pack_rows_into_pages(schema, rows, page_bytes, validated=validated),
            page_bytes,
        )

    def empty_like(self, name: str) -> "Relation":
        """A new empty relation with this relation's schema and page size."""
        return Relation(name, self.schema, [], self.page_bytes)

    # -- shape --------------------------------------------------------------

    @property
    def pages(self) -> List[Page]:
        """The page list (live; mutate via :meth:`append_page`/:meth:`insert`)."""
        return self._pages

    @property
    def page_count(self) -> int:
        """Number of pages."""
        return len(self._pages)

    @property
    def cardinality(self) -> int:
        """Total number of rows."""
        return sum(p.row_count for p in self._pages)

    @property
    def byte_size(self) -> int:
        """Total size as stored: page count times the page byte budget."""
        return self.page_count * self.page_bytes

    @property
    def data_bytes(self) -> int:
        """Bytes of actual record data (excluding page padding/headers)."""
        return self.cardinality * self.schema.record_width

    def __len__(self) -> int:
        return self.cardinality

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, {self.cardinality} rows, "
            f"{self.page_count} pages x {self.page_bytes}B)"
        )

    def packed_pages(self, page_bytes: int) -> List[Page]:
        """Densely packed page images of this relation at ``page_bytes``.

        Cached per page size and shared between callers — the machines
        use these as read-only base-relation images, so every simulator
        built over the same catalog repacks nothing.  **Treat the result
        as immutable**; any mutator on the relation drops the cache.
        """
        cached = self._packed_cache.get(page_bytes)
        if cached is None:
            cached = pack_rows_into_pages(
                self.schema, list(self.rows()), page_bytes, validated=True
            )
            self._packed_cache[page_bytes] = cached
        return cached

    # -- mutation -----------------------------------------------------------

    def append_page(self, page: Page) -> int:
        """Append a prepared page; returns its page number."""
        if page.schema.record_width != self.schema.record_width:
            raise PageError(
                f"page record width {page.schema.record_width} does not match "
                f"relation {self.name!r}"
            )
        self._packed_cache = {}
        self._pages.append(page)
        return len(self._pages) - 1

    def insert(self, row: Row) -> None:
        """Append one row, opening a new page when the last one is full."""
        if self._packed_cache:
            self._packed_cache = {}
        if not self._pages or self._pages[-1].is_full:
            self._pages.append(Page(self.schema, self.page_bytes))
        self._pages[-1].append(row)

    def insert_many(self, rows: Iterable[Row]) -> int:
        """Append many rows; returns how many were inserted.

        The whole batch is checked before any row is stored, so a bad row
        anywhere leaves the relation unchanged.  The page boundaries are
        those of calling :meth:`insert` once per row.
        """
        batch = list(map(tuple, rows))
        self.schema.validate_rows(batch)
        if batch and self._packed_cache:
            self._packed_cache = {}
        fill_pages(self._pages, self.schema, batch, self.page_bytes)
        return len(batch)

    def compact(self) -> None:
        """Repack all rows densely (drops partially-filled interior pages)."""
        self._packed_cache = {}
        self._pages = pack_rows_into_pages(
            self.schema, list(self.rows()), self.page_bytes, validated=True
        )

    # -- access -------------------------------------------------------------

    def rows(self) -> Iterator[Row]:
        """Iterate every row, page by page."""
        for page in self._pages:
            yield from page.rows()

    def page(self, number: int) -> Page:
        """Page ``number``; raises :class:`PageError` when out of range."""
        try:
            return self._pages[number]
        except IndexError:
            raise PageError(
                f"relation {self.name!r} has {self.page_count} pages, no page {number}"
            ) from None

    def row_multiset(self) -> dict:
        """Rows with multiplicities — the canonical value for equality checks."""
        counts: dict = {}
        for row in self.rows():
            counts[row] = counts.get(row, 0) + 1
        return counts

    def same_rows_as(self, other: "Relation") -> bool:
        """Bag-equality of contents (ignores page boundaries and order)."""
        return self.row_multiset() == other.row_multiset()

    def page_table(self, complete: bool = True) -> "PageTable":
        """A :class:`PageTable` naming every current page of this relation."""
        table = PageTable(relation_name=self.name, schema=self.schema)
        for number in range(self.page_count):
            table.add_page(number)
        if complete:
            table.mark_complete()
        return table


@dataclass
class PageTable:
    """An ordered list of page identifiers for one operand relation.

    The machines schedule work from page tables, not from relations: an
    operand's table is *incomplete* while its producer instruction is still
    emitting pages, and page-level granularity enables an instruction as
    soon as the table holds at least one page (Section 3.2).
    """

    relation_name: str
    schema: Schema
    page_numbers: List[int] = field(default_factory=list)
    complete: bool = False

    def add_page(self, page_number: int) -> None:
        """Record that ``page_number`` of the operand now exists."""
        if self.complete:
            raise PageError(
                f"page table for {self.relation_name!r} is complete; cannot grow"
            )
        self.page_numbers.append(page_number)

    def mark_complete(self) -> None:
        """Declare that no further pages will arrive."""
        self.complete = True

    @property
    def page_count(self) -> int:
        """Pages known so far."""
        return len(self.page_numbers)

    @property
    def has_pages(self) -> bool:
        """True when at least one page exists (page-level enabling rule)."""
        return bool(self.page_numbers)

    def __iter__(self) -> Iterator[int]:
        return iter(self.page_numbers)

    def __len__(self) -> int:
        return len(self.page_numbers)
