"""Memory cells: one relational instruction plus operand slots.

"A memory cell contains an instruction and room for the operand data.  As
soon as all the required data is present, the contents of the cell are
sent to some processor for execution."

For relational data-flow, "all the required data" depends on the operand
granularity (Section 3.0):

* relation level — every operand slot complete;
* page level — at least one page in every slot ("an operator can be
  initiated as soon as at least one page of each participating
  relation(s) exists");
* tuple level — same enabling as page level here, since pages are the
  containers our tuples travel in; the difference is per-tuple packet
  accounting, handled by the machine.

A cell does not execute anything itself; it *fires* :class:`FiringUnit`
packets — (page), (outer page x inner page), or (whole relations) — that
the machine routes through the arbitration network to a processor.  When a
firing returns, the cell runs its node's shared kernel from
:mod:`repro.relational.kernels` over the firing's pages.  A join cell's
kernel keeps one equijoin probe per inner page for the cell's life, so a
page that meets many outer pages is probed once; the probes go when the
cell is done.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import MachineError
from repro.relational.kernels import compile_kernel
from repro.relational.page import Page, PageAssembler
from repro.relational.schema import Row, Schema
from repro.query.tree import JoinNode, QueryNode


class OperandSlot:
    """Room for one operand's data: a growing list of pages."""

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        self.pages: List[Page] = []
        self.complete = False

    def deliver(self, page: Page) -> int:
        """A result (or base) page arrives; returns its index in the slot."""
        if self.complete:
            raise MachineError(f"operand slot {self.name!r} grew after completion")
        self.pages.append(page)
        return len(self.pages) - 1

    def finish(self) -> None:
        """No more pages will arrive."""
        self.complete = True

    @property
    def page_count(self) -> int:
        """Pages delivered so far."""
        return len(self.pages)


@dataclass(frozen=True)
class FiringUnit:
    """One enabled instruction instance travelling to a processor.

    ``pages`` holds (slot_index, page_index) pairs naming the operand
    pages this firing consumes; relation-level firings name every page.
    """

    cell: "Cell"
    pages: Tuple[Tuple[int, int], ...]

    @property
    def payload_bytes(self) -> int:
        """Operand bytes this firing pushes through the arbitration network."""
        return sum(
            self.cell.operands[slot].pages[page].used_bytes for slot, page in self.pages
        )

    @property
    def payload_rows(self) -> int:
        """Operand rows carried."""
        return sum(
            self.cell.operands[slot].pages[page].row_count for slot, page in self.pages
        )


class Cell:
    """One memory cell: instruction, operand slots, firing bookkeeping."""

    _ids = itertools.count(1)

    def __init__(
        self,
        node: QueryNode,
        operand_schemas: List[Tuple[str, Schema]],
        output_schema: Schema,
        page_bytes: int,
    ):
        self.cell_id = next(self._ids)
        self.node = node
        self.output_schema = output_schema
        #: Owning query's name, stamped at submit time.  Gives the machine
        #: O(1) cell -> query resolution (span attribution, result routing)
        #: instead of scanning every submitted program.
        self.tree_name = ""
        self.operands = [OperandSlot(name, schema) for name, schema in operand_schemas]
        #: Cells whose slot receives this cell's output: (cell, slot index).
        self.destinations: List[Tuple["Cell", int]] = []
        # Incremental firing cursors: pages below these indices have fired.
        self._emitted_per_slot = [0 for _ in self.operands]
        self._emitted_outer = 0
        self._emitted_inner = 0
        self._relation_fired = False
        self.firings_outstanding = 0
        self.done = False
        self._kernel = compile_kernel(node, [s for _, s in operand_schemas])
        #: Packs this cell's result rows into full pages for distribution.
        self.output = PageAssembler(output_schema, page_bytes)

    # -- enabling -----------------------------------------------------------------

    def enabled(self, granularity: str) -> bool:
        """The Section 3.0 enabling rules."""
        if granularity == "relation":
            return all(slot.complete for slot in self.operands)
        if granularity in ("page", "tuple"):
            return all(slot.page_count > 0 or slot.complete for slot in self.operands)
        raise MachineError(f"unknown granularity {granularity!r}")

    def ready_firings(self, granularity: str) -> List[FiringUnit]:
        """Take every enabled firing that has not fired yet (consuming).

        Generation is incremental — cursors remember what already fired —
        so the cost is proportional to *new* firings, not to the cell's
        whole firing history (essential for large joins).
        """
        if self.done or not self.enabled(granularity):
            return []
        out: List[FiringUnit] = []
        if granularity == "relation":
            if not self._relation_fired:
                self._relation_fired = True
                everything = tuple(
                    (slot_idx, page_idx)
                    for slot_idx, slot in enumerate(self.operands)
                    for page_idx in range(slot.page_count)
                )
                out.append(FiringUnit(self, everything))
            return out
        if isinstance(self.node, JoinNode):
            outer_count = self.operands[0].page_count
            inner_count = self.operands[1].page_count
            # New outer pages meet every inner page...
            for o in range(self._emitted_outer, outer_count):
                for i in range(inner_count):
                    out.append(FiringUnit(self, ((0, o), (1, i))))
            # ...and old outer pages meet only the new inner pages.
            for o in range(self._emitted_outer):
                for i in range(self._emitted_inner, inner_count):
                    out.append(FiringUnit(self, ((0, o), (1, i))))
            self._emitted_outer = outer_count
            self._emitted_inner = inner_count
            return out
        for slot_idx, slot in enumerate(self.operands):
            for page_idx in range(self._emitted_per_slot[slot_idx], slot.page_count):
                out.append(FiringUnit(self, ((slot_idx, page_idx),)))
            self._emitted_per_slot[slot_idx] = slot.page_count
        return out

    def has_unfired(self, granularity: str) -> bool:
        """Non-consuming peek: would :meth:`ready_firings` yield anything?"""
        if self.done or not self.enabled(granularity):
            return False
        if granularity == "relation":
            return not self._relation_fired
        if isinstance(self.node, JoinNode):
            return (
                self._emitted_outer < self.operands[0].page_count
                or self._emitted_inner < self.operands[1].page_count
            )
        return any(
            emitted < slot.page_count
            for emitted, slot in zip(self._emitted_per_slot, self.operands)
        )

    def all_work_fired_and_done(self, granularity: str) -> bool:
        """Every possible firing has fired and returned."""
        if not all(slot.complete for slot in self.operands):
            return False
        if self.firings_outstanding:
            return False
        return not self.has_unfired(granularity)

    # -- execution ------------------------------------------------------------------

    def execute(self, unit: FiringUnit) -> List[Row]:
        """The processor-side computation for one firing (row-exact).

        A join firing meets each of its outer pages with each of its inner
        pages, outer page major: the rows and their order are those of
        nested loops.
        """
        kernel = self._kernel
        out: List[Row] = []
        if isinstance(self.node, JoinNode):
            outer, inner = self.operands[0].pages, self.operands[1].pages
            inner_indices = [p for s, p in unit.pages if s == 1]
            for o in (p for s, p in unit.pages if s == 0):
                for i in inner_indices:
                    out.extend(kernel(outer[o], i, inner[i]))
            return out
        for slot, page in unit.pages:
            out.extend(kernel(self.operands[slot].pages[page]))
        return out

    def retire(self) -> None:
        """Every firing has returned and landed: the cell is done, and a
        join's probes go."""
        self.done = True
        if isinstance(self.node, JoinNode):
            self._kernel.clear()

    def cpu_cost_rows(self, unit: FiringUnit) -> int:
        """Row-operations this firing costs (the time model's input).

        Restrict/project/union: one operation per input row.  Join: one
        comparison per (outer row x inner row) pair.
        """
        if isinstance(self.node, JoinNode):
            outer_rows = sum(
                self.operands[0].pages[p].row_count for s, p in unit.pages if s == 0
            )
            inner_rows = sum(
                self.operands[1].pages[p].row_count for s, p in unit.pages if s == 1
            )
            return outer_rows * inner_rows
        return unit.payload_rows

    def __repr__(self) -> str:
        return f"Cell{self.cell_id}({self.node.opcode}{self.node.node_id})"
