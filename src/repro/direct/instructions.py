"""Runtime instructions: query-tree nodes compiled for the machine.

Each non-scan node of a query tree becomes one :class:`Instruction` — the
paper's unit of control ("the instruction in each memory cell corresponds
to a node in the query tree").  An instruction owns:

* per-operand page tables that grow as producer instructions emit pages,
* a task queue (the units of work dispatched to processors),
* an output assembler that compresses result rows into full pages
  (Section 4.2: partial pages "are compressed to form full pages").

The join instruction implements the paper's nested-loops discipline: tasks
are *outer* pages; a task consumes every inner page, opportunistically and
out of order (the IRC-vector idea), and parks itself when no unseen inner
page is available yet — freeing its processor instead of blocking it,
which is what prevents pipeline deadlock under small processor pools.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.errors import MachineError
from repro.direct.cache import PageRef
from repro.direct.exec_model import Probe, equijoin_probe, join_pages, probe_join
from repro.relational.page import Page
from repro.relational.schema import Row, Schema
from repro.query.tree import (
    AppendNode,
    DeleteNode,
    JoinNode,
    ProjectNode,
    QueryNode,
    QueryTree,
    RestrictNode,
    UnionNode,
    UpdateNode,
)


@dataclass
class Task:
    """One unit of processor work.

    ``page`` is the input page (unary) or the outer page (join).  Join
    tasks carry the set of inner page keys already joined, so a parked
    task resumes where it left off.
    """

    instruction: "Instruction"
    page: PageRef
    seen_inner: Set[str] = field(default_factory=set)

    @property
    def is_join(self) -> bool:
        """True for join (outer-page) tasks."""
        return isinstance(self.instruction, JoinInstruction)


class OperandTable:
    """Consumer-side page table for one operand (cf. Fig 4.3 source operands)."""

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        self.pages: List[PageRef] = []
        self.complete = False
        self.total_rows = 0

    def add_page(self, ref: PageRef) -> None:
        """A producer delivered one more page of this operand."""
        if self.complete:
            raise MachineError(f"operand {self.name!r} grew after completion")
        self.pages.append(ref)
        self.total_rows += ref.row_count

    def mark_complete(self) -> None:
        """The producer has finished; no further pages will arrive."""
        self.complete = True

    @property
    def page_count(self) -> int:
        """Pages delivered so far."""
        return len(self.pages)


class OutputAssembler:
    """Packs result rows densely into machine pages."""

    def __init__(self, key_prefix: str, schema: Schema, page_bytes: int, disk_ids: int = 2):
        self.key_prefix = key_prefix
        self.schema = schema
        self.page_bytes = page_bytes
        self.disk_ids = disk_ids
        self._buffer: List[Row] = []
        self._page_seq = itertools.count()
        self._capacity = Page(schema, page_bytes).capacity
        self.rows_emitted = 0

    def add_rows(self, rows: List[Row]) -> List[PageRef]:
        """Buffer ``rows``; return any pages completed by them."""
        self._buffer.extend(rows)
        self.rows_emitted += len(rows)
        completed: List[PageRef] = []
        while len(self._buffer) >= self._capacity:
            completed.append(self._make_page(self._buffer[: self._capacity]))
            del self._buffer[: self._capacity]
        return completed

    def flush(self) -> Optional[PageRef]:
        """Emit the final partial page, if any rows remain."""
        if not self._buffer:
            return None
        ref = self._make_page(self._buffer)
        self._buffer = []
        return ref

    def _make_page(self, rows: List[Row]) -> PageRef:
        page = Page(self.schema, self.page_bytes)
        page.extend_unchecked(rows)  # kernel outputs are pre-validated tuples
        seq = next(self._page_seq)
        return PageRef(
            key=f"{self.key_prefix}:{seq}",
            nbytes=self.page_bytes,
            payload=page,
            on_disk=False,
            disk_id=seq % self.disk_ids,
            row_count=page.row_count,
        )


class Instruction:
    """Base runtime instruction.

    Subclasses define task generation and row computation; the machine
    drives fetches, charges time, and calls back into the instruction for
    bookkeeping.
    """

    def __init__(
        self,
        node: QueryNode,
        query: QueryTree,
        output_schema: Schema,
        page_bytes: int,
        disk_ids: int = 2,
    ):
        self.node = node
        self.query = query
        self.output_schema = output_schema
        self.operands: List[OperandTable] = []
        self.consumers: List[Tuple["Instruction", int]] = []
        self.assembler = OutputAssembler(
            f"q{query.query_id}.n{node.node_id}", output_schema, page_bytes, disk_ids
        )
        self.pending: Deque[Task] = deque()
        self.parked: List[Task] = []
        #: Join tasks holding their processor while awaiting broadcast inner
        #: pages: entries are ``(processor, task, timeout_event)``.
        self.waiting: List[tuple] = []
        self.in_flight = 0
        self.assigned_processors = 0
        self.done = False
        self.produced_pages: List[PageRef] = []
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None

    # -- identity ----------------------------------------------------------------

    @property
    def opcode(self) -> str:
        """The node's operator name."""
        return self.node.opcode

    @property
    def label(self) -> str:
        """Stable display/diagnostic name."""
        return f"{self.query.name}.{self.opcode}{self.node.node_id}"

    # -- state transitions --------------------------------------------------------

    def operand_page_arrived(self, operand_index: int, ref: PageRef) -> None:
        """A producer delivered a page into operand ``operand_index``."""
        self.operands[operand_index].add_page(ref)
        self._on_new_input(operand_index, ref)

    def operand_completed(self, operand_index: int) -> None:
        """A producer finished operand ``operand_index``."""
        self.operands[operand_index].mark_complete()
        self._on_operand_complete(operand_index)

    def _on_new_input(self, operand_index: int, ref: PageRef) -> None:
        raise NotImplementedError

    def _on_operand_complete(self, operand_index: int) -> None:
        pass

    # -- dispatch ------------------------------------------------------------------

    def has_dispatchable(self) -> bool:
        """True when a task could be handed to a processor right now."""
        return bool(self.pending) and not self.done

    def pop_task(self) -> Task:
        """Take the next dispatchable task."""
        return self.pending.popleft()

    def park(self, task: Task) -> None:
        """A join task ran out of available inner pages; shelve it."""
        self.parked.append(task)

    def unpark_all(self) -> None:
        """New inner input arrived: parked tasks become dispatchable again."""
        if self.parked:
            self.pending.extend(self.parked)
            self.parked.clear()

    def is_complete(self) -> bool:
        """True when every operand is complete and all work has drained."""
        if self.done:
            return True
        if not all(op.complete for op in self.operands):
            return False
        return (
            not self.pending
            and not self.parked
            and not self.waiting
            and self.in_flight == 0
        )

    def complete(self, now: float) -> None:
        """The instruction has finished all its work at time ``now``."""
        self.done = True
        self.completed_at = now

    # -- consumption of input pages (page lifetime management) ---------------------

    def input_page_consumed(self, ref: PageRef) -> bool:
        """Record one consumption of an input page.

        Returns True when this instruction will never need ``ref`` again
        (the machine may then drop intermediate pages from the cache).
        Unary instructions consume each input page exactly once.
        """
        return True


class RestrictInstruction(Instruction):
    """Restrict: one task per input page."""

    def __init__(self, node: RestrictNode, query, input_schema: Schema, page_bytes: int):
        super().__init__(node, query, input_schema, page_bytes)
        self.operands = [OperandTable("in", input_schema)]
        self.test = node.predicate.compile(input_schema)

    def _on_new_input(self, operand_index: int, ref: PageRef) -> None:
        self.pending.append(Task(self, ref))

    def compute(self, task: Task) -> List[Row]:
        """Rows of the task's page passing the predicate."""
        return [row for row in task.page.payload.rows() if self.test(row)]


class ProjectInstruction(Instruction):
    """Project: attribute cut + (centralized) duplicate elimination.

    Dedup state lives at the instruction, mirroring DIRECT's centralized
    control; the ring machine revisits this (the paper's open problem).
    """

    def __init__(self, node: ProjectNode, query, input_schema: Schema, page_bytes: int):
        out_schema = input_schema.project(node.attributes)
        super().__init__(node, query, out_schema, page_bytes)
        self.operands = [OperandTable("in", input_schema)]
        self.indices = [input_schema.index_of(a) for a in node.attributes]
        self.eliminate_duplicates = node.eliminate_duplicates
        self._seen: Set[Row] = set()

    def _on_new_input(self, operand_index: int, ref: PageRef) -> None:
        self.pending.append(Task(self, ref))

    def compute(self, task: Task) -> List[Row]:
        """Projected (and deduplicated) rows of the task's page."""
        out: List[Row] = []
        for row in task.page.payload.rows():
            cut = tuple(row[i] for i in self.indices)
            if self.eliminate_duplicates:
                if cut in self._seen:
                    continue
                self._seen.add(cut)
            out.append(cut)
        return out


class UnionInstruction(Instruction):
    """Union: pass-through of both operands with duplicate elimination."""

    def __init__(self, node: UnionNode, query, input_schema: Schema, page_bytes: int):
        super().__init__(node, query, input_schema, page_bytes)
        self.operands = [OperandTable("left", input_schema), OperandTable("right", input_schema)]
        self._seen: Set[Row] = set()

    def _on_new_input(self, operand_index: int, ref: PageRef) -> None:
        self.pending.append(Task(self, ref))

    def compute(self, task: Task) -> List[Row]:
        """Task-page rows not yet emitted by either side."""
        out: List[Row] = []
        for row in task.page.payload.rows():
            if row not in self._seen:
                self._seen.add(row)
                out.append(row)
        return out


class AppendInstruction(Instruction):
    """Append: pass the child's rows through toward the target relation.

    The machine installs the target's new content at query completion
    (the shared apply path); this instruction only assembles the rows
    that arrive from the subtree.
    """

    def __init__(self, node: AppendNode, query, input_schema: Schema, page_bytes: int):
        super().__init__(node, query, input_schema, page_bytes)
        self.operands = [OperandTable("in", input_schema)]

    def _on_new_input(self, operand_index: int, ref: PageRef) -> None:
        self.pending.append(Task(self, ref))

    def compute(self, task: Task) -> List[Row]:
        """All rows of the task's page (appends filter nothing)."""
        return list(task.page.payload.rows())


class DeleteInstruction(Instruction):
    """Delete: operand 0 is the target relation itself.

    Rows *failing* the predicate survive; the emitted stream is the
    target's whole new content (the write-result convention shared with
    the ring machine).
    """

    def __init__(self, node: DeleteNode, query, input_schema: Schema, page_bytes: int):
        super().__init__(node, query, input_schema, page_bytes)
        self.operands = [OperandTable("target", input_schema)]
        self.test = node.predicate.compile(input_schema)

    def _on_new_input(self, operand_index: int, ref: PageRef) -> None:
        self.pending.append(Task(self, ref))

    def compute(self, task: Task) -> List[Row]:
        """Rows of the task's page that survive the delete."""
        return [row for row in task.page.payload.rows() if not self.test(row)]


class UpdateInstruction(Instruction):
    """Update: operand 0 is the target relation; matching rows are
    transformed and every row is re-emitted (whole new content)."""

    def __init__(self, node: UpdateNode, query, input_schema: Schema, page_bytes: int):
        super().__init__(node, query, input_schema, page_bytes)
        self.operands = [OperandTable("target", input_schema)]
        self.apply = node.compile_apply(input_schema)

    def _on_new_input(self, operand_index: int, ref: PageRef) -> None:
        self.pending.append(Task(self, ref))

    def compute(self, task: Task) -> List[Row]:
        """Every row of the task's page, transformed where matching."""
        return [self.apply(row) for row in task.page.payload.rows()]


class JoinInstruction(Instruction):
    """Nested-loops join with broadcast inner streaming.

    Operand 0 is the outer relation (tasks), operand 1 the inner
    (streamed).  Each outer page must meet every inner page; the per-task
    ``seen_inner`` set plays the role of the paper's IRC vector.
    """

    def __init__(
        self,
        node: JoinNode,
        query,
        outer_schema: Schema,
        inner_schema: Schema,
        page_bytes: int,
    ):
        out_schema = outer_schema.concat_unique(inner_schema)
        super().__init__(node, query, out_schema, page_bytes)
        self.operands = [
            OperandTable("outer", outer_schema),
            OperandTable("inner", inner_schema),
        ]
        self.condition = node.condition
        self.outer_index = outer_schema.index_of(node.condition.outer_attr)
        self.inner_index = inner_schema.index_of(node.condition.inner_attr)
        self._inner_consumptions: Dict[str, int] = {}
        #: Equijoin probes of the inner pages in use, by page key.  Strict
        #: 2PL keeps a base page unchanged while this instruction reads it.
        self.probes: Dict[str, Probe] = {}

    # -- input flow ---------------------------------------------------------------

    def _on_new_input(self, operand_index: int, ref: PageRef) -> None:
        if operand_index == 0:
            self.pending.append(Task(self, ref))
        else:
            # A new inner page may unblock parked outer tasks.
            self.unpark_all()

    def _on_operand_complete(self, operand_index: int) -> None:
        if operand_index == 1:
            # Inner completion lets parked tasks finish their IRC sweep.
            self.unpark_all()

    def has_dispatchable(self) -> bool:
        if self.done or not self.pending:
            return False
        inner = self.operands[1]
        # An outer task can only make progress if at least one inner page
        # exists or the inner side is known complete (possibly empty).
        return inner.page_count > 0 or inner.complete

    # -- inner streaming -------------------------------------------------------------

    def next_unseen_inner(self, task: Task, cache=None) -> Optional[PageRef]:
        """An available inner page this task has not joined yet, else None.

        When a cache is provided, pages whose delivery is already on the
        interconnect are preferred (join the broadcast for free), then
        cache-resident pages, then anything else — the opportunistic
        out-of-order consumption the paper's IRC vectors enable.
        """
        fallback: Optional[PageRef] = None
        resident: Optional[PageRef] = None
        for ref in self.operands[1].pages:
            if ref.key in task.seen_inner:
                continue
            if cache is None:
                return ref
            if cache.has_inflight(ref):
                return ref
            if resident is None and cache.is_resident(ref):
                resident = ref
            if fallback is None:
                fallback = ref
        return resident if resident is not None else fallback

    def inner_exhausted(self, task: Task) -> bool:
        """True when the task has met every inner page and none can follow."""
        return self.operands[1].complete and self.next_unseen_inner(task) is None

    def compute_pair(self, task: Task, inner_ref: PageRef) -> List[Row]:
        """Join the task's outer page with one inner page (row-exact).

        An equijoin probes the inner page with the probe built the first
        time any task met that page.
        """
        if not self.condition.is_equijoin:
            return join_pages(
                task.page.payload,
                inner_ref.payload,
                self.condition,
                self.outer_index,
                self.inner_index,
            )
        probe = self.probes.get(inner_ref.key)
        if probe is None:
            probe = self.probes[inner_ref.key] = equijoin_probe(
                inner_ref.payload, self.inner_index
            )
        return probe_join(task.page.payload, probe, self.outer_index)

    def inner_page_consumed(self, ref: PageRef) -> bool:
        """Record one outer-task pass over an inner page.

        Returns True once every outer page has met ``ref`` — only then may
        an intermediate inner page be dropped, and its probe with it.
        Before the outer operand completes the requirement is unknown, so
        the answer is False.
        """
        count = self._inner_consumptions.get(ref.key, 0) + 1
        self._inner_consumptions[ref.key] = count
        outer = self.operands[0]
        if outer.complete and count >= outer.page_count:
            self.probes.pop(ref.key, None)
            return True
        return False

    def complete(self, now: float) -> None:
        super().complete(now)
        self.probes.clear()

    def input_page_consumed(self, ref: PageRef) -> bool:
        # Outer pages are consumed exactly once (their task finished).
        return True
