"""Runtime instructions: query-tree nodes compiled for the machine.

Each non-scan node of a query tree becomes one :class:`Instruction` — the
paper's unit of control ("the instruction in each memory cell corresponds
to a node in the query tree").  An instruction owns:

* per-operand page tables that grow as producer instructions emit pages,
* a task queue (the units of work dispatched to processors),
* its node's shared kernel from :mod:`repro.relational.kernels`, which
  computes the rows,
* a :class:`~repro.relational.page.PageAssembler` that compresses result
  rows into full pages (Section 4.2: partial pages "are compressed to
  form full pages"); the instruction only names each page (key, disk).

:class:`UnaryInstruction` runs restrict, project, union, append, delete
and update: one task per input page.  The join instruction implements the
paper's nested-loops discipline: tasks are *outer* pages; a task consumes
every inner page, opportunistically and out of order (the IRC-vector
idea), and parks itself when no unseen inner page is available yet —
freeing its processor instead of blocking it, which is what prevents
pipeline deadlock under small processor pools.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.errors import MachineError
from repro.direct.cache import PageRef
from repro.relational.kernels import JoinPairKernel, PageKernel, compile_kernel
from repro.relational.page import Page, PageAssembler
from repro.relational.schema import Row, Schema
from repro.query.tree import JoinNode, ProjectNode, QueryNode, QueryTree


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


class OperandTable:
    """Consumer-side page table for one operand (cf. Fig 4.3 source operands)."""

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        self.pages: List[PageRef] = []
        self.complete = False

    def add_page(self, ref: PageRef) -> None:
        """A producer delivered one more page of this operand."""
        if self.complete:
            raise MachineError(f"operand {self.name!r} grew after completion")
        self.pages.append(ref)

    def mark_complete(self) -> None:
        """The producer has finished; no further pages will arrive."""
        self.complete = True

    @property
    def page_count(self) -> int:
        """Pages delivered so far."""
        return len(self.pages)


class Instruction:
    """Base runtime instruction.

    Subclasses define task generation; the machine drives fetches, charges
    time, runs the kernel, and calls back into the instruction for
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
        self._output = PageAssembler(output_schema, page_bytes)
        self._key_prefix = f"q{query.query_id}.n{node.node_id}"
        self._page_seq = itertools.count()
        self._disk_ids = disk_ids
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

    # -- output ----------------------------------------------------------------------

    def emit(self, rows: List[Row]) -> List[PageRef]:
        """Buffer result ``rows``; return the full pages they complete."""
        return [self._name(page) for page in self._output.add(rows)]

    def flush(self) -> Optional[PageRef]:
        """The final partial result page, if any rows remain."""
        page = self._output.flush()
        return None if page is None else self._name(page)

    def _name(self, page: Page) -> PageRef:
        seq = next(self._page_seq)
        return PageRef(
            key=f"{self._key_prefix}:{seq}",
            nbytes=page.page_bytes,
            payload=page,
            on_disk=False,
            disk_id=seq % self._disk_ids,
            row_count=page.row_count,
        )


#: Operand table names of the unary instructions; the rest read one "in".
_OPERAND_NAMES = {"union": ("left", "right"), "delete": ("target",), "update": ("target",)}


class UnaryInstruction(Instruction):
    """Restrict, project, union, append, delete or update: one task per
    input page, whose rows the node's shared page kernel computes.

    Delete and update read the target relation itself as their operand:
    the emitted stream is the target's whole new content (the
    write-result convention shared with the other machines).  Project and
    union eliminate duplicates at the instruction, mirroring DIRECT's
    centralized control; the ring machine revisits this (the paper's open
    problem).
    """

    def __init__(self, node: QueryNode, query: QueryTree, input_schema: Schema, page_bytes: int):
        output_schema = (
            input_schema.project(node.attributes)
            if isinstance(node, ProjectNode)
            else input_schema
        )
        super().__init__(node, query, output_schema, page_bytes)
        names = _OPERAND_NAMES.get(node.opcode, ("in",))
        self.operands = [OperandTable(name, input_schema) for name in names]
        self.kernel: PageKernel = compile_kernel(node, [input_schema] * len(names))

    def _on_new_input(self, operand_index: int, ref: PageRef) -> None:
        self.pending.append(Task(self, ref))


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
        self._inner_consumptions: Dict[str, int] = {}
        #: The shared join-pair kernel; its equijoin probes are kept by
        #: inner page key.  Strict 2PL keeps a base page unchanged while
        #: this instruction reads it.
        self.kernel: JoinPairKernel = compile_kernel(node, [outer_schema, inner_schema])

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
            self.kernel.forget(ref.key)
            return True
        return False

    def complete(self, now: float) -> None:
        super().complete(now)
        self.kernel.clear()
