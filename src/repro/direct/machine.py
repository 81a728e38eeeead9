"""The DIRECT-style machine: processors, cache, disks, and the controller.

This is the simulator behind Figure 3.1 (page- vs relation-level
granularity) and Figure 4.2 (bandwidth vs number of processors).  The
machine executes a list of query trees concurrently, moving real pages of
real rows through a three-level storage hierarchy:

    mass storage (IBM 3330 x2)  <->  CCD disk cache  <->  processor memory

Key modeled behaviours:

* **Two memory cells per processor** (the Figure 3.1 configuration): a
  processor executes one instruction packet while the next packet's
  operand page streams into its second cell.
* **Broadcast inner streaming for joins**: concurrent requests for the
  same inner page share one cache-port transaction and one interconnect
  transfer (DIRECT's cross-point switch broadcast).
* **Granularity as policy** (:mod:`repro.direct.scheduler`): page-level
  pipelines intermediate pages to consumers immediately; relation-level
  materializes them (cache pressure then spills them to disk, which is
  precisely the traffic the paper's Section 3.2 experiment exposes).
* **Deadlock-free joins**: an outer-page task that runs out of available
  inner pages parks and releases its processor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro import hw
from repro.errors import MachineError
from repro.direct import traffic as tlevels
from repro.direct.cache import DiskCache, PageRef
from repro.direct.exec_model import ExecModel
from repro.direct.instructions import (
    AppendInstruction,
    DeleteInstruction,
    Instruction,
    JoinInstruction,
    ProjectInstruction,
    RestrictInstruction,
    Task,
    UnionInstruction,
    UpdateInstruction,
)
from repro.direct.scheduler import Granularity, PAGE, pick_instruction
from repro.direct.traffic import TrafficMeter
from repro.host import MachineHost
from repro.relational.catalog import Catalog
from repro.relational.relation import Relation
from repro.query.tree import (
    AppendNode,
    DeleteNode,
    JoinNode,
    ProjectNode,
    QueryNode,
    QueryTree,
    RestrictNode,
    ScanNode,
    UnionNode,
    UpdateNode,
)
from repro.sim.resources import Resource, checked_utilization


class _Processor:
    """One query processor with two memory cells (execute + stage)."""

    __slots__ = ("pid", "executing", "staged", "staged_ready", "busy_ms")

    def __init__(self, pid: int):
        self.pid = pid
        self.executing: Optional[Task] = None
        self.staged: Optional[Task] = None
        self.staged_ready = False
        self.busy_ms = 0.0

    @property
    def can_stage(self) -> bool:
        return self.staged is None

    @property
    def fully_idle(self) -> bool:
        return self.executing is None and self.staged is None


@dataclass
class DirectReport:
    """Everything a run produces: timing, traffic, and actual results."""

    granularity: str
    processors: int
    elapsed_ms: float
    traffic: Dict[str, int]
    interconnect_bytes: int
    disk_bytes: int
    query_times: Dict[str, float]
    results: Dict[str, Relation]
    processor_utilization: float
    events_processed: int

    def bandwidth_mbps(self, levels=None) -> float:
        """Average Mbps across ``levels`` (default: interconnect levels)."""
        if self.elapsed_ms <= 0:
            return 0.0
        if levels is None:
            nbytes = self.interconnect_bytes
        elif isinstance(levels, str):
            nbytes = self.traffic[levels]
        else:
            nbytes = sum(self.traffic[level] for level in levels)
        return nbytes * 8.0 / 1e6 / (self.elapsed_ms / 1000.0)

    @property
    def total_bytes(self) -> int:
        """All bytes moved anywhere in the hierarchy."""
        return sum(self.traffic.values())


class DirectMachine(MachineHost):
    """A configurable DIRECT-style MIMD database machine simulator."""

    def __init__(
        self,
        catalog: Catalog,
        processors: int = 8,
        granularity: Granularity = PAGE,
        model: Optional[ExecModel] = None,
        page_bytes: int = hw.RING_PAGE_BYTES,
        cache_bytes: Optional[int] = None,
        cache_ports: int = 8,
        num_disks: int = hw.NUM_MASS_STORAGE_DRIVES,
        memory_cells: int = hw.MEMORY_CELLS_PER_PROCESSOR,
        join_wait_timeout_ms: float = 100.0,
        ic_buffer_bytes: int = 128 * 1024,
        max_events: int = 5_000_000,
    ):
        if processors < 1:
            raise MachineError("need at least one processor")
        if memory_cells not in (1, 2):
            raise MachineError("memory_cells must be 1 or 2")
        super().__init__(catalog, page_bytes, model, max_events)
        self.granularity = granularity
        self.memory_cells = memory_cells
        self.join_wait_timeout_ms = join_wait_timeout_ms

        self.meter = TrafficMeter()
        self.processors = [_Processor(i) for i in range(processors)]
        if self.sim.spans is not None:
            self.sim.spans.register_capacity("processors", processors)
        self.ports = Resource(self.sim, "cache-ports", capacity=cache_ports)
        self.disks = [
            Resource(self.sim, f"disk{i}", capacity=1) for i in range(num_disks)
        ]

        # The cache must hold at least the pages in flight to/from every
        # processor or allocation can stall the pipeline; clamp with a
        # documented floor (see DESIGN.md section 5).
        floor = (3 * processors + 8) * page_bytes
        requested = cache_bytes if cache_bytes is not None else hw.DEFAULT_CACHE_BYTES
        self.cache_bytes = max(requested, floor)
        self.cache = DiskCache(
            sim=self.sim,
            meter=self.meter,
            model=self.model,
            capacity_frames=self.cache_bytes // page_bytes,
            ports=self.ports,
            disks=self.disks,
        )

        self._instructions: List[Instruction] = []
        #: Result relation per completed query, built as it completes.
        self._results: Dict[str, Relation] = {}
        self._finishing: Dict[int, bool] = {}
        self._pending_writes: Dict[int, int] = {}

        # Controller (IC) local memory: the first level of the paper's
        # three-level hierarchy.  Freshly produced intermediate pages live
        # here; only overflow reaches the shared disk cache.
        self.ic_buffer_pages = max(2, ic_buffer_bytes // page_bytes)
        self._buffered: Dict[str, PageRef] = {}
        self._buffer_fifo: Dict[int, List[str]] = {}
        # Insertion-ordered dict-as-set: any future iteration stays
        # independent of PYTHONHASHSEED.
        self._overflowing: Dict[str, None] = {}
        self._buffer_reads: Dict[str, List[Callable[[], None]]] = {}

    # ------------------------------------------------------------------ setup

    def _accept(self, tree: QueryTree) -> None:
        """Compile ``tree`` into instructions and queue it for execution."""
        tree.validate(self.catalog)
        self._begin_write(tree)
        by_node: Dict[int, Instruction] = {}
        for node in tree.nodes():
            if isinstance(node, ScanNode):
                continue
            instr = self._compile_node(node, tree)
            by_node[node.node_id] = instr
            self._instructions.append(instr)
            self._finishing[id(instr)] = False
            self._pending_writes[id(instr)] = 0
            self._buffer_fifo[id(instr)] = []

            # Wire operands: base relations deliver at start; child
            # instructions register this one as their consumer.
            operand_children = self._operand_children(node)
            for idx, child in enumerate(operand_children):
                if isinstance(child, ScanNode):
                    refs = self._base_pages_of(child.relation_name)
                    self.sim.schedule(
                        0.0,
                        lambda i=instr, x=idx, r=refs: self._deliver_base(i, x, r),
                        label=f"{instr.label}.base{idx}",
                    )
                else:
                    by_node[child.node_id].consumers.append((instr, idx))

        if not by_node:
            raise MachineError(
                f"query {tree.name} compiles to no instructions "
                f"(bare scans are not executable work)"
            )

    def _compile_node(self, node: QueryNode, tree: QueryTree) -> Instruction:
        if isinstance(node, RestrictNode):
            return RestrictInstruction(
                node, tree, node.child.output_schema(self.catalog), self.page_bytes
            )
        if isinstance(node, ProjectNode):
            return ProjectInstruction(
                node, tree, node.child.output_schema(self.catalog), self.page_bytes
            )
        if isinstance(node, JoinNode):
            return JoinInstruction(
                node,
                tree,
                node.outer.output_schema(self.catalog),
                node.inner.output_schema(self.catalog),
                self.page_bytes,
            )
        if isinstance(node, UnionNode):
            return UnionInstruction(
                node, tree, node.children[0].output_schema(self.catalog), self.page_bytes
            )
        if isinstance(node, AppendNode):
            return AppendInstruction(
                node, tree, node.child.output_schema(self.catalog), self.page_bytes
            )
        if isinstance(node, DeleteNode):
            return DeleteInstruction(
                node, tree, self.catalog.get(node.target_relation).schema, self.page_bytes
            )
        if isinstance(node, UpdateNode):
            return UpdateInstruction(
                node, tree, self.catalog.get(node.target_relation).schema, self.page_bytes
            )
        raise MachineError(
            f"the DIRECT simulator does not execute {node.opcode!r} nodes; "
            f"use the reference interpreter or the ring machine"
        )

    def _operand_children(self, node: QueryNode) -> Sequence[QueryNode]:
        """Operand producers for ``node``.

        Childless write roots (delete/update) read the target relation
        itself: synthesize a scan so the standard base-delivery path
        feeds them the target's current pages.
        """
        if isinstance(node, (DeleteNode, UpdateNode)):
            return [ScanNode(node.target_relation)]
        return node.children

    def _deliver_base(self, instr: Instruction, operand_index: int, refs: List[PageRef]) -> None:
        for ref in refs:
            instr.operand_page_arrived(operand_index, ref)
        instr.operand_completed(operand_index)
        if operand_index == 1:
            self._wake_join_waiters(instr)
        self._check_completion(instr)  # empty base relations complete instantly
        self._dispatch()

    # ------------------------------------------------------------------ run

    def run_service(self) -> DirectReport:
        """Drive the machine until the event heap drains, then report.

        The serving layer schedules arrival events that call
        :meth:`submit` mid-run, so no queries need to exist up front;
        every query submitted must still finish before the heap drains.
        """
        self._arm_machine_crash()
        elapsed = self._drain()
        busy = sum(p.busy_ms for p in self.processors)
        utilization = checked_utilization(
            self.sim, busy, elapsed, len(self.processors), "direct.processors"
        )
        self._publish_metrics(elapsed, utilization)
        return DirectReport(
            granularity=self.granularity.key,
            processors=len(self.processors),
            elapsed_ms=elapsed,
            traffic=self.meter.snapshot(),
            interconnect_bytes=self.meter.interconnect_bytes,
            disk_bytes=self.meter.disk_bytes,
            query_times=self._query_times(),
            results={name: self._results[name] for name in self._runs},
            processor_utilization=utilization,
            events_processed=self.sim.events_processed,
        )

    def _publish_metrics(self, elapsed: float, utilization: float) -> None:
        """Summarize the run into the metrics registry (stable names)."""
        metrics = self.sim.metrics
        if not metrics.enabled:
            return
        metrics.set_gauge(
            "machine.processor_utilization", utilization, machine="direct", run=self.sim.run_id
        )
        self._publish_host_metrics("direct", elapsed)

    # ------------------------------------------------------------------ dispatch

    def _dispatch(self) -> None:
        """MC allocation loop: stage tasks onto processors with a free cell."""
        while True:
            proc = self._stageable_processor()
            if proc is None:
                return
            instr = pick_instruction(self._instructions, metrics=self.sim.metrics)
            if instr is None:
                return
            if self.sim.tracer.enabled:
                self.sim.tracer.instant(
                    f"dispatch.{instr.label}",
                    "mc",
                    self.sim.now,
                    "controller",
                    args={"processor": proc.pid},
                )
            task = instr.pop_task()
            instr.in_flight += 1
            instr.assigned_processors += 1
            if instr.started_at is None:
                instr.started_at = self.sim.now
            self._assign(proc, task)

    def _stageable_processor(self) -> Optional[_Processor]:
        # Prefer fully idle processors so work spreads out before
        # double-buffering kicks in.
        for proc in self.processors:
            if proc.fully_idle:
                return proc
        if self.memory_cells >= 2:
            for proc in self.processors:
                if proc.can_stage and proc.executing is not None:
                    return proc
        return None

    def _assign(self, proc: _Processor, task: Task) -> None:
        proc.staged = task
        proc.staged_ready = False
        # Instruction packet: control header through the interconnect.
        self.meter.add(tlevels.CONTROL, self.model.packet_overhead_bytes)

        def fetched() -> None:
            # Operand page lands in the staging memory cell (autonomous
            # transfer; does not occupy the execution unit).
            fill = self.model.proc_read_ms(task.page.nbytes)
            if self.sim.spans is not None:
                # Service time for the query, but not processor busy time:
                # the staging transfer runs beside the execution unit.
                self.sim.spans.record(
                    "service",
                    task.instruction.query.name,
                    self.sim.now,
                    self.sim.now + fill,
                    name="proc.stage",
                )
            self.sim.schedule(
                fill,
                lambda: self._staged_filled(proc),
                label=f"p{proc.pid}.fill",
            )

        self.sim.schedule(
            self.model.dispatch_ms,
            lambda: self._fetch_operand(
                task.page, fetched, query=task.instruction.query.name
            ),
            label=f"p{proc.pid}.dispatch",
        )

    def _fetch_operand(
        self, ref: PageRef, done: Callable[[], None], query: Optional[str] = None
    ) -> None:
        """Deliver an operand page toward a processor.

        Intermediate pages still in controller local memory ship straight
        over the interconnect; everything else goes through the disk
        cache (and mass storage on a miss).  Concurrent requests for a
        buffered page share one transfer, like the cache's broadcast.
        """
        if ref.key in self._buffered:
            waiters = self._buffer_reads.get(ref.key)
            if waiters is not None:
                waiters.append(done)
                return
            self._buffer_reads[ref.key] = [done]

            def delivered() -> None:
                self.meter.add(tlevels.IC_TO_PROC, self.model.packet_bytes(ref.nbytes))
                for cb in self._buffer_reads.pop(ref.key, []):
                    cb()

            if self.sim.spans is not None:
                # The interconnect hop out of controller memory is transit
                # time for the requesting query (sharers that pile onto an
                # in-flight read fall into the queueing residual).
                self.sim.spans.record(
                    "transit",
                    query,
                    self.sim.now,
                    self.sim.now + self.model.ic_latency_ms,
                    name="ic.read",
                )
            self.sim.schedule(self.model.ic_latency_ms, delivered, label="ic.read")
        else:
            spans = self.sim.spans
            if spans is not None and query is not None:
                started = self.sim.now
                inner_done = done

                def cache_fetched() -> None:
                    spans.record("disk", query, started, self.sim.now, name="cache.read")
                    inner_done()

                done = cache_fetched
            self.cache.read_shared(ref, done)

    def _staged_filled(self, proc: _Processor) -> None:
        proc.staged_ready = True
        if proc.executing is None:
            self._promote(proc)

    def _promote(self, proc: _Processor) -> None:
        if proc.staged is None or not proc.staged_ready:
            return
        task = proc.staged
        proc.staged = None
        proc.staged_ready = False
        proc.executing = task
        self._dispatch()  # the staging cell just freed up
        self._execute(proc, task)

    # ------------------------------------------------------------------ execution

    def _execute(self, proc: _Processor, task: Task) -> None:
        if isinstance(task.instruction, JoinInstruction):
            self._join_step(proc, task)
        else:
            self._unary_execute(proc, task)

    def _charge(
        self,
        proc: _Processor,
        delay: float,
        then: Callable[[], None],
        query: Optional[str] = None,
        what: str = "cpu",
    ) -> None:
        if self.sim.tracer.enabled:
            self.sim.tracer.span("cpu", "proc", self.sim.now, delay, f"P{proc.pid}")
        if self.sim.metrics.enabled:
            self.sim.metrics.tally("proc.charge_ms", kind="cpu").observe(delay)
        if self.sim.spans is not None:
            self.sim.spans.record(
                "service", query, self.sim.now, self.sim.now + delay, name=f"proc.{what}"
            )
            self.sim.spans.resource_busy("processors", self.sim.now, delay)

        def done() -> None:
            # Credit busy time when the service interval has actually
            # elapsed, mirroring Resource.stats.busy_time — crediting at
            # schedule time counts work that has not happened yet.
            proc.busy_ms += delay
            then()

        self.sim.schedule(delay, done, label=f"p{proc.pid}.cpu")

    def _unary_execute(self, proc: _Processor, task: Task) -> None:
        instr = task.instruction
        rows_in = task.page.row_count
        cpu = self._unary_cpu_ms(instr, rows_in)
        if self.granularity.tuple_dispatch:
            cpu += rows_in * self.granularity.tuple_dispatch_ms
            self._charge_tuple_traffic(instr, rows_in, task.page)

        def computed() -> None:
            rows_out = instr.compute(task)
            self._emit_rows(proc, instr, rows_out, lambda: self._finish_task(proc, task))

        self._charge(proc, cpu, computed, query=instr.query.name)

    def _unary_cpu_ms(self, instr: Instruction, rows: int) -> float:
        if isinstance(instr, (RestrictInstruction, DeleteInstruction, UpdateInstruction)):
            # Delete/update kernels are a predicate pass over the page,
            # the same work profile as restrict.
            return self.model.restrict_cpu_ms(rows)
        if isinstance(instr, (ProjectInstruction, UnionInstruction, AppendInstruction)):
            return self.model.project_cpu_ms(rows)
        raise MachineError(f"no unary cost model for {type(instr).__name__}")

    def _join_step(self, proc: _Processor, task: Task) -> None:
        instr: JoinInstruction = task.instruction
        inner_ref = instr.next_unseen_inner(task, self.cache)
        if inner_ref is None:
            if instr.inner_exhausted(task):
                self._finish_task(proc, task)
            else:
                self._wait_for_inner(proc, task)
            return

        def inner_delivered() -> None:
            # Inner operand pages of an active join are the hottest re-read
            # set; keep them resident (IC cache-segment behaviour).
            self.cache.protect(inner_ref)
            fill = self.model.proc_read_ms(inner_ref.nbytes)

            def filled() -> None:
                cpu = self.model.join_cpu_ms(task.page.row_count, inner_ref.row_count)
                if self.granularity.tuple_dispatch:
                    pairs = task.page.row_count * inner_ref.row_count
                    cpu += pairs * self.granularity.tuple_dispatch_ms
                    self._charge_pair_traffic(instr, task.page, inner_ref)

                self._charge(
                    proc,
                    cpu,
                    lambda: self._join_pair_done(proc, task, instr, inner_ref),
                    query=instr.query.name,
                )

            if self.sim.tracer.enabled:
                self.sim.tracer.span(
                    "inner-fill", "proc", self.sim.now, fill, f"P{proc.pid}"
                )
            if self.sim.metrics.enabled:
                self.sim.metrics.tally("proc.charge_ms", kind="inner-fill").observe(fill)
            if self.sim.spans is not None:
                self.sim.spans.record(
                    "service",
                    instr.query.name,
                    self.sim.now,
                    self.sim.now + fill,
                    name="proc.fill",
                )
                self.sim.spans.resource_busy("processors", self.sim.now, fill)

            def fill_done() -> None:
                proc.busy_ms += fill
                filled()

            self.sim.schedule(fill, fill_done, label=f"p{proc.pid}.inner-fill")

        self._fetch_operand(inner_ref, inner_delivered, query=instr.query.name)

    def _join_pair_done(
        self, proc: _Processor, task: Task, instr: JoinInstruction, inner_ref: PageRef
    ) -> None:
        """One outer-page x inner-page step has finished its service time."""
        rows = instr.compute_pair(task, inner_ref)
        task.seen_inner.add(inner_ref.key)
        if instr.inner_page_consumed(inner_ref):
            if _is_base(inner_ref):
                self.cache.unprotect(inner_ref)
            else:
                self._drop_intermediate(inner_ref)
        self._emit_rows(proc, instr, rows, lambda: self._join_step(proc, task))

    def _park_task(self, proc: _Processor, task: Task) -> None:
        instr = task.instruction
        instr.park(task)
        instr.in_flight -= 1
        instr.assigned_processors -= 1
        self._release_processor(proc)

    def _wait_for_inner(self, proc: _Processor, task: Task) -> None:
        """Hold the processor awaiting the next broadcast inner page.

        This is the paper's IP behaviour in Section 4.2 (the IP keeps its
        outer page and requests inner pages as they arrive).  The periodic
        timeout releases the processor only when it is actually needed —
        other instructions have dispatchable work and no processor is free
        — so a stalled producer can never deadlock the machine, and a
        merely *slow* producer does not trigger futile repacking.
        """
        instr = task.instruction

        def timed_out() -> None:
            # Yield when this processor is needed: either its own staging
            # cell holds a ready packet, or other instructions have
            # dispatchable work and every processor is occupied.
            staged_behind = proc.staged is not None and proc.staged_ready
            if staged_behind or self._processor_needed():
                instr.waiting = [w for w in instr.waiting if w[1] is not task]
                self._park_task(proc, task)
            else:
                event = self.sim.schedule(
                    self.join_wait_timeout_ms, timed_out, label=f"p{proc.pid}.join-wait"
                )
                instr.waiting = [
                    (p, t, event) if t is task else (p, t, e) for p, t, e in instr.waiting
                ]

        event = self.sim.schedule(
            self.join_wait_timeout_ms, timed_out, label=f"p{proc.pid}.join-wait"
        )
        instr.waiting.append((proc, task, event))

    def _processor_needed(self) -> bool:
        """True when dispatchable work exists but no processor can take it."""
        if not any(i.has_dispatchable() for i in self._instructions):
            return False
        return self._stageable_processor() is None

    def _wake_join_waiters(self, instr: Instruction) -> None:
        """New inner input (or inner completion): resume waiting tasks.

        All woken tasks request the same fresh page, so the shared-read
        dedup in the cache turns the delivery into one broadcast.
        """
        if not isinstance(instr, JoinInstruction) or not instr.waiting:
            return
        waiters, instr.waiting = instr.waiting, []
        for proc, task, event in waiters:
            event.cancel()
            self._join_step(proc, task)

    def _finish_task(self, proc: _Processor, task: Task) -> None:
        instr = task.instruction
        instr.in_flight -= 1
        instr.assigned_processors -= 1
        # "Done" control packet back to the controller.
        self.meter.add(tlevels.CONTROL, self.model.packet_overhead_bytes)
        if instr.input_page_consumed(task.page) and not _is_base(task.page):
            self._drop_intermediate(task.page)
        self._check_completion(instr)
        self._release_processor(proc)

    def _release_processor(self, proc: _Processor) -> None:
        proc.executing = None
        if proc.staged is not None and proc.staged_ready:
            self._promote(proc)
        else:
            self._dispatch()

    # ------------------------------------------------------------------ output

    def _emit_rows(
        self,
        proc: _Processor,
        instr: Instruction,
        rows,
        then: Callable[[], None],
    ) -> None:
        """Push result rows into the assembler; write out completed pages.

        The producing processor pays write time per completed page; the
        cache write and consumer announcement proceed asynchronously.
        """
        completed = instr.assembler.add_rows(rows) if rows else []
        if not completed:
            then()
            return
        write_ms = sum(self.model.proc_write_ms(ref.nbytes) for ref in completed)
        for ref in completed:
            self._write_and_announce(instr, ref)
        self._charge(proc, write_ms, then, query=instr.query.name, what="write")

    def _write_and_announce(self, instr: Instruction, ref: PageRef) -> None:
        if self.granularity.materialize_to_disk:
            self._materialize_page(instr, ref)
            return
        self._pending_writes[id(instr)] += 1

        def placed() -> None:
            self._pending_writes[id(instr)] -= 1
            self.meter.add(tlevels.PROC_TO_IC, self.model.packet_bytes(ref.nbytes))
            self._buffered[ref.key] = ref
            self._buffer_fifo[id(instr)].append(ref.key)
            instr.produced_pages.append(ref)
            self._stage_write_rows(instr, ref)
            self._overflow_buffer(instr)
            if self.granularity.pipeline:
                self._announce_page(instr, ref)
            self._check_completion(instr)
            self._dispatch()

        self.sim.schedule(self.model.ic_latency_ms, placed, label="ic.place")

    def _materialize_page(self, instr: Instruction, ref: PageRef) -> None:
        """Relation-level output path: stage the page on mass storage.

        The page crosses the interconnect to the cache and is written
        through to disk; the consumer (enabled only at producer
        completion) reads it back through the cache later.
        """
        self._pending_writes[id(instr)] += 1

        def to_disk() -> None:
            self.meter.add(tlevels.PROC_TO_CACHE, self.model.packet_bytes(ref.nbytes))
            disk = self.disks[ref.disk_id % len(self.disks)]

            def written() -> None:
                self.meter.add(tlevels.CACHE_TO_DISK, ref.nbytes)
                ref.on_disk = True
                self._pending_writes[id(instr)] -= 1
                instr.produced_pages.append(ref)
                self._stage_write_rows(instr, ref)
                self._check_completion(instr)
                self._dispatch()

            disk.submit(self.model.disk_ms(ref.nbytes), written, nbytes=ref.nbytes)

        self.ports.submit(self.model.cache_port_ms(ref.nbytes), to_disk, nbytes=ref.nbytes)

    def _stage_write_rows(self, instr: Instruction, ref: PageRef) -> None:
        """WAL-stage a write root's freshly produced page.

        Only the root of a write query stages (its output *is* the
        target's new content); a crash mid-run therefore leaves genuine
        partial writes in the log for the undo phase to erase.
        """
        if instr.consumers or ref.payload is None:
            return
        txn = self._write_txns.get(instr.query.name)
        if txn is not None:
            self.txn.stage_rows(txn, list(ref.payload.rows()))

    def _overflow_buffer(self, instr: Instruction) -> None:
        """Push the oldest unconsumed pages out to the disk cache when the
        controller's local memory fills (Section 4.1: 'when the local
        memory of an IC fills, the IC will write the least desirable
        pages to its segment of the multiport disk cache')."""
        fifo = self._buffer_fifo[id(instr)]
        live = [k for k in fifo if k in self._buffered and k not in self._overflowing]
        excess = len(live) - self.ic_buffer_pages
        for key in live[: max(0, excess)]:
            ref = self._buffered[key]
            self._overflowing[key] = None

            def spilled(r=ref, k=key) -> None:
                # Readable from the cache now; release the buffer slot.
                self._overflowing.pop(k, None)
                self._buffered.pop(k, None)

            self.cache.write_page(ref, spilled, dirty=True)
        if excess > 0:
            self._buffer_fifo[id(instr)] = [k for k in fifo if k in self._buffered]

    def _announce_page(self, instr: Instruction, ref: PageRef) -> None:
        for consumer, operand_index in instr.consumers:
            consumer.operand_page_arrived(operand_index, ref)
            if operand_index == 1:
                self._wake_join_waiters(consumer)
        self._dispatch()

    # ------------------------------------------------------------------ completion

    def _check_completion(self, instr: Instruction) -> None:
        if instr.done or self._finishing[id(instr)]:
            return
        if self._pending_writes[id(instr)] != 0 or not instr.is_complete():
            return
        self._finishing[id(instr)] = True
        final = instr.assembler.flush()
        if final is None:
            self._complete(instr)
            return

        def written() -> None:
            self._pending_writes[id(instr)] -= 1
            instr.produced_pages.append(final)
            self._stage_write_rows(instr, final)
            if self.granularity.pipeline:
                self._announce_page(instr, final)
            self._complete(instr)

        self._pending_writes[id(instr)] += 1
        self.cache.write_page(final, written, dirty=True)

    def _complete(self, instr: Instruction) -> None:
        instr.done = True
        instr.completed_at = self.sim.now
        if not self.granularity.pipeline:
            # Relation-level: the operand becomes visible all at once now.
            for ref in instr.produced_pages:
                for consumer, operand_index in instr.consumers:
                    consumer.operand_page_arrived(operand_index, ref)
        for consumer, operand_index in instr.consumers:
            consumer.operand_completed(operand_index)
            if operand_index == 1:
                self._wake_join_waiters(consumer)
            self._check_completion(consumer)  # consumer may be trivially done
        if not instr.consumers:
            self._finish_query(instr)
        self._dispatch()

    def _finish_query(self, instr: Instruction) -> None:
        name = instr.query.name
        node = instr.query.root
        if isinstance(node, (AppendNode, DeleteNode, UpdateNode)):
            produced = [
                row
                for ref in instr.produced_pages
                if ref.payload is not None
                for row in ref.payload.rows()
            ]
            rows = self._commit_write(name, node, produced)
            # Write queries report the target's whole new content (the
            # convention shared with the ring machine and interpreter).
            result = Relation.from_rows(
                f"{name}.result", instr.output_schema, rows, self.page_bytes, validated=True
            )
            result_rows = len(rows)
        else:
            result = Relation(f"{name}.result", instr.output_schema, page_bytes=self.page_bytes)
            for ref in instr.produced_pages:
                result.append_page(ref.payload)
            result_rows = instr.assembler.rows_emitted
        self._results[name] = result
        # The host drains the result; its pages leave the machine.
        for ref in instr.produced_pages:
            self._drop_intermediate(ref)
        self._complete_query(name, result_rows)

    def _drop_intermediate(self, ref: PageRef) -> None:
        """An intermediate page will never be read again: free its slot
        wherever it lives (controller memory, cache, or nowhere)."""
        if ref.key in self._overflowing:
            # Mid-spill; let the spill finish, then the cache owns it.
            self.cache.discard(ref)
            return
        if self._buffered.pop(ref.key, None) is None:
            self.cache.discard(ref)

    # ------------------------------------------------------------------ tuple-level accounting

    def _charge_tuple_traffic(self, instr: Instruction, rows: int, page: PageRef) -> None:
        """Per-tuple packet bytes a tuple-granularity dispatch would add."""
        width = _record_width(page)
        per_tuple = width + self.model.packet_overhead_bytes
        self.meter.add(tlevels.CONTROL, rows * per_tuple)

    def _charge_pair_traffic(self, instr: JoinInstruction, outer: PageRef, inner: PageRef) -> None:
        """Section 3.3's n*m*(w_o + w_i + c) bytes for one page pair."""
        pairs = outer.row_count * inner.row_count
        per_pair = (
            _record_width(outer) + _record_width(inner) + self.model.packet_overhead_bytes
        )
        self.meter.add(tlevels.CONTROL, pairs * per_pair)


def _is_base(ref: PageRef) -> bool:
    return ref.key.startswith("base:")


def _record_width(ref: PageRef) -> int:
    if ref.payload is None or ref.payload.row_count == 0:
        return 8
    return ref.payload.schema.record_width


def run_benchmark(
    catalog: Catalog,
    queries: Sequence[QueryTree],
    processors: int,
    granularity: Granularity = PAGE,
    **machine_kwargs,
) -> DirectReport:
    """Build a machine, submit ``queries`` simultaneously, run, report."""
    machine = DirectMachine(
        catalog, processors=processors, granularity=granularity, **machine_kwargs
    )
    for tree in queries:
        machine.submit(tree)
    return machine.run()
