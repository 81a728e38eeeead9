"""Instruction controllers (ICs) — the distributed arbitration network.

Each IC controls the execution of one instruction from a query tree
(Section 4.1).  It:

* keeps a **page table per source operand**, growing as result packets
  arrive from the IPs of producer instructions ("as pages (which may not
  be full) arrive, they are compressed to form full pages");
* holds operand pages in **local memory**, overflowing to its segment of
  the multiport disk cache, which overflows to mass storage — the
  three-level storage hierarchy;
* acquires IPs from the MC, feeds them instruction packets, and releases
  them when the work drains;
* runs the broadcast side of the join protocol: it answers
  ``REQUEST_INNER`` control packets by broadcasting the page to *all* its
  IPs, ignoring duplicate requests for a page whose broadcast is already
  in flight ("subsequent requests for the same page which are received by
  the IC 'soon' afterwards can be ignored").
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import MachineError
from repro.direct.cache import PageRef
from repro.relational.kernels import compile_kernel
from repro.relational.page import Page, PageAssembler
from repro.relational.schema import Row, Schema
from repro.query.tree import JoinNode, ProjectNode, QueryNode, QueryTree, UnionNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.ring.machine import RingMachine
    from repro.ring.processor import InstructionProcessor


class OperandState:
    """Consumer-side page table plus the arriving-row compressor."""

    def __init__(self, name: str, schema: Schema, page_bytes: int):
        self.name = name
        self.schema = schema
        self.pages: List[PageRef] = []
        self.complete = False
        self._arriving = PageAssembler(schema, page_bytes)

    def add_rows(self, rows: List[Row]) -> List[Page]:
        """Compress arriving result rows; return any pages completed."""
        if self.complete:
            raise MachineError(f"operand {self.name!r} received rows after completion")
        return self._arriving.add(rows)

    def finish(self) -> Optional[Page]:
        """Producer done: flush the final partial page, mark complete."""
        self.complete = True
        return self._arriving.flush()

    @property
    def page_count(self) -> int:
        """Pages in the table so far."""
        return len(self.pages)


class InstructionController:
    """One IC and the instruction it controls."""

    def __init__(
        self,
        machine: "RingMachine",
        ic_id: int,
        node: QueryNode,
        tree: QueryTree,
        operand_specs: List[Tuple[str, Schema]],
        result_schema: Schema,
    ):
        self.machine = machine
        self.ic_id = ic_id
        self.node = node
        self.tree = tree
        self.page_bytes = machine.page_bytes
        self.result_schema = result_schema
        #: (consumer ic_id, operand index there); MC sentinel 0 for the root.
        self.destination: Tuple[int, int] = (0, 0)
        self.operands = [
            OperandState(name, schema, machine.page_bytes) for name, schema in operand_specs
        ]

        # Work queues.
        self.unary_pending: Deque[Tuple[int, int]] = deque()
        self.outer_pending: Deque[int] = deque()
        self.inflight_packets = 0

        # IPs.
        self.my_ips: List["InstructionProcessor"] = []
        self.idle_ips: List["InstructionProcessor"] = []
        self.want_outstanding = 0

        # Join broadcast state.  Insertion-ordered dict-as-set: iteration
        # order (should any appear later) never depends on PYTHONHASHSEED.
        self.broadcast_inflight: Dict[int, None] = {}
        self.pending_inner_requests: Dict[int, List["InstructionProcessor"]] = {}

        # Fault tolerance (requirement 5): a watchdog per dispatched unit.
        # Maps ip_id -> (watchdog event, requeue closure).
        self._watchdogs: Dict[int, tuple] = {}

        # Local memory (three-level hierarchy, level 1).
        self._refs_by_key: Dict[str, PageRef] = {}
        self._local: Dict[str, Page] = {}
        self._local_fifo: List[str] = []
        self._overflowing: Dict[str, None] = {}
        #: Pages that arrived by IP->IP direct routing (Section 5 future
        #: work): already positioned at a processor, so their first
        #: dispatch ships a header-only packet.
        self._prepositioned: Dict[str, None] = {}

        # Lifecycle.
        self.done = False
        #: Fail-stop flag (requirement 5): set by an MC-driven failover
        #: teardown.  A dead IC ignores every arriving ring delivery and
        #: storage callback — packets addressed to it fall off the loop.
        self.dead = False
        self._finishing = False
        self._flushes_outstanding = 0
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.rows_emitted_to_consumer = 0

        #: The node's shared kernel.  A join's is shared by this IC's IPs;
        #: its equijoin probes are kept by inner page number until the IC
        #: completes or aborts.
        self.kernel = compile_kernel(node, [op.schema for op in self.operands])
        model = machine.model
        self.unary_cpu_ms: Callable[[int], float] = (
            # Project and union hash every row for duplicate elimination;
            # every other unary instruction is charged as a restrict.
            model.project_cpu_ms
            if isinstance(node, (ProjectNode, UnionNode))
            else model.restrict_cpu_ms
        )

    @property
    def is_join(self) -> bool:
        """True for join instructions (broadcast protocol applies)."""
        return isinstance(self.node, JoinNode)

    @property
    def max_ips(self) -> int:
        """IP cap: the paper has no parallel duplicate-elimination
        algorithm, so project/union run on a single IP."""
        if isinstance(self.node, (ProjectNode, UnionNode)):
            return 1
        return self.machine.max_ips_per_instruction

    # ------------------------------------------------------------------ operand input

    def seed_base_operand(self, operand_index: int, refs: List[PageRef]) -> None:
        """A base-relation operand: its full page table exists at start."""
        if self.dead:
            return
        operand = self.operands[operand_index]
        operand.pages.extend(refs)
        for ref in refs:
            self._refs_by_key[ref.key] = ref
        operand.complete = True
        for i in range(len(refs)):
            self._queue_work(operand_index, i)
        self._after_input_change(operand_index)

    def receive_result_rows(self, operand_index: int, rows: List[Row]) -> None:
        """Rows from a producer's result packet landed here."""
        if self.dead:
            return
        operand = self.operands[operand_index]
        for page in operand.add_rows(rows):
            self._install_intermediate_page(operand_index, page)
        self._after_input_change(operand_index)

    def receive_direct_page(self, operand_index: int, page: Page) -> None:
        """A result page arrived by direct IP->IP routing.

        The page is installed as-is — the compression step of Section 4.2
        is forfeited (partial pages stay partial), which is exactly the
        cost side of the paper's Section 5 tradeoff.
        """
        if self.dead:
            return
        operand = self.operands[operand_index]
        if operand.complete:
            raise MachineError(f"operand {operand.name!r} received a page after completion")
        index = operand.page_count
        ref = PageRef(
            key=f"ic{self.ic_id}.op{operand_index}:{index}",
            nbytes=self.page_bytes,
            payload=page,
            on_disk=False,
            disk_id=(self.ic_id + index) % 2,
            row_count=page.row_count,
        )
        operand.pages.append(ref)
        self._refs_by_key[ref.key] = ref
        self._prepositioned[ref.key] = None
        self._local_store(ref)
        self._queue_work(operand_index, index)
        self._after_input_change(operand_index)

    def take_preposition(self, ref: PageRef) -> bool:
        """Consume the page's pre-positioned status (first dispatch only)."""
        if ref.key in self._prepositioned:
            self._prepositioned.pop(ref.key, None)
            return True
        return False

    def receive_operand_complete(self, operand_index: int) -> None:
        """The producer instruction has finished this operand."""
        if self.dead:
            return
        operand = self.operands[operand_index]
        final = operand.finish()
        if final is not None:
            self._install_intermediate_page(operand_index, final)
        # Join inner completion: answer every request beyond the end.
        if self.is_join and operand_index == 1:
            count = operand.page_count
            for index, ips in list(self.pending_inner_requests.items()):
                if index >= count:
                    del self.pending_inner_requests[index]
                    for ip in ips:
                        self.machine.ic_send_inner_last(self, ip, count)
        self._after_input_change(operand_index)
        self.maybe_complete()

    def _install_intermediate_page(self, operand_index: int, page: Page) -> None:
        operand = self.operands[operand_index]
        index = operand.page_count
        ref = PageRef(
            key=f"ic{self.ic_id}.op{operand_index}:{index}",
            nbytes=self.page_bytes,
            payload=page,
            on_disk=False,
            disk_id=(self.ic_id + index) % 2,
            row_count=page.row_count,
        )
        operand.pages.append(ref)
        self._refs_by_key[ref.key] = ref
        self._local_store(ref)
        self._queue_work(operand_index, index)
        # A fresh inner page satisfies any IPs that asked for it early.
        if self.is_join and operand_index == 1 and index in self.pending_inner_requests:
            del self.pending_inner_requests[index]
            self._broadcast_inner(index)

    def _queue_work(self, operand_index: int, page_index: int) -> None:
        if self.is_join:
            if operand_index == 0:
                self.outer_pending.append(page_index)
        else:
            self.unary_pending.append((operand_index, page_index))

    def _after_input_change(self, operand_index: int) -> None:
        self.request_ips_if_needed()
        self.dispatch_idle_ips()

    # ------------------------------------------------------------------ enablement & IP pool

    def enabled(self) -> bool:
        """Page-level rule: at least one page of each operand (or complete)."""
        return all(op.page_count > 0 or op.complete for op in self.operands)

    def _work_available(self) -> int:
        if self.is_join:
            inner = self.operands[1]
            if inner.page_count == 0 and not inner.complete:
                return 0
            return len(self.outer_pending)
        return len(self.unary_pending)

    def request_ips_if_needed(self) -> None:
        """Ask the MC for processors matching the outstanding work."""
        if self.done or self._finishing or self.dead or not self.enabled():
            return
        desired = min(self.max_ips, self._work_available())
        shortfall = desired - len(self.my_ips) - self.want_outstanding
        if shortfall > 0:
            self.want_outstanding += shortfall
            if self.machine.sim.probe is not None:
                self.machine.sim.probe.decision("ic.request_ips", self.machine.sim.now, shortfall)
            self.machine.ic_request_ips(self, shortfall)

    def grant_ip(self, ip: "InstructionProcessor") -> None:
        """The MC granted one IP (GRANT_IP)."""
        self.want_outstanding = max(0, self.want_outstanding - 1)
        if self.done or self._finishing or self.dead:
            # The instruction wound down while the grant was in flight;
            # bounce the processor straight back to the pool.
            self.machine.ic_release_ip(self, ip)
            return
        ip.assign(self, self.result_schema)
        self.my_ips.append(ip)
        self.idle_ips.append(ip)
        if self.started_at is None:
            self.started_at = self.machine.sim.now
        if self.machine.sim.probe is not None:
            self.machine.sim.probe.decision("ic.grant_ip", self.machine.sim.now)
        self.dispatch_idle_ips()

    def _release_ip(self, ip: "InstructionProcessor") -> None:
        self.my_ips.remove(ip)
        if ip in self.idle_ips:
            self.idle_ips.remove(ip)
        ip.release()
        self.machine.ic_release_ip(self, ip)

    # ------------------------------------------------------------------ dispatch

    def dispatch_idle_ips(self) -> None:
        """Feed every idle IP with the next packet of work."""
        if self.dead:
            return
        sim = self.machine.sim
        while self.idle_ips and self._work_available() > 0:
            ip = self.idle_ips.pop(0)
            kind = "join" if self.is_join else "unary"
            if sim.probe is not None:
                backlog = self._work_available()
                sim.probe.decision("ic.dispatch", sim.now, self.ic_id, kind, ip.ip_id, backlog)
                sim.probe.backlog(self.ic_id, sim.now, backlog)
            if self.is_join:
                self._dispatch_join(ip)
            else:
                self._dispatch_unary(ip)
        # Idle IPs with no work left: release when no more can ever come.
        if not self._finishing:
            self.release_surplus_ips()
        self.maybe_complete()

    def _is_last_work_item(self) -> bool:
        if self.is_join:
            return not self.outer_pending and self.operands[0].complete
        return not self.unary_pending and all(op.complete for op in self.operands)

    def _dispatch_unary(self, ip: "InstructionProcessor") -> None:
        operand_index, page_index = self.unary_pending.popleft()
        operand = self.operands[operand_index]
        ref = operand.pages[page_index]
        flush = self._is_last_work_item()
        self.inflight_packets += 1
        self._arm_watchdog(
            ip,
            self._unit_failure(
                lambda: self.unary_pending.append((operand_index, page_index))
            ),
        )

        header_only = self.take_preposition(ref)

        def have_page(page: Page) -> None:
            self.machine.ic_send_unary_packet(self, ip, page, flush, header_only=header_only)

        self._with_payload(ref, have_page)

    def _dispatch_join(self, ip: "InstructionProcessor") -> None:
        outer_index = self.outer_pending.popleft()
        outer_ref = self.operands[0].pages[outer_index]
        inner = self.operands[1]
        flush = self._is_last_work_item()
        self.inflight_packets += 1
        self._arm_watchdog(
            ip, self._unit_failure(lambda: self.outer_pending.append(outer_index))
        )
        include_inner = 0 if inner.page_count > 0 else None

        header_only = self.take_preposition(outer_ref)

        def have_outer(outer_page: Page) -> None:
            if include_inner is None:
                self.machine.ic_send_join_packet(
                    self, ip, outer_page, outer_index, None, None, flush,
                    outer_header_only=header_only,
                )
                return

            def have_inner(inner_page: Page) -> None:
                self.machine.ic_send_join_packet(
                    self, ip, outer_page, outer_index, inner_page, include_inner, flush,
                    outer_header_only=header_only,
                )

            self._with_payload(inner.pages[include_inner], have_inner)

        self._with_payload(outer_ref, have_outer)

    def release_surplus_ips(self) -> None:
        """Idle IPs whose work supply has permanently dried up go home.

        Also invoked by the MC when other ICs are starving for IPs.
        """
        if self.dead:
            return
        if self._work_available() > 0:
            return
        can_ever_grow = not self._inputs_exhausted()
        if can_ever_grow and not self.machine.mc.has_starving_requests(self):
            return
        while self.idle_ips:
            ip = self.idle_ips.pop(0)
            self.machine.ic_flush_ip(self, ip)
            self._flushes_outstanding += 1
            self._arm_watchdog(ip, self._flush_failure())

    def _inputs_exhausted(self) -> bool:
        if self.is_join:
            return self.operands[0].complete
        return all(op.complete for op in self.operands)

    # ------------------------------------------------------------------ control packets from IPs

    def ip_done(self, ip: "InstructionProcessor") -> None:
        """DONE control packet: the IP finished its current packet."""
        if self.dead:
            return
        self._disarm_watchdog(ip)
        self.inflight_packets = max(0, self.inflight_packets - 1)
        self.idle_ips.append(ip)
        self.dispatch_idle_ips()

    def ip_flush_done(self, ip: "InstructionProcessor") -> None:
        """DONE answering a FLUSH: the IP's buffer is empty; release it."""
        if self.dead:
            return
        self._disarm_watchdog(ip)
        self._flushes_outstanding -= 1
        self._release_ip(ip)
        self.maybe_complete()

    def ip_ready_for_outer(self, ip: "InstructionProcessor") -> None:
        """READY_FOR_OUTER: the IP's IRC vector is complete."""
        if self.dead:
            return
        self._disarm_watchdog(ip)
        self.inflight_packets = max(0, self.inflight_packets - 1)
        self.idle_ips.append(ip)
        self.dispatch_idle_ips()

    def ip_request_inner(self, ip: "InstructionProcessor", index: int) -> None:
        """REQUEST_INNER(i): broadcast page i, or queue, or signal the end."""
        if self.dead:
            return
        inner = self.operands[1]
        if index < inner.page_count:
            decision = "ignored" if index in self.broadcast_inflight else "broadcast"
        elif inner.complete:
            decision = "last"
        else:
            decision = "queued"
        sim = self.machine.sim
        if sim.probe is not None:
            sim.probe.decision("ic.inner_request", sim.now, self.ic_id, ip.ip_id, index, decision)
        if decision == "ignored":
            # "Subsequent requests ... received 'soon' afterwards can
            # be ignored" — the in-flight broadcast will serve it.
            return
        if decision == "broadcast":
            self._broadcast_inner(index)
        elif decision == "last":
            self.machine.ic_send_inner_last(self, ip, inner.page_count)
        else:
            self.pending_inner_requests.setdefault(index, []).append(ip)

    def _broadcast_inner(self, index: int) -> None:
        inner = self.operands[1]
        ref = inner.pages[index]
        self.broadcast_inflight[index] = None
        if self.machine.sim.probe is not None:
            self.machine.sim.probe.decision("ic.broadcast_inner", self.machine.sim.now)
        last_known = inner.page_count if inner.complete else None

        def have_page(page: Page) -> None:
            def delivered() -> None:
                self.broadcast_inflight.pop(index, None)

            self.machine.ic_broadcast_inner(self, index, page, last_known, delivered)

        self._with_payload(ref, have_page)

    # ------------------------------------------------------------------ fault tolerance

    def _arm_watchdog(self, ip: "InstructionProcessor", on_failure: Callable[[], None]) -> None:
        """Watch a dispatched unit (or flush); on a *confirmed* IP failure,
        run the unit's recovery bookkeeping and report the casualty.

        Detection is modeled as reliable fail-stop: the watchdog declares
        death only when the IP really is failed, re-arming otherwise, so a
        merely slow IP can never cause duplicate execution.
        """
        if not self.machine.fault_tolerant:
            return

        def check() -> None:
            current = self._watchdogs.get(ip.ip_id)
            if current is None:
                return
            if ip.failed:
                del self._watchdogs[ip.ip_id]
                if ip in self.my_ips:
                    self.my_ips.remove(ip)
                if ip in self.idle_ips:
                    self.idle_ips.remove(ip)
                on_failure()
                self.machine.report_ip_failure(self, ip)
                self.request_ips_if_needed()
                self.dispatch_idle_ips()
            else:
                event = self.machine.sim.schedule(
                    self.machine.watchdog_interval_ms, check, label=f"ic{self.ic_id}.watchdog"
                )
                self._watchdogs[ip.ip_id] = (event, on_failure)

        event = self.machine.sim.schedule(
            self.machine.watchdog_interval_ms, check, label=f"ic{self.ic_id}.watchdog"
        )
        self._watchdogs[ip.ip_id] = (event, on_failure)

    def _unit_failure(self, requeue: Callable[[], None]) -> Callable[[], None]:
        """Recovery for a lost work unit: un-count it and requeue."""

        def recover() -> None:
            self.inflight_packets = max(0, self.inflight_packets - 1)
            requeue()

        return recover

    def _flush_failure(self) -> Callable[[], None]:
        """Recovery for a lost flush: the buffer died with the IP."""

        def recover() -> None:
            self._flushes_outstanding = max(0, self._flushes_outstanding - 1)
            self.maybe_complete()

        return recover

    def _disarm_watchdog(self, ip: "InstructionProcessor") -> None:
        entry = self._watchdogs.pop(ip.ip_id, None)
        if entry is not None:
            entry[0].cancel()

    def abort(self) -> List["InstructionProcessor"]:
        """MC-driven failover teardown: fail-stop this IC.

        Cancels every watchdog, clears the work queues, aborts each held
        IP's assignment (their buffered results die with the query
        attempt), and marks the IC dead so in-flight ring deliveries and
        storage callbacks addressed to it are dropped on arrival.
        Returns the orphaned, still-healthy IPs for the MC to reclaim.
        """
        self.dead = True
        for entry in self._watchdogs.values():
            entry[0].cancel()
        self._watchdogs.clear()
        orphans = list(self.my_ips)
        for ip in orphans:
            ip.abort_assignment()
        self.my_ips = []
        self.idle_ips = []
        self.unary_pending.clear()
        self.outer_pending.clear()
        self.inflight_packets = 0
        self.want_outstanding = 0
        self.broadcast_inflight = {}
        self.pending_inner_requests = {}
        if self.is_join:
            self.kernel.clear()
        self._flushes_outstanding = 0
        return orphans

    # ------------------------------------------------------------------ completion

    def maybe_complete(self) -> None:
        """Drive the finishing protocol once all work has drained."""
        if self.done or self.dead:
            return
        if not all(op.complete for op in self.operands):
            return
        if self.unary_pending or self.outer_pending or self.inflight_packets:
            return
        self._finishing = True
        # Flush every held IP's result buffer — including IPs that became
        # idle (or were granted) after the finishing phase began.
        for ip in list(self.idle_ips):
            self.idle_ips.remove(ip)
            self.machine.ic_flush_ip(self, ip)
            self._flushes_outstanding += 1
            self._arm_watchdog(ip, self._flush_failure())
        if self._flushes_outstanding or self.my_ips:
            return
        self.done = True
        self.completed_at = self.machine.sim.now
        if self.is_join:
            self.kernel.clear()
        probe = self.machine.sim.probe
        if probe is not None:
            probe.instruction_end(
                self.ic_id,
                f"{self.tree.name}.{self.node.opcode}{self.node.node_id}",
                self.node.opcode,
                self.started_at if self.started_at is not None else self.completed_at,
                self.completed_at,
                self.rows_emitted_to_consumer,
            )
        self.machine.ic_instruction_done(self)

    # ------------------------------------------------------------------ local memory (level 1)

    def _local_store(self, ref: PageRef) -> None:
        if ref.key not in self._local:
            self._local[ref.key] = ref.payload
            self._local_fifo.append(ref.key)
        self._overflow_local()

    def _overflow_local(self) -> None:
        """Write the oldest local pages to the disk-cache segment when the
        IC's memory fills (Section 4.1: "the IC will write the least
        desirable pages to its segment of the multiport disk cache").

        Pages stay readable during the write-out; pages that already have
        a disk or cache copy are simply dropped.
        """
        while len(self._local) - len(self._overflowing) > self.machine.ic_memory_pages:
            key = next(
                (
                    k
                    for k in self._local_fifo
                    if k in self._local and k not in self._overflowing
                ),
                None,
            )
            if key is None:
                return
            self._local_fifo.remove(key)
            ref = self._find_ref(key)
            if ref is None or ref.on_disk or self.machine.cache.is_resident(ref):
                self._local.pop(key, None)
                continue
            self._overflowing[key] = None

            def spilled(k: str = key) -> None:
                self._overflowing.pop(k, None)
                self._local.pop(k, None)

            self.machine.ic_overflow_page(self, ref, spilled)

    def _find_ref(self, key: str) -> Optional[PageRef]:
        return self._refs_by_key.get(key)

    def _with_payload(self, ref: PageRef, use: Callable[[Page], None]) -> None:
        """Run ``use`` with the page's rows, fetching through the storage
        hierarchy (and charging its time/traffic) when not in local memory."""
        payload = self._local.get(ref.key)
        if payload is not None:
            use(payload)
            return
        if ref.payload is None:
            raise MachineError(f"page {ref.key!r} has no payload anywhere")

        def fetched() -> None:
            if self.dead:
                return  # failover tore this IC down while the read ran
            # Bring it (back) into local memory.
            self._local_store(ref)
            use(ref.payload)

        self.machine.ic_fetch_page(self, ref, fetched)

    def __repr__(self) -> str:
        return f"IC{self.ic_id}({self.tree.name}.{self.node.opcode}{self.node.node_id})"
