"""The assembled ring machine (Figure 4.1) and its run report.

The machine wires the six components together and mediates every message
through the two rings so timing and byte accounting are centralized:

* **inner ring** (1-2 Mbps): MC <-> IC control traffic — instruction
  distribution, IP requests/grants/releases, completion notices;
* **outer ring** (40 Mbps TTL default): IC <-> IP instruction packets,
  result packets, join broadcasts, and IP control packets; also carries
  producer-IC -> consumer-IC operand-completion notices so completion
  cannot overtake result data (the ring is FIFO);
* **multiport disk cache + mass storage**: reused from
  :mod:`repro.direct.cache` — ICs fetch base pages and spill local-memory
  overflow through it.

Wire sizes follow the Figure 4.3-4.5 formats via the analytic helpers in
:mod:`repro.ring.packets` (equal to ``len(packet.encode())``, tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import hw
from repro.errors import FaultError, MachineError
from repro.direct.cache import DiskCache, PageRef
from repro.direct.exec_model import ExecModel
from repro.direct.traffic import TrafficMeter
from repro.host import MachineHost, QueryRun
from repro.relational.catalog import Catalog
from repro.relational.page import Page
from repro.relational.relation import Relation
from repro.relational.schema import Row, Schema
from repro.query.tree import (
    AppendNode,
    DeleteNode,
    QueryNode,
    QueryTree,
    ScanNode,
    UpdateNode,
)
from repro.ring.concurrency import LockRequest
from repro.ring.controller import InstructionController
from repro.ring.master import MasterController
from repro.ring.network import Ring
from repro.ring.packets import (
    CONTROL_PACKET_BYTES,
    instruction_packet_bytes,
    result_packet_bytes,
)
from repro.ring.processor import InstructionProcessor
from repro.sim.resources import Resource, checked_utilization

#: Destination id of the master controller / host.
MC_ID = 0


@dataclass
class RingReport:
    """Outcome of one ring-machine run."""

    processors: int
    controllers: int
    elapsed_ms: float
    query_times: Dict[str, float]
    results: Dict[str, Relation]
    outer_ring_bytes: int
    inner_ring_bytes: int
    outer_ring_mbps: float
    inner_ring_mbps: float
    outer_ring_utilization: float
    broadcasts: int
    traffic: Dict[str, int]
    ip_utilization: float
    events_processed: int
    queries_admitted: int


class RingMachine(MachineHost):
    """The Section 4 data-flow database machine, ready to run query trees."""

    def __init__(
        self,
        catalog: Catalog,
        processors: int = 16,
        controllers: int = 16,
        page_bytes: int = hw.RING_PAGE_BYTES,
        model: Optional[ExecModel] = None,
        outer_ring: hw.RingModel = hw.OUTER_RING_TTL,
        inner_ring: hw.RingModel = hw.INNER_RING,
        cache_bytes: int = hw.DEFAULT_CACHE_BYTES,
        ic_memory_pages: int = 32,
        max_ips_per_instruction: int = 1_000_000,
        direct_ip_routing: bool = False,
        fault_tolerant: bool = False,
        watchdog_interval_ms: float = 500.0,
        max_events: int = 5_000_000,
    ):
        if processors < 1 or controllers < 1:
            raise MachineError("need at least one IP and one IC")
        super().__init__(catalog, page_bytes, model, max_events)
        self.ic_memory_pages = ic_memory_pages
        self.max_ips_per_instruction = max_ips_per_instruction
        self.direct_ip_routing = direct_ip_routing
        self.fault_tolerant = fault_tolerant
        self.watchdog_interval_ms = watchdog_interval_ms
        self.total_ics = controllers
        self.failed_ips: List[int] = []

        self.meter = TrafficMeter()
        self.outer_ring = Ring(self.sim, outer_ring, "outer-ring")
        self.inner_ring = Ring(self.sim, inner_ring, "inner-ring")
        self.ports = Resource(self.sim, "cache-ports", capacity=min(8, controllers))
        self.disks = [
            Resource(self.sim, f"disk{i}", capacity=1)
            for i in range(hw.NUM_MASS_STORAGE_DRIVES)
        ]
        self.cache = DiskCache(
            sim=self.sim,
            meter=self.meter,
            model=self.model,
            capacity_frames=max(16, cache_bytes // page_bytes),
            ports=self.ports,
            disks=self.disks,
        )

        self.mc = MasterController(self)
        self.ips = [InstructionProcessor(self, i + 1) for i in range(processors)]
        self.mc.free_ips.extend(self.ips)
        if self.sim.spans is not None:
            # IPs are not a Resource; declare their pooled capacity so the
            # time-series can normalize their busy integral.
            self.sim.spans.register_capacity("ips", processors)

        self._free_ic_ids: List[int] = list(range(1, controllers + 1))
        self._ics: Dict[int, InstructionController] = {}
        self._query_rows: Dict[str, List[Row]] = {}
        #: IC failovers taken so far, per query name (bounded by the
        #: plan's ``max_failovers``).
        self._failovers: Dict[str, int] = {}
        #: Aborted attempts per write query (upgrade refusals), for the
        #: serve layer's abort/retry percentiles.
        self.write_aborts: Dict[str, int] = {}
        #: Write queries that must demand X at admission (their optimistic
        #: S-then-upgrade attempt was refused once).
        self._force_exclusive: Dict[str, None] = {}

    # ------------------------------------------------------------------ host API

    def _accept(self, tree: QueryTree) -> None:
        """Hand a query to the MC's queue (validated against the catalog)."""
        tree.validate(self.catalog)
        self.mc.enqueue(tree)
        self.sim.schedule(0.0, self.mc.try_admit, label="mc.admit")

    def lock_request_for(self, tree: QueryTree) -> LockRequest:
        """The lock set the MC demands for ``tree`` at admission.

        With durable transactions armed, single-operator delete/update
        queries admit *optimistically* with S on their target (readers
        keep flowing) and upgrade to X at commit; a refused upgrade
        aborts the attempt and re-queues the query with X demanded here.
        Without a transaction manager this is exactly
        :meth:`LockRequest.for_tree` — the pre-WAL behavior.
        """
        root = tree.root
        if (
            self.txn is not None
            and isinstance(root, (DeleteNode, UpdateNode))
            and tree.name not in self._force_exclusive
        ):
            return LockRequest(
                query_name=tree.name,
                shared=frozenset([root.target_relation]),
                exclusive=frozenset(),
            )
        return LockRequest.for_tree(tree)

    def schedule_ip_failure(self, ip_id: int, at_ms: float) -> None:
        """Disable IP ``ip_id`` at simulated time ``at_ms`` (fail-stop).

        Requires ``fault_tolerant=True`` — without watchdogs a failure
        would simply hang the run.
        """
        if not self.fault_tolerant:
            raise MachineError("schedule_ip_failure needs fault_tolerant=True")
        target = next((ip for ip in self.ips if ip.ip_id == ip_id), None)
        if target is None:
            raise MachineError(f"no IP {ip_id}")

        def fail_now() -> None:
            if target.failed:
                return
            target.fail()
            self.failed_ips.append(target.ip_id)
            inj = self.sim.faults
            if inj is not None:
                inj.count("ip.kill", f"ip{target.ip_id}")
            # A pool-resident or idle-held casualty is culled immediately;
            # a busy one is discovered by its IC's watchdog.
            if target in self.mc.free_ips:
                self.mc.free_ips.remove(target)

        self.sim.schedule_at(at_ms, fail_now, label=f"fail-ip{ip_id}")

    def report_ip_failure(self, ic, ip: InstructionProcessor) -> None:
        """An IC's watchdog confirmed a dead IP; tell the MC (inner ring)."""

        def mc_notified() -> None:
            if ip in self.mc.free_ips:
                self.mc.free_ips.remove(ip)
            self.mc.grant_loop()

        self.inner_ring.send(CONTROL_PACKET_BYTES, mc_notified, query=ic.tree.name)

    # ------------------------------------------------------------------ fault arming

    def _arm_faults(self) -> None:
        """Resolve the bound fault plan into scheduled machine faults.

        Called once at the top of :meth:`run`.  IP kills come from the
        plan's explicit ``kills`` schedule plus per-IP seeded draws at
        ``rate`` (always leaving at least one survivor so the run can
        finish).  Both kill classes require ``fault_tolerant=True``:
        without watchdog recovery (IPs) or MC failover (ICs) an armed
        kill could only hang the simulation, which is a plan
        misconfiguration, not a survivable fault.
        """
        inj = self.sim.faults
        if inj is None:
            return
        needs_ft = [
            spec.kind
            for spec in inj.plan.specs
            if spec.armed and spec.kind in ("ip_kill", "ic_failure")
        ]
        if needs_ft and not self.fault_tolerant:
            raise FaultError(
                f"fault plan arms {sorted(set(needs_ft))} but the ring machine "
                "was built with fault_tolerant=False"
            )
        self._arm_machine_crash()
        kill_spec = inj.armed_spec("ip_kill")
        if kill_spec is None:
            return
        planned: Dict[int, None] = {}
        for ip_id, at_ms in kill_spec.kills:
            self.schedule_ip_failure(ip_id, at_ms)
            planned[ip_id] = None
        if kill_spec.rate > 0:
            for ip in self.ips:
                if len(self.ips) - len(planned) <= 1:
                    break  # someone has to survive to finish the queries
                if ip.ip_id in planned:
                    continue
                site = f"ip{ip.ip_id}"
                if inj.decide("ip_kill", site, kill_spec.rate):
                    at_ms = inj.uniform("ip_kill", site, 0.0, kill_spec.window_ms)
                    self.schedule_ip_failure(ip.ip_id, at_ms)
                    planned[ip.ip_id] = None

    def _maybe_arm_ic_failure(self, tree: QueryTree, first_ic: InstructionController) -> None:
        """Draw (per activation) whether this query attempt loses an IC."""
        inj = self.sim.faults
        if inj is None:
            return
        spec = inj.armed_spec("ic_failure", tree.name)
        if spec is None or spec.rate <= 0:
            return
        if self._failovers.get(tree.name, 0) >= spec.max_failovers:
            return
        if not inj.decide("ic_failure", tree.name, spec.rate):
            return
        self.sim.schedule(
            spec.at_ms,
            lambda: self._fail_ic(first_ic.ic_id, first_ic, tree),
            label=f"fault.ic{first_ic.ic_id}",
        )

    def _fail_ic(self, ic_id: int, victim: InstructionController, tree: QueryTree) -> None:
        """An IC fail-stops: MC-driven failover (requirement 5).

        The MC still holds the query's locks and its tree, so recovery is
        a teardown of the whole instruction queue — every sibling IC is
        aborted, their IPs reclaimed, partial results discarded — followed
        by a fresh :meth:`activate_query`.  Identity is checked first: if
        the victim already finished (or a previous failover replaced it),
        the scheduled strike misses.
        """
        inj = self.sim.faults
        if self._ics.get(ic_id) is not victim or victim.done or victim.dead:
            if inj is not None:
                inj.count("ic.kill_missed", tree.name)
            return
        if inj is not None:
            inj.count("ic.failure", f"ic{ic_id}")
        self._failovers[tree.name] = self._failovers.get(tree.name, 0) + 1
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(
                f"ic{ic_id}.failover", "fault", self.sim.now, "faults",
                args={"query": tree.name},
            )
        orphans: List[InstructionProcessor] = []
        for other in [x for x in self._ics.values() if x.tree is tree]:
            orphans.extend(other.abort())
            self.mc.cancel_wants(other)
            del self._ics[other.ic_id]
            self._free_ic_ids.append(other.ic_id)
        self._query_rows.pop(tree.name, None)
        txn = self._write_txns.pop(tree.name, None)
        if txn is not None:
            # Partial staged pages are real logged writes; roll them back
            # (CLR chain) before the fresh attempt begins a new txn.
            self.txn.abort(txn)
        if inj is not None:
            inj.count("ic.failover", tree.name)
        # Locks are still held and the admission slot is still consumed:
        # rebuild the tree's ICs and reseed its base operands.
        self.activate_query(tree)
        for ip in orphans:
            if not ip.failed:
                self.mc.add_free_ip(ip)

    def run_service(self) -> RingReport:
        """Drive the machine until the event heap drains, then report.

        Unlike :meth:`run` this does not require queries up front: a
        serving layer schedules arrival events that call :meth:`submit`
        mid-run.  Every submitted query must still finish before the heap
        drains (the serve layer guarantees quiescence by draining its
        admission queue before the horizon closes).
        """
        self._arm_faults()
        elapsed = self._drain()
        busy = sum(ip.busy_ms for ip in self.ips)
        util = checked_utilization(self.sim, busy, elapsed, len(self.ips), "ring.ips")
        self._publish_metrics(elapsed, util)
        return RingReport(
            processors=len(self.ips),
            controllers=self.total_ics,
            elapsed_ms=elapsed,
            query_times=self._query_times(),
            results={name: self._result_relation(r) for name, r in self._runs.items()},
            outer_ring_bytes=self.outer_ring.bytes_carried,
            inner_ring_bytes=self.inner_ring.bytes_carried,
            outer_ring_mbps=self.outer_ring.offered_mbps(elapsed),
            inner_ring_mbps=self.inner_ring.offered_mbps(elapsed),
            outer_ring_utilization=self.outer_ring.utilization(elapsed),
            broadcasts=self.outer_ring.broadcasts,
            traffic=self.meter.snapshot(),
            ip_utilization=util,
            events_processed=self.sim.events_processed,
            queries_admitted=self.mc.queries_admitted,
        )

    def _publish_metrics(self, elapsed: float, ip_utilization: float) -> None:
        """Summarize the run into the metrics registry (stable names)."""
        metrics = self.sim.metrics
        if not metrics.enabled:
            return
        rid = self.sim.run_id
        for ring in (self.outer_ring, self.inner_ring):
            metrics.set_gauge(
                "ring.offered_mbps", ring.offered_mbps(elapsed), ring=ring.name, run=rid
            )
            metrics.set_gauge(
                "ring.utilization", ring.utilization(elapsed), ring=ring.name, run=rid
            )
            metrics.set_gauge("ring.peak_queue", ring.peak_queue, ring=ring.name, run=rid)
            metrics.set_gauge(
                "ring.mean_queue_wait_ms", ring.mean_queue_wait_ms, ring=ring.name, run=rid
            )
        metrics.set_gauge("machine.ip_utilization", ip_utilization, machine="ring", run=rid)
        self._publish_host_metrics("ring", elapsed)

    def _result_relation(self, run: QueryRun) -> Relation:
        root = run.tree.root
        schema = root.output_schema(self.catalog)
        out = Relation(f"{run.tree.name}.result", schema, page_bytes=self.page_bytes)
        # Result shipping, not base data: this relation is born and dies
        # with the answer, so there is nothing for the WAL to recover.
        out.insert_many(self._query_rows.get(run.tree.name, []))  # repro: allow[R011]
        return out

    # ------------------------------------------------------------------ activation

    def free_ic_count(self) -> int:
        """ICs currently unassigned."""
        return len(self._free_ic_ids)

    def ic_by_id(self, ic_id: int) -> Optional[InstructionController]:
        """Resolve an IC id (None once freed)."""
        return self._ics.get(ic_id)

    def active_ics(self) -> List[InstructionController]:
        """ICs currently controlling instructions."""
        return list(self._ics.values())

    def activate_query(self, tree: QueryTree) -> None:
        """MC admission: build one IC per operator node and seed leaves."""
        self._begin_write(tree)
        by_node: Dict[int, InstructionController] = {}
        for node in tree.nodes():
            if isinstance(node, ScanNode):
                continue
            ic = self._make_ic(node, tree)
            by_node[node.node_id] = ic
        # Wire destinations (producer -> consumer operand index).
        for node_id, ic in by_node.items():
            parent = tree.parent_of(ic.node)
            if parent is None:
                ic.destination = (MC_ID, 0)
            else:
                operand_index = parent.children.index(ic.node)
                ic.destination = (by_node[parent.node_id].ic_id, operand_index)
        # Seed operands.
        for node_id, ic in by_node.items():
            for idx, child in enumerate(self._operand_children(ic.node)):
                if isinstance(child, ScanNode):
                    self.sim.schedule(
                        0.0,
                        lambda i=ic, x=idx, n=child.relation_name: i.seed_base_operand(
                            x, self._base_pages_of(n)
                        ),
                        label=f"seed.{ic.ic_id}",
                    )
                elif isinstance(ic.node, (DeleteNode, UpdateNode)):
                    raise MachineError("delete/update nodes have no child operands")
        # Delete/update nodes scan their target relation as operand 0.
        for node_id, ic in by_node.items():
            if isinstance(ic.node, (DeleteNode, UpdateNode)):
                self.sim.schedule(
                    0.0,
                    lambda i=ic, n=ic.node.target_relation: i.seed_base_operand(
                        0, self._base_pages_of(n)
                    ),
                    label=f"seed.{ic.ic_id}",
                )
        if by_node:
            self._maybe_arm_ic_failure(tree, next(iter(by_node.values())))

    def _make_ic(self, node: QueryNode, tree: QueryTree) -> InstructionController:
        if not self._free_ic_ids:
            raise MachineError("no free IC for instruction (admission bug)")
        ic_id = self._free_ic_ids.pop(0)
        operand_specs = self._operand_specs(node)
        ic = InstructionController(
            machine=self,
            ic_id=ic_id,
            node=node,
            tree=tree,
            operand_specs=operand_specs,
            result_schema=node.output_schema(self.catalog),
        )
        self._ics[ic_id] = ic
        return ic

    def _operand_children(self, node: QueryNode) -> Sequence[QueryNode]:
        return node.children

    def _operand_specs(self, node: QueryNode) -> List[Tuple[str, Schema, bool]]:
        if isinstance(node, (DeleteNode, UpdateNode)):
            relation = self.catalog.get(node.target_relation)
            return [(node.target_relation, relation.schema, True)]
        specs: List[Tuple[str, Schema, bool]] = []
        for child in node.children:
            schema = child.output_schema(self.catalog)
            if isinstance(child, ScanNode):
                specs.append((child.relation_name, schema, True))
            else:
                specs.append((f"node{child.node_id}", schema, False))
        return specs

    # ------------------------------------------------------------------ inner-ring control (MC <-> IC)

    def ic_request_ips(self, ic: InstructionController, count: int) -> None:
        """IC -> MC: REQUEST_IPS(count)."""

        def deliver() -> None:
            if not ic.dead:
                self.mc.request_ips(ic, count)

        self.inner_ring.send(CONTROL_PACKET_BYTES, deliver, query=ic.tree.name)

    def mc_grant_ip(self, ic: InstructionController, ip: InstructionProcessor) -> None:
        """MC -> IC: GRANT_IP."""
        self.inner_ring.send(
            CONTROL_PACKET_BYTES, lambda: ic.grant_ip(ip), query=ic.tree.name
        )

    def ic_release_ip(self, ic: InstructionController, ip: InstructionProcessor) -> None:
        """IC -> MC: RELEASE_IP."""
        self.inner_ring.send(
            CONTROL_PACKET_BYTES, lambda: self.mc.add_free_ip(ip), query=ic.tree.name
        )

    def ic_instruction_done(self, ic: InstructionController) -> None:
        """IC finished: notify consumer (outer ring) and the MC (inner)."""
        dest_ic, operand_index = ic.destination
        if dest_ic == MC_ID:
            self.outer_ring.send(
                CONTROL_PACKET_BYTES, lambda: self._finalize_query(ic),
                query=ic.tree.name,
            )
        else:
            consumer = self._ics.get(dest_ic)
            if consumer is None:
                raise MachineError(f"IC{dest_ic} vanished before operand completion")
            self.outer_ring.send(
                CONTROL_PACKET_BYTES,
                lambda: consumer.receive_operand_complete(operand_index),
                query=ic.tree.name,
            )

        def mc_notified() -> None:
            if ic.dead:
                # A failover tore this IC down while the notice was on the
                # ring; the teardown already freed its id.
                return
            self.mc.cancel_wants(ic)
            self._free_ic(ic)
            self.mc.try_admit()

        self.inner_ring.send(CONTROL_PACKET_BYTES, mc_notified, query=ic.tree.name)

    def _free_ic(self, ic: InstructionController) -> None:
        # Identity check: after a failover the freed id may already belong
        # to a replacement IC, which must not be evicted by a stale notice.
        if self._ics.get(ic.ic_id) is ic:
            del self._ics[ic.ic_id]
            self._free_ic_ids.append(ic.ic_id)

    # ------------------------------------------------------------------ outer-ring traffic (IC <-> IP)

    def _to_ip(
        self,
        ic: InstructionController,
        ip: InstructionProcessor,
        fn: Callable[[], None],
    ) -> Callable[[], None]:
        """Guard an IC->IP delivery against a failover mid-flight.

        If the sending IC was torn down (or the IP reassigned) while the
        packet circled the ring, the tap ignores it — exactly the fate of
        a packet addressed to a fail-stopped component.
        """

        def deliver() -> None:
            if ic.dead or ip.owner is not ic:
                return
            fn()

        return deliver

    def ic_send_unary_packet(
        self,
        ic: InstructionController,
        ip: InstructionProcessor,
        page: Page,
        flush: bool,
        header_only: bool = False,
    ) -> None:
        """IC -> IP: a one-operand instruction packet (Figure 4.3).

        ``header_only`` means the data page was pre-positioned at an IP by
        direct routing, so only the control header crosses the ring.
        """
        page_len = 0 if header_only else page.used_bytes
        nbytes = instruction_packet_bytes(ic.result_schema, [(page.schema, page_len)])
        self.outer_ring.send(
            nbytes,
            self._to_ip(ic, ip, lambda: ip.receive_unary_packet(page, flush)),
            query=ic.tree.name,
        )

    def ic_send_join_packet(
        self,
        ic: InstructionController,
        ip: InstructionProcessor,
        outer_page: Page,
        outer_index: int,
        inner_page: Optional[Page],
        inner_index: Optional[int],
        flush: bool,
        outer_header_only: bool = False,
    ) -> None:
        """IC -> IP: a join packet with outer (and maybe first inner) page."""
        outer_len = 0 if outer_header_only else outer_page.used_bytes
        operands = [(outer_page.schema, outer_len)]
        if inner_page is not None:
            operands.append((inner_page.schema, inner_page.used_bytes))
        nbytes = instruction_packet_bytes(ic.result_schema, operands)
        self.outer_ring.send(
            nbytes,
            self._to_ip(
                ic,
                ip,
                lambda: ip.receive_join_packet(
                    outer_page, outer_index, inner_page, inner_index, flush
                ),
            ),
            query=ic.tree.name,
        )

    def ic_broadcast_inner(
        self,
        ic: InstructionController,
        index: int,
        page: Page,
        last_known: Optional[int],
        delivered: Callable[[], None],
    ) -> None:
        """IC -> all its IPs: broadcast one inner page (one ring traversal)."""
        nbytes = instruction_packet_bytes(ic.result_schema, [(page.schema, page.used_bytes)])

        def deliver() -> None:
            if ic.dead:
                return
            for ip in list(ic.my_ips):
                ip.receive_inner_broadcast(index, page, last_known)
            delivered()

        self.outer_ring.broadcast(nbytes, deliver, query=ic.tree.name)

    def ic_send_inner_last(
        self, ic: InstructionController, ip: InstructionProcessor, count: int
    ) -> None:
        """IC -> IP: INNER_LAST(count)."""
        self.outer_ring.send(
            CONTROL_PACKET_BYTES,
            self._to_ip(ic, ip, lambda: ip.receive_inner_last(count)),
            query=ic.tree.name,
        )

    def ic_flush_ip(self, ic: InstructionController, ip: InstructionProcessor) -> None:
        """IC -> IP: flush your result buffer, then report done."""
        self.outer_ring.send(
            CONTROL_PACKET_BYTES,
            self._to_ip(ic, ip, ip.flush_and_done),
            query=ic.tree.name,
        )

    def ip_to_ic_done(self, ip: InstructionProcessor, ic: InstructionController) -> None:
        """IP -> IC: DONE control packet."""
        self.outer_ring.send(
            CONTROL_PACKET_BYTES, lambda: ic.ip_done(ip), query=ic.tree.name
        )

    def ip_to_ic_flush_done(self, ip: InstructionProcessor, ic: InstructionController) -> None:
        """IP -> IC: DONE answering a FLUSH."""
        self.outer_ring.send(
            CONTROL_PACKET_BYTES, lambda: ic.ip_flush_done(ip), query=ic.tree.name
        )

    def ip_to_ic_request_inner(
        self, ip: InstructionProcessor, ic: InstructionController, index: int
    ) -> None:
        """IP -> IC: REQUEST_INNER(index)."""
        self.outer_ring.send(
            CONTROL_PACKET_BYTES,
            lambda: ic.ip_request_inner(ip, index),
            query=ic.tree.name,
        )

    def ip_to_ic_ready_for_outer(
        self, ip: InstructionProcessor, ic: InstructionController
    ) -> None:
        """IP -> IC: READY_FOR_OUTER."""
        self.outer_ring.send(
            CONTROL_PACKET_BYTES,
            lambda: ic.ip_ready_for_outer(ip),
            query=ic.tree.name,
        )

    def ip_send_result(
        self, ip: InstructionProcessor, ic: InstructionController, page: Page
    ) -> None:
        """IP -> destination IC (or MC): a result packet (Figure 4.4)."""
        dest_ic, operand_index = ic.destination
        nbytes = result_packet_bytes(page.used_bytes)
        rows = list(page.rows())
        ic.rows_emitted_to_consumer += len(rows)
        if dest_ic == MC_ID:

            def to_host() -> None:
                if ic.dead:
                    return  # the query attempt was failed over; rows discarded
                self._query_rows.setdefault(ic.tree.name, []).extend(rows)
                txn = self._write_txns.get(ic.tree.name)
                if txn is not None:
                    # Arrival-order partial writes: each filled page is
                    # WAL-logged immediately (undo must erase it on abort).
                    self.txn.stage_rows(txn, rows)

            self.outer_ring.send(nbytes, to_host, query=ic.tree.name)
            return
        consumer = self._ics.get(dest_ic)
        if consumer is None:
            raise MachineError(f"result for vanished IC{dest_ic}")
        if self.direct_ip_routing and not (consumer.is_join and operand_index == 1):
            # Section 5 future work: route the page "directly from one IP
            # to another without first sending the page to an IC".  Join
            # inner operands still need IC mediation (broadcast), so they
            # keep the normal path.
            self.outer_ring.send(
                nbytes,
                lambda: consumer.receive_direct_page(operand_index, page),
                query=ic.tree.name,
            )
            return
        self.outer_ring.send(
            nbytes,
            lambda: consumer.receive_result_rows(operand_index, rows),
            query=ic.tree.name,
        )

    # ------------------------------------------------------------------ storage hierarchy (IC <-> cache/disk)

    def ic_fetch_page(
        self, ic: InstructionController, ref: PageRef, done: Callable[[], None]
    ) -> None:
        """Bring a page from the cache (or disk) into IC local memory."""
        self.cache.read_shared(ref, self._disk_span(ic, "cache.read", done))

    def ic_overflow_page(
        self, ic: InstructionController, ref: PageRef, done: Callable[[], None]
    ) -> None:
        """IC local memory overflow: write the page to the cache segment."""
        self.cache.write_page(ref, self._disk_span(ic, "cache.write", done), dirty=True)

    def _disk_span(
        self, ic: InstructionController, what: str, done: Callable[[], None]
    ) -> Callable[[], None]:
        """Wrap a cache completion to record the fetch as a disk span.

        The span covers the whole storage-hierarchy round trip — port
        queueing, disk service, cache fill — which is exactly the interval
        the query's timeline spends waiting on the disk cache.
        """
        spans = self.sim.spans
        if spans is None:
            return done
        query = ic.tree.name
        started = self.sim.now

        def finished() -> None:
            spans.record("disk", query, started, self.sim.now, name=what)
            done()

        return finished

    # ------------------------------------------------------------------ completion

    def _abort_write_attempt(self, tree: QueryTree) -> None:
        """A refused lock upgrade: undo, release, and re-queue with X.

        The attempt's staged pages are rolled back through the WAL (CLR
        chain), its locks drop, and the query re-enters the MC queue
        demanding X at admission — so the retry cannot be refused again,
        and FIFO admission bounds the delay (no starvation).
        """
        txn = self._write_txns.pop(tree.name, None)
        if txn is not None:
            self.txn.abort(txn)
        self._query_rows.pop(tree.name, None)
        self.write_aborts[tree.name] = self.write_aborts.get(tree.name, 0) + 1
        self._force_exclusive[tree.name] = None
        inj = self.sim.faults
        if inj is not None:
            inj.count("txn.upgrade_abort", tree.name)
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(
                f"abort.{tree.name}", "txn", self.sim.now, "queries"
            )
        self.mc.locks.release(tree.name)
        self.mc.enqueue(tree)
        self.sim.schedule(0.0, self.mc.try_admit, label="mc.admit")

    def _finalize_query(self, root_ic: InstructionController) -> None:
        if root_ic.dead:
            return  # a failover superseded this completion notice
        tree = root_ic.tree
        node = tree.root
        if isinstance(node, (AppendNode, DeleteNode, UpdateNode)):
            txn = self._write_txns.get(tree.name)
            if (
                txn is not None
                and isinstance(node, (DeleteNode, UpdateNode))
                and tree.name not in self._force_exclusive
                and not self.mc.locks.try_upgrade(tree.name, node.target_relation)
            ):
                self._abort_write_attempt(tree)
                return
            self._force_exclusive.pop(tree.name, None)
            self._query_rows[tree.name] = self._commit_write(
                tree.name, node, self._query_rows.get(tree.name, [])
            )
        self._complete_query(tree.name, len(self._query_rows.get(tree.name, ())))

    def _retire(self, tree: QueryTree) -> None:
        """The root finalized: the MC releases the query's locks."""
        self.mc.query_finished(tree)


def run_ring_benchmark(
    catalog: Catalog,
    queries: Sequence[QueryTree],
    processors: int = 16,
    **machine_kwargs,
) -> RingReport:
    """Build a ring machine, submit ``queries``, run, and report."""
    machine = RingMachine(catalog, processors=processors, **machine_kwargs)
    for tree in queries:
        machine.submit(tree)
    return machine.run()
