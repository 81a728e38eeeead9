"""The host interface every machine shares: submit, record, commit, drain.

DIRECT (Section 3), the ring machine (Section 4) and the MIT-model
data-flow machine (Section 2.2) differ only below the host interface.
Each takes query trees from the host, runs them under its own control
and arbitration scheme, and hands result relations back.
:class:`MachineHost` is that host side, written once.  It keeps the
per-query records, opens and commits a query's write transaction,
drains the event loop, arms the whole-machine crash fault and closes a
completed query's record.  A machine subclass supplies only its protocol:

* ``_accept(tree)`` compiles or enqueues a submitted tree;
* ``_retire(tree)`` (optional) runs between a query's record closing
  and the completion hook;
* ``run_service()`` arms the machine's faults, calls :meth:`_drain` and
  builds the machine's report.

Nothing per-event routes through here: charge paths, resources and ring
packets stay in the machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import CrashError, FaultError, MachineError
from repro.direct.cache import PageRef, base_page_refs
from repro.direct.exec_model import ExecModel
from repro.query.tree import AppendNode, DeleteNode, QueryNode, QueryTree, UpdateNode
from repro.recovery.apply import apply_write
from repro.recovery.txn import Transaction, TransactionManager
from repro.relational.catalog import Catalog
from repro.relational.schema import Row
from repro.sim.engine import Simulator

#: Machine names accepted by :func:`build_machine` (and the CLI).
MACHINES = ("ring", "direct", "dataflow")


@dataclass
class QueryRun:
    """Per-query record, keyed by query name on the host."""

    tree: QueryTree
    submitted_at: float
    completed_at: Optional[float] = None
    result_rows: int = 0

    @property
    def elapsed_ms(self) -> Optional[float]:
        """Response time, None while running."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


class MachineHost:
    """Host-side bookkeeping shared by the three machines."""

    def __init__(
        self,
        catalog: Catalog,
        page_bytes: int,
        model: Optional[ExecModel],
        max_events: int,
    ):
        self.catalog = catalog
        self.page_bytes = page_bytes
        self.model = model or ExecModel(page_bytes=page_bytes)
        self.max_events = max_events
        self.sim = Simulator()
        self._runs: Dict[str, QueryRun] = {}
        #: Machine-page images of base relations (ring and DIRECT); a
        #: write drops its target's entry so later queries re-page it.
        self._base_pages: Dict[str, List[PageRef]] = {}
        #: Serving hook: called as ``(query_name, completed_at_ms,
        #: result_rows)`` the moment a query completes — :mod:`repro.serve`
        #: uses it to drive admission and latency capture.
        self.on_query_complete: Optional[Callable[[str, float, int], None]] = None
        #: Serving runs complete thousands of queries; per-query gauges
        #: would bloat the metrics registry, so serve mode turns them off.
        self.publish_per_query_metrics = True
        #: Durable write transactions (see :meth:`attach_recovery`); None
        #: means writes install in-memory only, the pre-WAL behavior.
        self.txn: Optional[TransactionManager] = None
        self._write_txns: Dict[str, Transaction] = {}

    # ------------------------------------------------------------------ recovery

    def attach_recovery(self, tm: TransactionManager) -> None:
        """Arm durable write transactions through ``tm``.

        Seeds the stable store from the catalog's current images if the
        caller has not already, and registers the WAL invariants with
        this run's sanitizer.  Only the ring machine has an admission
        lock manager; on DIRECT and the data-flow machine callers must
        serialize conflicting writes themselves (the crash harness
        chains write submissions back-to-back).
        """
        if not tm.store.pages:
            tm.seed_from_catalog(self.catalog)
        self.txn = tm
        tm.register_sanitizer(self.sim)

    def _begin_write(self, tree: QueryTree) -> None:
        """Open ``tree``'s write transaction (no-op for reads or without a WAL)."""
        root = tree.root
        if (
            self.txn is not None
            and isinstance(root, (AppendNode, DeleteNode, UpdateNode))
            and tree.name not in self._write_txns
        ):
            self._write_txns[tree.name] = self.txn.begin(
                tree.name,
                root.target_relation,
                root.output_schema(self.catalog),
                append=isinstance(root, AppendNode),
            )

    def _commit_write(self, name: str, root: QueryNode, rows: Sequence[Row]) -> List[Row]:
        """Install write query ``name``'s result; the target's whole new content.

        Commits through the WAL when the query's transaction is open,
        otherwise replaces the target in memory.
        """
        txn = self._write_txns.pop(name, None)
        _, all_rows = apply_write(
            self.catalog,
            root,
            rows,
            self.page_bytes,
            tm=self.txn if txn is not None else None,
            txn=txn,
        )
        # Later queries must re-page the relation from the new state.
        self._base_pages.pop(root.target_relation, None)
        return all_rows

    def _arm_machine_crash(self) -> None:
        """Schedule a whole-machine power cut if the plan draws one.

        The strike raises :class:`repro.errors.CrashError` straight out
        of the event loop — volatile state is unwound with the Python
        stack, and the crash harness picks recovery up from the stable
        store.  Requires an attached transaction manager: without
        durable state there is nothing for a crash to be *survived by*.
        """
        inj = self.sim.faults
        if inj is None:
            return
        spec = inj.armed_spec("machine_crash")
        if spec is None or spec.rate <= 0:
            return
        if self.txn is None:
            raise FaultError(
                "fault plan arms machine_crash but no transaction manager "
                "is attached (attach_recovery); a crash without durable "
                "state cannot be recovered"
            )
        if not inj.decide("machine_crash", "machine", spec.rate):
            return
        at_ms = spec.at_ms + inj.uniform("machine_crash", "machine", 0.0, spec.window_ms)

        def crash_now() -> None:
            inj.count("machine.crash", "machine")
            raise CrashError(
                f"machine crash fault at t={self.sim.now:.3f}ms "
                f"({len(self.txn.active)} transaction(s) in flight)"
            )

        self.sim.schedule_at(at_ms, crash_now, label="fault.machine_crash")

    # ------------------------------------------------------------------ queries

    def submit(self, tree: QueryTree) -> QueryRun:
        """Hand ``tree`` to the machine and open its record."""
        if tree.name in self._runs:
            raise MachineError(f"query {tree.name!r} already submitted")
        self._accept(tree)
        run = self._runs[tree.name] = QueryRun(tree=tree, submitted_at=self.sim.now)
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(f"submit.{tree.name}", "query", self.sim.now, "queries")
        if self.sim.spans is not None:
            # Idempotent: the serve layer opens the record at offer time,
            # so a query admitted from its queue keeps the earlier start.
            self.sim.spans.query_begin(tree.name, self.sim.now)
        return run

    def _accept(self, tree: QueryTree) -> None:
        """Protocol: compile or enqueue a submitted tree."""
        raise NotImplementedError

    def _complete_query(self, name: str, rows: int) -> None:
        """Close query ``name``'s record and tell the host it finished."""
        run = self._runs[name]
        now = self.sim.now
        run.completed_at = now
        run.result_rows = rows
        if self.sim.tracer.enabled:
            self.sim.tracer.span(
                name, "query", run.submitted_at, now - run.submitted_at, "queries",
                args={"result_rows": rows},
            )
        if self.sim.spans is not None:
            self.sim.spans.query_end(name, now, rows)
        self._retire(run.tree)
        if self.on_query_complete is not None:
            self.on_query_complete(name, now, rows)

    def _retire(self, tree: QueryTree) -> None:
        """Protocol: release what a finished query held, before the hook runs."""

    def _query_times(self) -> Dict[str, Optional[float]]:
        return {name: run.elapsed_ms for name, run in self._runs.items()}

    # ------------------------------------------------------------------ run

    def run(self) -> Any:
        """Execute every submitted query to completion and report.

        The machine's ``run_service`` does the same without requiring
        queries up front: a serving layer schedules arrival events that
        call :meth:`submit` mid-run.
        """
        if not self._runs:
            raise MachineError("no queries submitted")
        return self.run_service()

    def _drain(self) -> float:
        """Run the event loop dry, shut the WAL down cleanly; elapsed ms."""
        self.sim.run(max_events=self.max_events)
        unfinished = [name for name, run in self._runs.items() if run.completed_at is None]
        if unfinished:
            raise MachineError(
                f"{type(self).__name__} drained with unfinished queries: {unfinished}"
            )
        if self.txn is not None:
            # Clean shutdown: force the log, flush every dirty page, and
            # checkpoint — the sanitizer's dirty-page leak check runs next.
            self.txn.shutdown()
        self.sim.finalize_sanitizer()
        self.sim.finalize_faults()
        return self.sim.now

    # ------------------------------------------------------------------ storage (ring and DIRECT)

    def _base_pages_of(self, relation_name: str) -> List[PageRef]:
        """Base-relation page refs over ``self.disks``, built once per relation."""
        refs = self._base_pages.get(relation_name)
        if refs is None:
            refs = self._base_pages[relation_name] = base_page_refs(
                self.catalog.get(relation_name), self.page_bytes, len(self.disks)
            )
        return refs

    def _publish_host_metrics(self, machine: str, elapsed: float) -> None:
        """Gauges common to the disk-cache machines: elapsed, ports, disks, traffic."""
        metrics = self.sim.metrics
        rid = self.sim.run_id
        metrics.set_gauge("machine.elapsed_ms", elapsed, machine=machine, run=rid)
        for resource in [self.ports] + self.disks:
            metrics.set_gauge(
                "resource.utilization",
                resource.utilization(elapsed),
                resource=resource.name,
                run=rid,
            )
            metrics.set_gauge(
                "resource.peak_queue",
                resource.stats.peak_queue,
                resource=resource.name,
                run=rid,
            )
        for level, nbytes in self.meter.snapshot().items():
            metrics.set_gauge("traffic.bytes", nbytes, machine=machine, level=level, run=rid)
        if not self.publish_per_query_metrics:
            return
        for name, run in self._runs.items():
            if run.elapsed_ms is not None:
                metrics.set_gauge("query.elapsed_ms", run.elapsed_ms, query=name, run=rid)
                metrics.set_gauge("query.result_rows", run.result_rows, query=name, run=rid)


def build_machine(name: str, catalog: Catalog, **kwargs: Any) -> MachineHost:
    """Construct the machine called ``name`` (one of :data:`MACHINES`)."""
    if name == "ring":
        from repro.ring.machine import RingMachine

        return RingMachine(catalog, **kwargs)
    if name == "direct":
        from repro.direct.machine import DirectMachine

        return DirectMachine(catalog, **kwargs)
    if name == "dataflow":
        from repro.dataflow.machine import DataflowMachine

        return DataflowMachine(catalog, **kwargs)
    raise MachineError(f"unknown machine {name!r}; pick one of {MACHINES}")
