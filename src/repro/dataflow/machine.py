"""The Dennis-style machine loop: cells -> arbitration -> processors ->
distribution -> cells (Figure 2.2).

Timing model (all constants from :class:`repro.direct.exec_model.ExecModel`
and :mod:`repro.hw`):

* the **arbitration network** is ``network_width`` parallel paths, each
  carrying one operation packet at ``network_rate`` bytes/ms; a packet's
  size is its operand pages plus the overhead constant ``c`` — or, at
  tuple granularity, the per-tuple formula of Section 3.3
  (rows * (record + c) for unary firings, pairs * (w_o + w_i + c) for
  join firings);
* **processors** charge the per-row/per-pair CPU constants;
* the **distribution network** mirrors the arbitration network, carrying
  result pages to destination cells.

The machine is workload-agnostic: submit any query trees, run, and check
the produced relations against the reference interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import MachineError
from repro.direct.exec_model import ExecModel
from repro.host import MachineHost
from repro.relational.catalog import Catalog
from repro.relational.page import Page
from repro.relational.relation import Relation
from repro.relational.schema import Row
from repro.query.tree import AppendNode, DeleteNode, JoinNode, QueryTree, UpdateNode
from repro.dataflow.cell import Cell, FiringUnit
from repro.dataflow.program import DataflowProgram, compile_query
from repro.sim.resources import Resource


@dataclass
class DataflowReport:
    """Outcome of one data-flow machine run."""

    granularity: str
    processors: int
    elapsed_ms: float
    firings: int
    arbitration_bytes: int
    distribution_bytes: int
    results: Dict[str, Relation]
    query_times: Dict[str, float]
    events_processed: int

    def arbitration_mbps(self) -> float:
        """Average arbitration-network load (the Section 3.3 quantity)."""
        if self.elapsed_ms <= 0:
            return 0.0
        return self.arbitration_bytes * 8.0 / 1e6 / (self.elapsed_ms / 1000.0)


class DataflowMachine(MachineHost):
    """The MIT-model machine executing relational query trees."""

    def __init__(
        self,
        catalog: Catalog,
        processors: int = 4,
        granularity: str = "page",
        page_bytes: int = 2048,
        model: Optional[ExecModel] = None,
        network_width: int = 4,
        network_rate: float = 2048.0,  # bytes per ms per path (~2 MB/s)
        max_events: int = 2_000_000,
    ):
        if granularity not in ("relation", "page", "tuple"):
            raise MachineError(f"unknown granularity {granularity!r}")
        if processors < 1:
            raise MachineError("need at least one processor")
        super().__init__(catalog, page_bytes, model, max_events)
        self.granularity = granularity
        self.network_rate = network_rate

        self.arbitration = Resource(self.sim, "arbitration", capacity=network_width)
        self.distribution = Resource(self.sim, "distribution", capacity=network_width)
        self.processors = Resource(self.sim, "processors", capacity=processors)
        self._processor_count = processors

        self._programs: List[DataflowProgram] = []
        self._results: Dict[str, List[Row]] = {}
        self.firings = 0
        self.arbitration_bytes = 0
        self.distribution_bytes = 0
        #: True while :meth:`run_service` drives the loop — mid-run
        #: submissions then pump immediately.  Batch runs leave this off
        #: so their event sequence (and byte-identity) is unchanged.
        self._serving = False

    # ------------------------------------------------------------------ host API

    def _accept(self, tree: QueryTree) -> None:
        """Compile ``tree`` into cells and add it to the memory section."""
        program = compile_query(tree, self.catalog, self.page_bytes)
        self._begin_write(tree)
        self._programs.append(program)
        for cell in program.cells:
            cell.tree_name = tree.name
        if self._serving:
            self._pump_soon()

    def run_service(self) -> DataflowReport:
        """Drive the machine until the event heap drains, then report.

        Queries may arrive mid-run via :meth:`submit` (each one pumps the
        firing loop); all of them must finish before the heap drains.
        """
        self._serving = True
        self._arm_machine_crash()
        self.sim.schedule(0.0, self._pump, label="pump")
        elapsed = self._drain()
        return DataflowReport(
            granularity=self.granularity,
            processors=self._processor_count,
            elapsed_ms=elapsed,
            firings=self.firings,
            arbitration_bytes=self.arbitration_bytes,
            distribution_bytes=self.distribution_bytes,
            results={
                p.tree.name: self._result_relation(p) for p in self._programs
            },
            query_times=self._query_times(),
            events_processed=self.sim.events_processed,
        )

    def _result_relation(self, program: DataflowProgram) -> Relation:
        return Relation.from_rows(
            f"{program.tree.name}.result",
            program.root.output_schema,
            self._results.get(program.tree.name, []),
            page_bytes=self.page_bytes,
            validated=True,  # result rows came off distributed pages
        )

    # ------------------------------------------------------------------ firing loop

    def _pump(self) -> None:
        """Scan the memory section; enqueue every newly enabled firing."""
        for program in self._programs:
            for cell in program.cells:
                if cell.done:
                    continue  # can neither fire nor complete again
                for unit in cell.ready_firings(self.granularity):
                    self._launch(unit)
                self._check_cell_completion(cell)

    def _launch(self, unit: FiringUnit) -> None:
        cell = unit.cell
        cell.firings_outstanding += 1
        self.firings += 1
        nbytes = self._packet_bytes(unit)
        self.arbitration_bytes += nbytes

        query = cell.tree_name

        def at_processor() -> None:
            cpu = self._cpu_ms(unit)
            self.processors.submit(
                cpu, lambda: self._fired(unit), nbytes=0, query=query
            )

        self.arbitration.submit(
            nbytes / self.network_rate,
            at_processor,
            nbytes=nbytes,
            query=query,
            span_kind="transit",
        )

    def _packet_bytes(self, unit: FiringUnit) -> int:
        c = self.model.packet_overhead_bytes
        if self.granularity != "tuple":
            return unit.payload_bytes + c
        # Section 3.3 accounting: every tuple (or tuple pair) is a packet.
        cell = unit.cell
        if isinstance(cell.node, JoinNode):
            outer_rows = sum(
                cell.operands[0].pages[p].row_count for s, p in unit.pages if s == 0
            )
            inner_rows = sum(
                cell.operands[1].pages[p].row_count for s, p in unit.pages if s == 1
            )
            w_o = cell.operands[0].schema.record_width
            w_i = cell.operands[1].schema.record_width
            return outer_rows * inner_rows * (w_o + w_i + c)
        width = cell.operands[unit.pages[0][0]].schema.record_width if unit.pages else 8
        return unit.payload_rows * (width + c)

    def _cpu_ms(self, unit: FiringUnit) -> float:
        cell = unit.cell
        ops = cell.cpu_cost_rows(unit)
        if isinstance(cell.node, JoinNode):
            return ops * self.model.join_pair_ms
        return ops * self.model.restrict_tuple_ms

    def _fired(self, unit: FiringUnit) -> None:
        cell = unit.cell
        rows = cell.execute(unit)
        cell.firings_outstanding -= 1
        for page in cell.output.add(rows):
            self._distribute(cell, page)
        # New results (or freed processors) may enable more firings.
        self._pump()

    # ------------------------------------------------------------------ distribution

    def _distribute(self, cell: Cell, page: Page) -> None:
        """Send one result page to the destination cells (or the host)."""
        nbytes = page.used_bytes + self.model.packet_overhead_bytes
        self.distribution_bytes += nbytes
        cell.firings_outstanding += 1  # page in flight counts as work

        def delivered() -> None:
            cell.firings_outstanding -= 1
            if cell.destinations:
                for destination, slot in cell.destinations:
                    destination.operands[slot].deliver(page)
            else:
                tree_name = cell.tree_name
                rows = list(page.rows())
                self._results.setdefault(tree_name, []).extend(rows)
                txn = self._write_txns.get(tree_name)
                if txn is not None:
                    # WAL-stage the write root's output as it lands — a
                    # crash mid-run leaves genuine partial writes for undo.
                    self.txn.stage_rows(txn, rows)
            self._pump()

        self.distribution.submit(
            nbytes / self.network_rate,
            delivered,
            nbytes=nbytes,
            query=cell.tree_name,
            span_kind="transit",
        )

    # ------------------------------------------------------------------ completion

    def _check_cell_completion(self, cell: Cell) -> None:
        if cell.done or not cell.all_work_fired_and_done(self.granularity):
            return
        final = cell.output.flush()
        if final is not None:
            self._distribute(cell, final)
            return  # completion re-checked when the final page lands
        cell.retire()
        for destination, slot in cell.destinations:
            destination.operands[slot].finish()
        if not cell.destinations:
            name = cell.tree_name
            if isinstance(cell.node, (AppendNode, DeleteNode, UpdateNode)):
                self._results[name] = self._commit_write(
                    name, cell.node, self._results.get(name, [])
                )
            self._complete_query(name, len(self._results.get(name, ())))
        self._pump_soon()

    def _pump_soon(self) -> None:
        self.sim.schedule(0.0, self._pump, label="pump")


def run_dataflow(
    catalog: Catalog,
    queries: Sequence[QueryTree],
    processors: int = 4,
    granularity: str = "page",
    **kwargs,
) -> DataflowReport:
    """Build a machine, submit ``queries``, run, and report."""
    machine = DataflowMachine(
        catalog, processors=processors, granularity=granularity, **kwargs
    )
    for tree in queries:
        machine.submit(tree)
    return machine.run()
