"""The MIT-model data-flow machine: cells, programs, execution."""

import pytest

from repro.dataflow.cell import Cell, OperandSlot
from repro.dataflow.machine import DataflowMachine, run_dataflow
from repro.dataflow.program import compile_query
from repro.errors import MachineError
from repro.relational.catalog import Catalog
from repro.relational.page import Page, pack_rows_into_pages
from repro.relational.predicate import attr
from repro.relational.relation import Relation
from repro.relational.schema import DataType, Schema
from repro.query import execute
from repro.query.builder import scan
from repro.query.tree import JoinNode, RestrictNode, ScanNode

PAIR = Schema.build(("k", DataType.INT), ("g", DataType.INT))


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register(
        Relation.from_rows("ra", PAIR, [(i, i % 6) for i in range(80)], page_bytes=128)
    )
    cat.register(
        Relation.from_rows("rb", PAIR, [(i, i % 6) for i in range(50)], page_bytes=128)
    )
    return cat


def page_of(rows):
    page = Page(PAIR, 128)
    for row in rows:
        page.append(row)
    return page


class TestOperandSlot:
    def test_deliver_and_finish(self):
        slot = OperandSlot("x", PAIR)
        assert slot.deliver(page_of([(1, 1)])) == 0
        assert slot.page_count == 1
        assert [p.row_count for p in slot.pages] == [1]
        slot.finish()
        with pytest.raises(MachineError):
            slot.deliver(page_of([(2, 2)]))


class TestCellEnabling:
    def make_restrict_cell(self):
        node = RestrictNode(ScanNode("ra"), attr("g") == 1)
        return Cell(node, [("in", PAIR)], PAIR, 128)

    def make_join_cell(self):
        node = JoinNode(ScanNode("ra"), ScanNode("rb"), attr("g").equals_attr("g"))
        return Cell(
            node, [("outer", PAIR), ("inner", PAIR)], PAIR.concat_unique(PAIR), 128
        )

    def test_page_level_enables_on_first_page(self):
        cell = self.make_restrict_cell()
        assert not cell.enabled("page")
        cell.operands[0].deliver(page_of([(1, 1)]))
        assert cell.enabled("page")
        assert not cell.enabled("relation")

    def test_relation_level_needs_completion(self):
        cell = self.make_restrict_cell()
        cell.operands[0].deliver(page_of([(1, 1)]))
        cell.operands[0].finish()
        assert cell.enabled("relation")

    def test_join_needs_both_slots(self):
        cell = self.make_join_cell()
        cell.operands[0].deliver(page_of([(1, 1)]))
        assert not cell.enabled("page")
        cell.operands[1].deliver(page_of([(2, 1)]))
        assert cell.enabled("page")

    def test_page_firings_are_cross_product_for_join(self):
        cell = self.make_join_cell()
        for _ in range(2):
            cell.operands[0].deliver(page_of([(1, 1)]))
        for _ in range(3):
            cell.operands[1].deliver(page_of([(2, 1)]))
        assert len(cell.ready_firings("page")) == 6

    def test_firings_not_repeated(self):
        cell = self.make_restrict_cell()
        cell.operands[0].deliver(page_of([(1, 1)]))
        assert len(cell.ready_firings("page")) == 1
        assert cell.ready_firings("page") == []
        cell.operands[0].deliver(page_of([(2, 2)]))
        assert len(cell.ready_firings("page")) == 1

    def test_relation_level_fires_once(self):
        cell = self.make_restrict_cell()
        cell.operands[0].deliver(page_of([(1, 1)]))
        cell.operands[0].finish()
        assert len(cell.ready_firings("relation")) == 1
        assert cell.ready_firings("relation") == []

    def test_has_unfired_is_pure(self):
        cell = self.make_restrict_cell()
        cell.operands[0].deliver(page_of([(1, 1)]))
        assert cell.has_unfired("page")
        assert cell.has_unfired("page")  # still there — no consumption
        assert len(cell.ready_firings("page")) == 1
        assert not cell.has_unfired("page")

    def test_unknown_granularity_rejected(self):
        with pytest.raises(MachineError):
            self.make_restrict_cell().enabled("quark")


class TestProgramCompilation:
    def test_base_operands_preloaded(self, catalog):
        program = compile_query(
            scan("ra").restrict(attr("g") == 0).tree("q"), catalog, page_bytes=128
        )
        cell = program.root
        assert cell.operands[0].complete
        assert cell.operands[0].page_count == len(
            pack_rows_into_pages(PAIR, list(catalog.get("ra").rows()), 128)
        )

    def test_interior_edges_become_destinations(self, catalog):
        tree = (
            scan("ra").restrict(attr("g") == 0)
            .equijoin(scan("rb").restrict(attr("g") == 0), "g", "g")
            .tree("q")
        )
        program = compile_query(tree, catalog, page_bytes=128)
        join_cell = program.root
        producers = [c for c in program.cells if c is not join_cell]
        assert {d[0] for p in producers for d in p.destinations} == {join_cell}
        assert sorted(d[1] for p in producers for d in p.destinations) == [0, 1]

    def test_scan_only_tree_rejected(self, catalog):
        with pytest.raises(MachineError):
            compile_query(scan("ra").tree("q"), catalog)


class TestMachineExecution:
    def shapes(self):
        return {
            "restrict": lambda: scan("ra").restrict(attr("g") < 3).tree("q"),
            "project": lambda: scan("ra").project(["g"]).tree("q"),
            "join": lambda: (
                scan("ra").restrict(attr("k") < 40)
                .equijoin(scan("rb").restrict(attr("k") < 30), "g", "g")
                .tree("q")
            ),
            "union": lambda: (
                scan("ra").restrict(attr("g") == 0).union(scan("rb").restrict(attr("g") == 0)).tree("q")
            ),
            "restrict-over-join": lambda: (
                scan("ra").equijoin(scan("rb"), "g", "g").restrict(attr("k") < 10).tree("q")
            ),
        }

    @pytest.mark.parametrize("granularity", ["relation", "page", "tuple"])
    def test_all_shapes_match_oracle(self, catalog, granularity):
        for name, builder in self.shapes().items():
            oracle = execute(builder(), catalog)
            machine = DataflowMachine(
                catalog, processors=3, granularity=granularity, page_bytes=128
            )
            tree = builder()
            machine.submit(tree)
            report = machine.run()
            assert report.results[tree.name].same_rows_as(oracle), (name, granularity)

    def test_relation_level_fires_once_per_node(self, catalog):
        tree = (
            scan("ra").restrict(attr("k") < 40)
            .equijoin(scan("rb").restrict(attr("k") < 30), "g", "g")
            .tree("q")
        )
        report = run_dataflow(catalog, [tree], granularity="relation", page_bytes=128)
        assert report.firings == 3  # one per operator node

    def test_page_level_fires_more(self, catalog):
        t1 = scan("ra").restrict(attr("k") < 40).tree("q")
        page_report = run_dataflow(catalog, [t1], granularity="page", page_bytes=128)
        t2 = scan("ra").restrict(attr("k") < 40).tree("q")
        rel_report = run_dataflow(catalog, [t2], granularity="relation", page_bytes=128)
        assert page_report.firings > rel_report.firings

    def test_tuple_level_arbitration_blowup(self, catalog):
        def tree():
            return (
                scan("ra").equijoin(scan("rb"), "g", "g").tree("q")
            )

        page = run_dataflow(catalog, [tree()], granularity="page", page_bytes=128)
        tup = run_dataflow(catalog, [tree()], granularity="tuple", page_bytes=128)
        assert tup.arbitration_bytes > 5 * page.arbitration_bytes
        assert tup.elapsed_ms >= page.elapsed_ms

    def test_more_processors_help_page_level(self, catalog):
        def tree():
            return scan("ra").equijoin(scan("rb"), "g", "g").tree("q")

        one = run_dataflow(catalog, [tree()], processors=1, granularity="page", page_bytes=128)
        many = run_dataflow(catalog, [tree()], processors=8, granularity="page", page_bytes=128)
        assert many.elapsed_ms < one.elapsed_ms

    def test_relation_level_ignores_extra_processors_per_node(self, catalog):
        # A single restrict fires once; processors beyond 1 cannot help.
        def tree():
            return scan("ra").restrict(attr("g") < 3).tree("q")

        one = run_dataflow(catalog, [tree()], processors=1, granularity="relation", page_bytes=128)
        many = run_dataflow(catalog, [tree()], processors=8, granularity="relation", page_bytes=128)
        assert many.elapsed_ms == pytest.approx(one.elapsed_ms)

    def test_concurrent_queries(self, catalog):
        builders = [
            lambda: scan("ra").restrict(attr("g") == 0).tree("a"),
            lambda: scan("rb").restrict(attr("g") == 1).tree("b"),
            lambda: scan("ra").equijoin(scan("rb"), "g", "g").tree("c"),
        ]
        oracles = {}
        for b in builders:
            t = b()
            oracles[t.name] = execute(t, catalog)
        machine = DataflowMachine(catalog, processors=4, page_bytes=128)
        for b in builders:
            machine.submit(b())
        report = machine.run()
        for name, oracle in oracles.items():
            assert report.results[name].same_rows_as(oracle), name

    def test_query_times_recorded(self, catalog):
        tree = scan("ra").restrict(attr("g") == 0).tree("q")
        report = run_dataflow(catalog, [tree], page_bytes=128)
        assert report.query_times["q"] > 0

    def test_empty_result_query(self, catalog):
        tree = scan("ra").restrict(attr("k") > 10_000).tree("q")
        report = run_dataflow(catalog, [tree], page_bytes=128)
        assert report.results["q"].cardinality == 0

    def test_no_queries_rejected(self, catalog):
        with pytest.raises(MachineError):
            DataflowMachine(catalog).run()

    def test_bad_granularity_rejected(self, catalog):
        with pytest.raises(MachineError):
            DataflowMachine(catalog, granularity="atom")
