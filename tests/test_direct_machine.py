"""The DIRECT-style machine: oracle equivalence, granularities, reports."""

import pytest

from repro.direct import scheduler
from repro.direct.machine import DirectMachine, run_benchmark
from repro.errors import MachineError
from repro.relational.catalog import Catalog
from repro.relational.predicate import attr
from repro.relational.relation import Relation
from repro.query import execute
from repro.query.builder import delete_from, scan


@pytest.fixture
def oracle_results(tiny_benchmark, tiny_queries):
    return {t.name: execute(t, tiny_benchmark.catalog) for t in tiny_queries}


def fresh_queries(tiny_benchmark):
    from repro.workload import benchmark_queries

    return benchmark_queries(
        tiny_benchmark.catalog, tiny_benchmark.relation_names, selectivity=0.3
    )


class TestOracleEquivalence:
    @pytest.mark.parametrize("granularity", [scheduler.PAGE, scheduler.RELATION, scheduler.TUPLE])
    def test_benchmark_matches_oracle(self, tiny_benchmark, oracle_results, granularity):
        report = run_benchmark(
            tiny_benchmark.catalog,
            fresh_queries(tiny_benchmark),
            processors=4,
            granularity=granularity,
            page_bytes=2048,
        )
        for name, oracle in oracle_results.items():
            assert report.results[name].same_rows_as(oracle), name

    def test_single_processor_matches_oracle(self, tiny_benchmark, oracle_results):
        report = run_benchmark(
            tiny_benchmark.catalog,
            fresh_queries(tiny_benchmark),
            processors=1,
            page_bytes=2048,
        )
        for name, oracle in oracle_results.items():
            assert report.results[name].same_rows_as(oracle), name

    def test_tiny_cache_still_correct(self, tiny_benchmark, oracle_results):
        report = run_benchmark(
            tiny_benchmark.catalog,
            fresh_queries(tiny_benchmark),
            processors=4,
            page_bytes=2048,
            cache_bytes=1,  # clamped to the documented floor
        )
        for name, oracle in oracle_results.items():
            assert report.results[name].same_rows_as(oracle), name

    def test_one_memory_cell(self, tiny_benchmark, oracle_results):
        report = run_benchmark(
            tiny_benchmark.catalog,
            fresh_queries(tiny_benchmark),
            processors=3,
            page_bytes=2048,
            memory_cells=1,
        )
        for name, oracle in oracle_results.items():
            assert report.results[name].same_rows_as(oracle), name


class TestReports:
    def test_elapsed_positive_and_finite(self, tiny_benchmark):
        report = run_benchmark(
            tiny_benchmark.catalog, fresh_queries(tiny_benchmark), processors=4, page_bytes=2048
        )
        assert 0 < report.elapsed_ms < float("inf")

    def test_every_query_has_a_time(self, tiny_benchmark):
        report = run_benchmark(
            tiny_benchmark.catalog, fresh_queries(tiny_benchmark), processors=4, page_bytes=2048
        )
        assert len(report.query_times) == 10
        assert all(t is not None and t > 0 for t in report.query_times.values())

    def test_traffic_nonzero(self, tiny_benchmark):
        report = run_benchmark(
            tiny_benchmark.catalog, fresh_queries(tiny_benchmark), processors=4, page_bytes=2048
        )
        assert report.traffic["disk_to_cache"] > 0
        assert report.interconnect_bytes > 0

    def test_bandwidth_helper(self, tiny_benchmark):
        report = run_benchmark(
            tiny_benchmark.catalog, fresh_queries(tiny_benchmark), processors=4, page_bytes=2048
        )
        assert report.bandwidth_mbps() > 0
        assert report.bandwidth_mbps("disk_to_cache") >= 0

    def test_utilization_in_unit_interval(self, tiny_benchmark):
        report = run_benchmark(
            tiny_benchmark.catalog, fresh_queries(tiny_benchmark), processors=4, page_bytes=2048
        )
        assert 0 <= report.processor_utilization <= 1

    def test_more_processors_not_slower(self, tiny_benchmark):
        slow = run_benchmark(
            tiny_benchmark.catalog, fresh_queries(tiny_benchmark), processors=1, page_bytes=2048
        )
        fast = run_benchmark(
            tiny_benchmark.catalog, fresh_queries(tiny_benchmark), processors=8, page_bytes=2048
        )
        assert fast.elapsed_ms <= slow.elapsed_ms * 1.05

    def test_tuple_granularity_moves_more_bytes(self, tiny_benchmark):
        page = run_benchmark(
            tiny_benchmark.catalog,
            fresh_queries(tiny_benchmark),
            processors=4,
            granularity=scheduler.PAGE,
            page_bytes=2048,
        )
        tup = run_benchmark(
            tiny_benchmark.catalog,
            fresh_queries(tiny_benchmark),
            processors=4,
            granularity=scheduler.TUPLE,
            page_bytes=2048,
        )
        assert tup.interconnect_bytes > 1.5 * page.interconnect_bytes


class TestValidationAndErrors:
    def test_no_queries_rejected(self, tiny_benchmark):
        machine = DirectMachine(tiny_benchmark.catalog, processors=2, page_bytes=2048)
        with pytest.raises(MachineError):
            machine.run()

    def test_zero_processors_rejected(self, tiny_benchmark):
        with pytest.raises(MachineError):
            DirectMachine(tiny_benchmark.catalog, processors=0)

    def test_bad_memory_cells_rejected(self, tiny_benchmark):
        with pytest.raises(MachineError):
            DirectMachine(tiny_benchmark.catalog, memory_cells=3)

    def test_bare_scan_rejected(self, pair_schema):
        catalog = Catalog()
        catalog.register(Relation.from_rows("r", pair_schema, [(1, 1)], page_bytes=64))
        machine = DirectMachine(catalog, processors=1, page_bytes=64)
        with pytest.raises(MachineError):
            machine.submit(scan("r").tree())

    def test_delete_executes_on_direct(self, pair_schema):
        # Write packets used to be ring-only; DIRECT runs them now
        # (serially — it has no lock manager; see DESIGN.md §13).
        catalog = Catalog()
        catalog.register(
            Relation.from_rows("r", pair_schema, [(1, 1), (2, 2)], page_bytes=64)
        )
        machine = DirectMachine(catalog, processors=1, page_bytes=64)
        machine.submit(delete_from("r", attr("k") == 1, name="del"))
        machine.run()
        assert list(catalog.get("r").rows()) == [(2, 2)]


class TestSmallQueries:
    def test_empty_restrict_result(self, join_catalog):
        machine = DirectMachine(join_catalog, processors=2, page_bytes=128)
        tree = scan("left_rel").restrict(attr("k") > 10_000).tree("none")
        machine.submit(tree)
        report = machine.run()
        assert report.results["none"].cardinality == 0

    def test_join_with_empty_inner(self, join_catalog):
        machine = DirectMachine(join_catalog, processors=2, page_bytes=128)
        tree = scan("left_rel").equijoin(scan("empty_rel"), "grp", "grp").tree("je")
        machine.submit(tree)
        report = machine.run()
        assert report.results["je"].cardinality == 0

    def test_join_with_empty_outer(self, join_catalog):
        machine = DirectMachine(join_catalog, processors=2, page_bytes=128)
        tree = scan("empty_rel").equijoin(scan("right_rel"), "grp", "grp").tree("ej")
        machine.submit(tree)
        report = machine.run()
        assert report.results["ej"].cardinality == 0

    def test_project_on_machine(self, join_catalog):
        machine = DirectMachine(join_catalog, processors=2, page_bytes=128)
        tree = scan("left_rel").project(["grp"]).tree("p")
        machine.submit(tree)
        report = machine.run()
        assert report.results["p"].cardinality == 10

    def test_union_on_machine(self, join_catalog):
        machine = DirectMachine(join_catalog, processors=2, page_bytes=128)
        tree = scan("left_rel").union(scan("right_rel")).tree("u")
        machine.submit(tree)
        report = machine.run()
        oracle = execute(
            scan("left_rel").union(scan("right_rel")).tree(), join_catalog
        )
        assert report.results["u"].same_rows_as(oracle)

    def test_restrict_over_join(self, join_catalog):
        builder = lambda: (
            scan("left_rel")
            .equijoin(scan("right_rel"), "grp", "grp")
            .restrict(attr("k") < 30)
            .tree("roj")
        )
        machine = DirectMachine(join_catalog, processors=3, page_bytes=128)
        machine.submit(builder())
        report = machine.run()
        oracle = execute(builder(), join_catalog)
        assert report.results["roj"].same_rows_as(oracle)
