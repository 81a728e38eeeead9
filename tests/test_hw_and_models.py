"""Hardware constants, exec model, traffic meter, routing analysis."""

import pytest

from repro import hw
from repro.direct import traffic as tl
from repro.direct.exec_model import ExecModel
from repro.direct.traffic import TrafficMeter
from repro.query.tree import ProjectNode, RestrictNode, ScanNode
from repro.relational.kernels import compile_kernel, join_pages
from repro.relational.page import Page
from repro.relational.predicate import CompareOp, attr
from repro.relational.schema import DataType, Schema
from repro.ring.routing import break_even_fill_fraction, page_routing_savings


class TestHardwareConstants:
    def test_lsi11_reads_16k_in_33ms(self):
        assert hw.RING_PAGE_BYTES / hw.LSI11_SCAN_RATE == pytest.approx(33.0)

    def test_ibm3330_sequential_faster(self):
        random_ = hw.IBM_3330.access_time_ms(16384)
        sequential = hw.IBM_3330.access_time_ms(16384, sequential=True)
        assert sequential < random_
        assert random_ - sequential == pytest.approx(hw.IBM_3330.avg_seek_ms)

    def test_ttl_ring_rate(self):
        assert hw.OUTER_RING_TTL.bit_rate_mbps == 40.0

    def test_inner_ring_within_paper_range(self):
        assert 1.0 <= hw.INNER_RING.bit_rate_mbps <= 2.0

    def test_benchmark_constants(self):
        assert hw.BENCHMARK_NUM_RELATIONS == 15
        assert hw.BENCHMARK_DB_BYTES == int(5.5 * 1024 * 1024)
        assert hw.MEMORY_CELLS_PER_PROCESSOR == 2

    def test_ccd_access(self):
        t = hw.INTEL_2314_CCD.access_time_ms(2048)
        assert t == pytest.approx(0.1 + 2048 / (2 * 1024 * 1024 / 1000.0))


class TestExecModel:
    def test_proc_read_matches_scan_rate(self):
        model = ExecModel(page_bytes=16384)
        assert model.proc_read_ms(16384) == pytest.approx(33.0)

    def test_join_cpu_quadratic(self):
        model = ExecModel()
        assert model.join_cpu_ms(100, 100) == pytest.approx(4 * model.join_cpu_ms(50, 50))

    def test_packet_bytes_adds_overhead(self):
        model = ExecModel(packet_overhead_bytes=64)
        assert model.packet_bytes(1000) == 1064


SCHEMA = Schema.build(("k", DataType.INT), ("g", DataType.INT))


def make_page(rows):
    page = Page(SCHEMA, 256)
    for row in rows:
        page.append(row)
    return page


class TestKernels:
    def test_restrict_page(self):
        page = make_page([(i, i % 2) for i in range(10)])
        restrict = compile_kernel(RestrictNode(ScanNode("r"), attr("g") == 0), [SCHEMA])
        assert len(restrict(page)) == 5

    def test_join_pages_equijoin_equals_nested(self):
        a = make_page([(i, i % 3) for i in range(9)])
        b = make_page([(i, i % 3) for i in range(6)])
        eq = attr("g").equals_attr("g")
        out = join_pages(a, b, eq, 1, 1)
        brute = [x + y for x in a.rows() for y in b.rows() if x[1] == y[1]]
        assert sorted(out) == sorted(brute)

    def test_join_pages_theta(self):
        a = make_page([(1, 1), (2, 2)])
        b = make_page([(1, 1), (2, 2), (3, 3)])
        lt = attr("g").joins(CompareOp.LT, "g")
        out = join_pages(a, b, lt, 1, 1)
        assert len(out) == 2 + 1

    def test_project_rows(self):
        cut = compile_kernel(
            ProjectNode(ScanNode("r"), ["g"], eliminate_duplicates=False), [SCHEMA]
        )
        assert cut(make_page([(1, 2), (3, 4), (5, 4)])) == [(2,), (4,), (4,)]


class TestTrafficMeter:
    def test_add_and_read(self):
        meter = TrafficMeter()
        meter.add(tl.DISK_TO_CACHE, 100)
        assert meter.bytes_at(tl.DISK_TO_CACHE) == 100

    def test_unknown_level_rejected(self):
        with pytest.raises(KeyError):
            TrafficMeter().add("warp", 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TrafficMeter().add(tl.CONTROL, -1)

    def test_interconnect_excludes_disk(self):
        meter = TrafficMeter()
        meter.add(tl.DISK_TO_CACHE, 1000)
        meter.add(tl.CACHE_TO_PROC, 10)
        assert meter.interconnect_bytes == 10
        assert meter.disk_bytes == 1000

    def test_bandwidth_math(self):
        meter = TrafficMeter()
        meter.add(tl.CACHE_TO_PROC, 125_000)  # 1 megabit
        assert meter.bandwidth_mbps(tl.CACHE_TO_PROC, 1000.0) == pytest.approx(1.0)

    def test_bandwidth_of_level_list(self):
        meter = TrafficMeter()
        meter.add(tl.CACHE_TO_PROC, 62_500)
        meter.add(tl.PROC_TO_CACHE, 62_500)
        assert meter.bandwidth_mbps([tl.CACHE_TO_PROC, tl.PROC_TO_CACHE], 1000.0) == pytest.approx(1.0)

    def test_snapshot_is_a_copy(self):
        meter = TrafficMeter()
        snap = meter.snapshot()
        snap[tl.CONTROL] = 999
        assert meter.bytes_at(tl.CONTROL) == 0


class TestRoutingAnalysis:
    def test_direct_saves_for_full_pages(self):
        savings = page_routing_savings(SCHEMA, SCHEMA, 4096)
        assert savings.saved_bytes > 0
        assert 0 < savings.saved_fraction < 1

    def test_break_even_in_unit_interval(self):
        f = break_even_fill_fraction(SCHEMA, SCHEMA, 4096)
        assert 0.0 < f < 1.0

    def test_break_even_lower_for_bigger_pages(self):
        small = break_even_fill_fraction(SCHEMA, SCHEMA, 1024)
        large = break_even_fill_fraction(SCHEMA, SCHEMA, 16384)
        assert large < small
