"""Causal span tracing: collector, attribution, time series, exports.

The headline guarantees under test:

* :func:`attribute_query` partitions a query's latency *exactly* — the
  five buckets sum to end-to-end latency up to float addition error —
  with service > disk > transit > retransmission > queueing precedence;
* a traced serving run yields an explain report whose p99 decomposition
  and per-query attributions all satisfy that partition identity;
* the repro-tsdb/v1 and Chrome-trace exports validate against their
  schema checks;
* the fully armed observability session changes no output bytes (the
  tracing identity gate, exercised here on a cheap subset);
* an armed collector forces ``map_points`` into its serial fallback —
  one global span timeline cannot be split across worker processes.
"""

import json

import pytest

from repro.obs.critical_path import BUCKETS, attribute_query, explain
from repro import obs
from repro.obs import SpanCollector, collecting
from repro.obs.timeseries import (
    build_tsdb,
    spans_chrome_trace,
    validate_chrome_trace,
    validate_tsdb,
)
from repro.serve import ServeConfig, serve

QUICK = dict(
    rate_qps=60.0,
    duration_ms=800.0,
    scale=0.05,
    seed=7,
    b_domain=50,
)


def _record(name="Q1", start=0.0, end=100.0, spans=()):
    collector = SpanCollector()
    collector.query_begin(name, start)
    for kind, span_name, s, e in spans:
        collector.record(kind, name, s, e, name=span_name)
    collector.query_end(name, end, rows=3)
    return collector.completed[-1]


# -- collector lifecycle ----------------------------------------------------


class TestSpanCollector:
    def test_query_begin_is_idempotent_earliest_wins(self):
        collector = SpanCollector()
        collector.query_begin("Q1", 5.0)
        collector.query_begin("Q1", 9.0)  # machine submit after serve offer
        collector.query_end("Q1", 10.0)
        assert collector.completed[0].start == 5.0
        assert collector.completed[0].latency_ms == 5.0

    def test_record_drops_unknown_and_completed_queries(self):
        collector = SpanCollector()
        collector.record("service", "ghost", 0.0, 1.0)
        collector.query_begin("Q1", 0.0)
        collector.query_end("Q1", 10.0)
        collector.record("service", "Q1", 5.0, 6.0)  # late control traffic
        assert collector.completed[0].spans == []

    def test_record_drops_empty_intervals_and_none_query(self):
        collector = SpanCollector()
        collector.query_begin("Q1", 0.0)
        collector.record("service", "Q1", 5.0, 5.0)
        collector.record("service", None, 5.0, 6.0)
        collector.query_end("Q1", 10.0)
        assert collector.completed[0].spans == []

    def test_cancel_counts_and_drops(self):
        collector = SpanCollector()
        collector.query_begin("Q1", 0.0)
        collector.query_cancel("Q1")
        collector.query_cancel("Q1")  # double cancel is a no-op
        assert collector.cancelled == 1
        assert collector.completed == []

    def test_collecting_installs_and_restores(self):
        assert obs.ambient().spans is None
        with collecting() as collector:
            assert obs.ambient().spans is collector
            with collecting(SpanCollector()) as inner:
                assert obs.ambient().spans is inner
            assert obs.ambient().spans is collector
        assert obs.ambient().spans is None

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanCollector(window_ms=0.0)


# -- critical-path attribution ----------------------------------------------


class TestAttribution:
    def test_uncovered_time_is_queueing(self):
        buckets = attribute_query(_record(start=0.0, end=100.0))
        assert buckets["queueing"] == 100.0
        assert sum(buckets.values()) == 100.0

    def test_service_wins_over_overlapping_disk(self):
        record = _record(
            spans=[
                ("service", "ip", 10.0, 30.0),
                ("disk", "cache", 20.0, 50.0),
            ]
        )
        buckets = attribute_query(record)
        assert buckets["service"] == 20.0
        assert buckets["disk"] == 20.0  # only the non-overlapped tail
        assert buckets["queueing"] == 60.0
        assert sum(buckets.values()) == pytest.approx(100.0, abs=1e-9)

    def test_spans_clip_to_query_window(self):
        record = _record(
            start=10.0,
            end=20.0,
            spans=[("transit", "ring", 0.0, 15.0), ("disk", "d", 18.0, 40.0)],
        )
        buckets = attribute_query(record)
        assert buckets["transit"] == 5.0
        assert buckets["disk"] == 2.0
        assert buckets["queueing"] == 3.0

    def test_identical_overlapping_spans_merge(self):
        record = _record(
            spans=[("service", "a", 10.0, 30.0), ("service", "b", 10.0, 30.0)]
        )
        buckets = attribute_query(record)
        assert buckets["service"] == 20.0

    def test_unknown_kind_falls_back_to_queueing(self):
        record = _record(spans=[("mystery", "x", 0.0, 100.0)])
        assert attribute_query(record)["queueing"] == 100.0

    def test_partition_sums_to_latency(self):
        record = _record(
            end=97.0,
            spans=[
                ("service", "a", 3.0, 21.5),
                ("disk", "b", 11.0, 40.25),
                ("transit", "c", 39.0, 41.125),
                ("retransmission", "d", 60.0, 61.0),
                ("queueing", "admission", 0.0, 3.0),
            ],
        )
        buckets = attribute_query(record)
        assert sum(buckets.values()) == pytest.approx(97.0, abs=1e-9)
        assert buckets["retransmission"] == 1.0


# -- explain report on a real serving run ------------------------------------


class TestExplainServing:
    @pytest.fixture(scope="class")
    def traced(self):
        collector = SpanCollector()
        with collecting(collector):
            slo = serve(ServeConfig(machine="ring", **QUICK))
        return collector, slo

    def test_buckets_sum_to_end_to_end_latency(self, traced):
        collector, _slo = traced
        assert collector.completed
        for record in collector.completed:
            buckets = attribute_query(record)
            assert sum(buckets.values()) == pytest.approx(
                record.latency_ms, rel=1e-9, abs=1e-6
            )

    def test_explain_report_shape_and_partition(self, traced):
        collector, _slo = traced
        report = explain(collector, top=3)
        assert report["schema"] == "repro-explain/v1"
        assert report["queries"] == len(collector.completed)
        decomp = report["p99_decomposition"]
        assert sum(decomp["buckets"].values()) == pytest.approx(
            decomp["latency_ms"], abs=1e-3
        )
        shares = [report["buckets"][kind]["share"] for kind in BUCKETS]
        assert sum(shares) == pytest.approx(1.0, abs=1e-3)
        assert len(report["slowest"]) == 3
        assert report["slowest"][0]["latency_ms"] >= report["slowest"][1]["latency_ms"]

    def test_explain_queueing_includes_admission_wait(self, traced):
        collector, _slo = traced
        # At 60 qps this quick ring config is saturated: admission spans
        # must appear and queueing must carry real time.
        names = {
            name
            for record in collector.completed
            for (_kind, name, _s, _e) in record.spans
        }
        assert "admission" in names
        report = explain(collector)
        assert report["buckets"]["queueing"]["total_ms"] > 0.0

    def test_machine_spans_cover_all_kinds_but_retransmission(self, traced):
        collector, _slo = traced
        kinds = {
            kind
            for record in collector.completed
            for (kind, _n, _s, _e) in record.spans
        }
        # No faults armed, so no retransmission backoff; everything else
        # must be observed on a saturated ring run.
        assert {"service", "disk", "transit", "queueing"} <= kinds

    def test_tsdb_builds_and_validates(self, traced):
        collector, slo = traced
        doc = build_tsdb(collector, end_ms=float(slo["elapsed_ms"]))
        validate_tsdb(doc)
        series = doc["series"]
        for expected in ("inflight", "queue_depth", "throughput_qps", "shed_rate"):
            assert expected in series
        assert any(key.startswith("utilization.") for key in series)
        # Completions observed in the SLO report appear as rate mass.
        total_completed = sum(series["throughput_qps"]["values"])
        assert total_completed > 0.0

    def test_chrome_trace_builds_and_validates(self, traced):
        collector, _slo = traced
        doc = spans_chrome_trace(collector)
        validate_chrome_trace(doc)
        phases = {event["ph"] for event in doc["traceEvents"]}
        assert {"X", "s", "f", "M"} <= phases
        # Every flow start has a matching finish with the same id.
        starts = {e["id"] for e in doc["traceEvents"] if e["ph"] == "s"}
        finishes = {e["id"] for e in doc["traceEvents"] if e["ph"] == "f"}
        assert starts == finishes

    def test_serve_report_identical_with_and_without_collector(self, traced):
        _collector, slo = traced
        untraced = serve(ServeConfig(machine="ring", **QUICK))
        assert json.dumps(untraced, sort_keys=True) == json.dumps(
            slo, sort_keys=True
        )


# -- tracing identity gate (cheap subset) ------------------------------------


def test_tracing_identity_on_quick_subset(monkeypatch):
    from repro.check import identity

    sessions = []
    render = identity.render_experiment

    def spy(name):
        sessions.append(obs.ambient())
        return render(name)

    monkeypatch.setattr(identity, "render_experiment", spy)
    subset = ["section_3_3", "packets", "ring_vs_direct", "tuple_granularity"]
    assert identity.tracing_identity_mismatches(subset) == []
    # Each experiment renders unobserved, then under the whole session:
    # Chrome tracer, metrics registry and span collector all armed.
    assert len(sessions) == 2 * len(subset)
    for baseline, variant in zip(sessions[::2], sessions[1::2]):
        assert not baseline.armed
        assert None not in (variant.tracer, variant.metrics, variant.spans)


# -- serial fallback when spans are armed (satellite) ------------------------

_SPAN_CALLS = []


def _record_inline_spans(x):
    _SPAN_CALLS.append(x)
    return x * 10


def test_armed_collector_forces_map_points_serial_fallback():
    from repro.sweep import map_points

    _SPAN_CALLS.clear()
    serial = map_points(_record_inline_spans, [dict(x=1), dict(x=2)])
    _SPAN_CALLS.clear()
    with collecting():
        parallel = map_points(
            _record_inline_spans, [dict(x=1), dict(x=2)], workers=2
        )
    # Inline execution: side effects land in this process, results match
    # the serial run exactly.
    assert _SPAN_CALLS == [1, 2]
    assert parallel == serial == [10, 20]
