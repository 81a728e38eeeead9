"""The observability layer: tracer, metrics registry, ambient session,
and the determinism guarantee (hooks observe, never schedule)."""

import contextlib
import json

import pytest

from repro import obs
from repro.obs import (
    MetricsRegistry,
    Probe,
    SpanCollector,
    Tracer,
    metric_key,
    parse_metric_key,
)
from repro.sim.engine import Simulator
from repro.sim.resources import Resource


class TestTracer:
    def test_span_and_instant_recorded(self):
        tracer = Tracer()
        tracer.span("service", "resource", 1.0, 2.0, "disk0", args={"bytes": 512})
        tracer.instant("send", "ring", 3.0, "outer-ring")
        assert tracer.event_count == 2

    def test_chrome_trace_shape(self):
        tracer = Tracer()
        tracer.span("work", "ip", 0.5, 1.5, "IP1")
        doc = tracer.chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        # Thread-name metadata precedes the recorded events.
        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "IP1"
        span = [e for e in events if e["ph"] == "X"][0]
        assert span["ts"] == 500.0 and span["dur"] == 1500.0  # ms -> us

    def test_write_produces_valid_json(self, tmp_path):
        tracer = Tracer()
        tracer.instant("event", "sim", 1.0, "simulator")
        path = tmp_path / "out.trace.json"
        tracer.write(str(path))
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert all("ph" in e and "ts" in e for e in doc["traceEvents"] if e["ph"] != "M")

    def test_tracks_map_to_stable_tids(self):
        tracer = Tracer()
        tracer.instant("a", "c", 0.0, "first")
        tracer.instant("b", "c", 1.0, "second")
        tracer.instant("c", "c", 2.0, "first")
        events = [e for e in tracer.chrome_trace()["traceEvents"] if e["ph"] == "i"]
        assert events[0]["tid"] == events[2]["tid"] != events[1]["tid"]


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("sim.events") == "sim.events"
        assert parse_metric_key("sim.events") == ("sim.events", {})

    def test_labels_sorted_and_roundtrip(self):
        key = metric_key("ring.bytes", {"ring": "outer-ring", "run": 1})
        assert key == "ring.bytes{ring=outer-ring,run=1}"
        assert parse_metric_key(key) == ("ring.bytes", {"ring": "outer-ring", "run": "1"})


class TestMetricsRegistry:
    def test_counter_tally_series_gauge(self):
        reg = MetricsRegistry()
        reg.counter("n", kind="a").add(2)
        reg.counter("n", kind="a").add(3)
        reg.tally("t").observe(4.0)
        reg.series("s", run=1).record(1.0, 10)
        reg.set_gauge("g", 0.5, machine="direct")
        assert reg.value("n", kind="a") == 5
        assert reg.value("g", machine="direct") == 0.5
        report = reg.report()
        assert report["counters"]["n{kind=a}"] == 5
        assert report["tallies"]["t"]["count"] == 1
        assert report["series"]["s{run=1}"]["last"] == 10

    def test_labels_namespace_instruments(self):
        reg = MetricsRegistry()
        reg.counter("n", kind="a").add()
        reg.counter("n", kind="b").add()
        assert reg.value("n", kind="a") == 1
        assert reg.value("n", kind="b") == 1


class TestAmbientSession:
    def test_default_ambient_is_disabled(self):
        session = obs.ambient()
        assert not session.armed
        assert session.tracer is None and session.metrics is None and session.spans is None

    def test_observe_installs_and_restores(self):
        before = obs.ambient()
        with obs.observe() as session:
            assert obs.ambient() is session
            assert session.tracer is not None and session.metrics is not None
        assert obs.ambient() is before

    def test_observe_axes_independent(self):
        with obs.observe(trace=True, metrics=False) as session:
            assert session.tracer is not None and session.metrics is None
        with obs.observe(trace=False, metrics=True) as session:
            assert session.tracer is None and session.metrics is not None

    def test_observe_and_collecting_nest_into_one_session(self):
        with obs.collecting() as collector:
            with obs.observe(trace=True, metrics=False) as session:
                assert session.spans is collector  # observe keeps the collector
                with obs.collecting() as inner:
                    assert obs.ambient().spans is inner
                    assert obs.ambient().tracer is session.tracer  # kept
                assert obs.ambient() is session
            assert obs.ambient().spans is collector and obs.ambient().tracer is None
        assert not obs.ambient().armed

    def test_simulator_binds_session_at_construction(self):
        with obs.observe() as session:
            sim = Simulator()
        assert sim.probe.tracer is session.tracer
        assert sim.probe.metrics is session.metrics
        assert sim.run_id > 0
        assert Simulator().run_id == 0  # outside the block: disabled, unlabeled

    def test_unarmed_session_binds_no_probe(self):
        # "Off" is one rule for every sink: nothing armed, no probe at all.
        assert Simulator().probe is None
        with obs.observe(trace=False, metrics=False) as session:
            assert not session.armed
            assert Simulator().probe is None

    def test_armed_session_binds_one_probe(self):
        for sink in ("tracer", "metrics", "spans", "all"):
            with obs.observe(trace=sink in ("tracer", "all"), metrics=sink in ("metrics", "all")):
                with obs.collecting() if sink in ("spans", "all") else contextlib.nullcontext():
                    session = obs.ambient()
                    sim = Simulator()
                    res = Resource(sim, "disk0")
            assert isinstance(sim.probe, Probe), sink
            assert res._probe is sim.probe  # components share the simulator's probe
            # A span collector alone records no engine events: no per-event call.
            assert (sim._on_event is None) == (sink == "spans")
            for name in ("tracer", "metrics", "spans"):
                assert getattr(sim.probe, name) is getattr(session, name), (sink, name)


class TestWiring:
    def test_simulator_events_traced_and_counted(self):
        with obs.observe() as session:
            sim = Simulator()
            sim.schedule(1.0, lambda: None, label="tick")
            sim.run()
        assert session.tracer.event_count == 1
        assert session.metrics.value("sim.events") == 1

    def test_resource_service_traced_with_queue_series(self):
        with obs.observe() as session:
            sim = Simulator()
            res = Resource(sim, "disk0")
            res.submit(3.0, nbytes=100)
            sim.run()
        spans = [
            e
            for e in session.tracer.chrome_trace()["traceEvents"]
            if e["ph"] == "X" and e["name"] == "disk0.service"
        ]
        assert spans and spans[0]["args"]["bytes"] == 100
        report = session.metrics.report()
        key = metric_key(
            "resource.queue_depth", {"resource": "disk0", "run": sim.run_id}
        )
        assert key in report["series"]


class TestDeterminism:
    """Tracing must never perturb simulation results."""

    def test_experiment_identical_with_and_without_observability(self):
        from repro.experiments import figure_3_1

        plain = figure_3_1.run(scale=0.05, selectivity=0.3, processors=(5,))
        with obs.observe() as session:
            observed = figure_3_1.run(scale=0.05, selectivity=0.3, processors=(5,))
        assert observed.rows == plain.rows
        assert session.tracer.event_count > 0
        # And a second uninstrumented run is identical again.
        again = figure_3_1.run(scale=0.05, selectivity=0.3, processors=(5,))
        assert again.rows == plain.rows


class TestStreamingTracer:
    def test_stream_flushes_incrementally_and_close_finalizes(self, tmp_path):
        path = str(tmp_path / "stream.trace.json")
        tracer = Tracer(stream_path=path, flush_every=3)
        for i in range(7):
            tracer.span(f"e{i}", "test", float(i), 1.0, "track-a")
        # Two batches of three are on disk; one event is still buffered.
        assert tracer.event_count == 7
        total = tracer.close()
        assert total == 8  # 7 events + 1 thread_name metadata record
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert names == [f"e{i}" for i in range(7)]

    def test_close_is_idempotent_and_blocks_further_recording(self, tmp_path):
        path = str(tmp_path / "s.json")
        tracer = Tracer(stream_path=path, flush_every=1)
        tracer.span("a", "t", 0.0, 1.0, "x")
        first = tracer.close()
        assert tracer.close() == first
        with pytest.raises(ValueError):
            tracer.span("b", "t", 1.0, 1.0, "x")  # flushes, and the file is closed

    def test_streamed_tracer_refuses_in_memory_export(self, tmp_path):
        tracer = Tracer(stream_path=str(tmp_path / "s.json"), flush_every=1)
        tracer.span("a", "t", 0.0, 1.0, "x")
        with pytest.raises(ValueError):
            tracer.chrome_trace()

    def test_stream_matches_buffered_event_set(self, tmp_path):
        path = str(tmp_path / "s.json")
        streamed = Tracer(stream_path=path, flush_every=2)
        buffered = Tracer()
        for t in (streamed, buffered):
            t.span("a", "c", 0.0, 1.0, "x")
            t.instant("i", "c", 0.5, "x")
            t.counter("n", 0.5, {"v": 1.0})
            t.flow("f", "c", 0.25, "x", 7, phase="s")
            t.flow("f", "c", 0.25, "x", 7, phase="f")
        streamed.close()
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        key = lambda e: json.dumps(e, sort_keys=True)
        assert sorted(map(key, doc["traceEvents"])) == sorted(
            map(key, buffered.chrome_trace()["traceEvents"])
        )

    def test_flush_every_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(stream_path="x.json", flush_every=0)


class TestMetricsRendering:
    """Byte-stable report/dump rendering and the CSV flattening."""

    def _filled(self, order):
        registry = MetricsRegistry()
        for name in order:
            registry.counter(name).add(1)
        registry.set_gauge("z.gauge", 2.0)
        registry.tally("t.lat").observe(5.0)
        registry.series("s.depth").record(0.0, 1.0)
        return registry

    def test_dump_bytes_independent_of_creation_order(self):
        a = self._filled(["b.count", "a.count"])
        b = self._filled(["a.count", "b.count"])
        assert json.dumps(a.dump(), sort_keys=False) == json.dumps(
            b.dump(), sort_keys=False
        )

    def test_report_csv_stable_and_parseable(self):
        from repro.obs.metrics import report_csv

        a = report_csv(self._filled(["b.count", "a.count"]).report())
        b = report_csv(self._filled(["a.count", "b.count"]).report())
        assert a == b
        lines = a.strip().split("\n")
        assert lines[0] == "section,key,field,value"
        assert any(line.startswith("counters,a.count,value,") for line in lines)
        assert any(line.startswith("tallies,t.lat,mean,") for line in lines)

    def test_report_csv_quotes_label_commas(self):
        from repro.obs.metrics import report_csv

        registry = MetricsRegistry()
        registry.counter("c", x="1", y="2").add(3)
        text = report_csv(registry.report())
        assert '"c{x=1,y=2}"' in text


class TestSinkIndependence:
    """Each sink records the same thing alone as with the other two armed:
    the probe's fan-out never lets one sink gate another."""

    CONFIGS = [("direct", {"processors": 4}), ("ring", {"processors": 4}),
               ("dataflow", {"processors": 2})]

    @pytest.fixture(scope="class")
    def trees(self):
        from repro.workload import benchmark_queries, generate_benchmark_database

        db = generate_benchmark_database(scale=0.05, seed=1)
        # Built once: node ids are process-global and appear in Chrome
        # event names, so every run must share the same trees.
        return db.catalog, benchmark_queries(db.catalog, db.relation_names, selectivity=0.3)

    def _observe(self, trees, trace, metrics, spans):
        from repro.host import build_machine

        catalog, queries = trees
        collector = SpanCollector() if spans else None
        with obs.observe(trace=trace, metrics=metrics) as session:
            with obs.collecting(collector) if spans else contextlib.nullcontext():
                obs.set_next_run_id(1)
                for name, kwargs in self.CONFIGS:
                    machine = build_machine(name, catalog, **kwargs)
                    for tree in queries:
                        machine.submit(tree)
                    machine.run()
        out = {}
        if trace:
            out["trace"] = session.tracer.chrome_trace()
        if metrics:
            out["metrics"] = session.metrics.dump()
        if spans:
            out["spans"] = [
                (r.name, r.start, r.end, r.rows, list(r.spans)) for r in collector.completed
            ]
        return out

    def test_each_sink_alone_equals_all_three(self, trees):
        alone = {}
        alone.update(self._observe(trees, True, False, False))
        alone.update(self._observe(trees, False, True, False))
        alone.update(self._observe(trees, False, False, True))
        together = self._observe(trees, True, True, True)
        assert set(together) == set(alone) == {"trace", "metrics", "spans"}
        for sink in ("trace", "metrics", "spans"):
            assert together[sink] == alone[sink], sink
        # Every sink saw the run: three machines' worth of queries and events.
        assert len(alone["spans"]) == 3 * len(trees[1])
        assert sum(len(record[4]) for record in alone["spans"]) > 0
        assert alone["metrics"]["counters"]["sim.events"] > 0
        assert len(alone["trace"]["traceEvents"]) > 0
