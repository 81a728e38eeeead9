"""The bench trajectory file and its regression gate."""

import json

from repro.sweep import bench


def _report(**rates):
    return {
        "schema": bench.BENCH_SCHEMA,
        "experiments": [
            {"experiment": name, "events_per_sec": rate, "wall_s": 1.0, "sim_events": rate}
            for name, rate in rates.items()
        ],
    }


def test_load_history_missing_file_is_empty(tmp_path):
    history = bench.load_history(str(tmp_path / "nope.json"))
    assert history == {"schema": bench.HISTORY_SCHEMA, "entries": []}


def test_load_history_wraps_legacy_v1_report(tmp_path):
    path = tmp_path / "BENCH.json"
    legacy = _report(sim_core=1000)
    path.write_text(json.dumps(legacy))
    history = bench.load_history(str(path))
    assert history["schema"] == bench.HISTORY_SCHEMA
    assert history["entries"] == [legacy]


def test_append_bench_grows_the_trajectory(tmp_path):
    path = str(tmp_path / "BENCH.json")
    bench.append_bench(_report(sim_core=1000), path)
    history = bench.append_bench(_report(sim_core=1100), path)
    assert [e["experiments"][0]["events_per_sec"] for e in history["entries"]] == [1000, 1100]
    on_disk = json.loads(open(path).read())
    assert on_disk["schema"] == bench.HISTORY_SCHEMA
    assert len(on_disk["entries"]) == 2


def test_append_upgrades_legacy_file_in_place(tmp_path):
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps(_report(sim_core=900)))
    history = bench.append_bench(_report(sim_core=950), str(path))
    assert len(history["entries"]) == 2
    assert json.loads(path.read_text())["schema"] == bench.HISTORY_SCHEMA


def test_compare_entries_passes_within_threshold():
    prev = _report(sim_core=1000, figure_3_1=500)
    new = _report(sim_core=850, figure_3_1=2000)  # -15% and a big win
    assert bench.compare_entries(prev, new) == []


def test_compare_entries_fails_beyond_threshold():
    prev = _report(sim_core=1000)
    new = _report(sim_core=700)  # -30% > the 20% allowance
    failures = bench.compare_entries(prev, new)
    assert len(failures) == 1
    assert "sim_core" in failures[0]


def test_compare_entries_skips_experiments_not_in_both():
    prev = _report(sim_core=1000)
    new = _report(brand_new=10)
    assert bench.compare_entries(prev, new) == []


def test_compare_entries_custom_threshold():
    prev = _report(sim_core=1000)
    new = _report(sim_core=950)
    assert bench.compare_entries(prev, new, threshold=0.01) != []


def test_bench_only_rejects_unknown_names(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "bench.json"
    out.write_text("sentinel")
    # E8's old bench row name; the bench now uses the ``repro run`` names.
    code = main(["bench", "--quick", "--gate", "--only", "granularity_tuple", "--out", str(out)])
    assert code == 2
    printed = capsys.readouterr().out
    assert "granularity_tuple" in printed
    for name in bench.bench_names():
        assert name in printed
    assert {"sim_core", "spans_overhead", "wal_overhead", "tuple_granularity"} <= set(
        bench.bench_names()
    )
    assert out.read_text() == "sentinel"  # the trajectory is untouched
