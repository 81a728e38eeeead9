"""The experiment registry: one table read by the CLI, the identity gate
and the bench harness."""

import inspect
import subprocess
import sys

import pytest

from repro.cli import main
from repro.experiments import EXPERIMENTS
from repro.sweep import bench


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_quick_kwargs_bind_to_run(name):
    row = EXPERIMENTS[name]
    assert row.name == name
    inspect.signature(row.load().run).bind(**row.quick)


def test_list_prints_rows_in_table_order(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()[2:]
    assert [line.split()[0] for line in lines] == list(EXPERIMENTS)
    for line, row in zip(lines, EXPERIMENTS.values()):
        assert line.endswith(row.summary)


def test_bench_names_are_special_rows_then_table():
    assert bench.bench_names() == ["sim_core", "spans_overhead", "wal_overhead", *EXPERIMENTS]


def test_cli_import_loads_no_experiment_module():
    code = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.experiments.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_bench_counts_points_and_filters_overrides():
    # packets makes no sweep points and its run() takes neither --scale
    # nor --workers; ring_vs_direct's quick grid is 1 IP count x 3 variants.
    report = bench.run_bench(quick=True, scale=0.05, workers=1, only=["packets", "ring_vs_direct"])
    points = {e["experiment"]: e["points"] for e in report["experiments"]}
    assert points == {"packets": 1, "ring_vs_direct": 3}
    assert report["scale"] == 0.05
