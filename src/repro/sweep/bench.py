"""The ``repro bench`` harness: the repo's wall-clock perf baseline.

Runs every experiment of :data:`repro.experiments.EXPERIMENTS` once
(instrumented, metrics on) and records wall-clock seconds plus simulator
events/second into a JSON report — ``BENCH_sweeps.json`` by default.
``--quick`` runs each row's quick kwargs; a full run calls ``run()``
with its own defaults, as ``repro run <name>`` does.  ``--scale`` and
``--workers`` reach only the experiments whose ``run()`` takes them.
Three special rows come first: a ``sim_core`` microbenchmark anchors the
raw event-loop throughput independently of any workload, and
``spans_overhead`` and ``wal_overhead`` price an armed span collector
and the write-ahead log.

The report schema (``repro-bench/v1``) is stable: existing keys keep
their names and meanings; new keys may be added.  Top level::

    schema        "repro-bench/v1"
    created_unix  wall-clock timestamp of the run
    host          {python, platform, cpu_count}
    quick         True for --quick
    scale         the --scale override (None: each experiment's own)
    workers       sweep worker processes (1 = serial)
    experiments   [{experiment, wall_s, sim_events, events_per_sec,
                    points, rows}, ...]
    totals        {wall_s, sim_events, events_per_sec}

``sim_events`` is the merged ``sim.events`` counter across every
simulator the experiment built; ``points`` is the number of independent
sweep points the experiment handed to :func:`repro.sweep.map_points`
(1 for an experiment that makes none).

**Trajectory** (``repro-bench/v2``): ``BENCH_sweeps.json`` holds the
perf history, not just the latest run — ``{schema, entries: [report,
...]}`` where each entry is a v1 report as above, oldest first.  ``repro
bench`` appends a new entry each run (a legacy single-report file is
upgraded in place), and ``repro bench --gate`` fails when any
experiment's events/sec drops more than :data:`GATE_THRESHOLD` below the
last committed entry — the CI job that runs it turns perf regressions
into red builds.
"""

from __future__ import annotations

import inspect
import json
import os
import platform
import time
from typing import List, Optional, Sequence

from repro import obs
from repro.experiments import EXPERIMENTS
from repro.sweep import runner

#: Default output path (repo root when run from there).
DEFAULT_OUT = "BENCH_sweeps.json"

BENCH_SCHEMA = "repro-bench/v1"

#: Schema of the trajectory file: a list of v1 reports, oldest first.
HISTORY_SCHEMA = "repro-bench/v2"

#: Default fractional events/sec drop (vs the last trajectory entry)
#: that fails the ``--gate`` check.
GATE_THRESHOLD = 0.2

#: Events scheduled+fired by the event-loop microbenchmark.
SIM_CORE_EVENTS = 200_000


def bench_names() -> List[str]:
    """Every row ``run_bench(only=...)`` can select, in run order."""
    return ["sim_core", "spans_overhead", "wal_overhead", *EXPERIMENTS]


def _sim_core_entry() -> dict:
    """Raw event-loop throughput: schedule and fire SIM_CORE_EVENTS noops."""
    from repro.sim.engine import Simulator

    sim = Simulator()  # uninstrumented: measures the bare heap loop

    def noop() -> None:
        pass

    start = time.perf_counter()
    for i in range(SIM_CORE_EVENTS):
        sim.schedule(float(i % 97), noop, label="bench")
    sim.run()
    wall = time.perf_counter() - start
    return {
        "experiment": "sim_core",
        "wall_s": round(wall, 4),
        "sim_events": SIM_CORE_EVENTS,
        "events_per_sec": round(SIM_CORE_EVENTS / wall) if wall > 0 else 0,
        "points": 1,
        "rows": 0,
    }


def _spans_overhead_entry() -> dict:
    """Traced vs untraced serving wall time: what an armed span collector
    costs.  One small ring serving run executes twice — identical config,
    with and without an ambient :class:`SpanCollector` — and the entry
    carries both rates so the trajectory can watch the overhead drift.
    The simulations are byte-identical (the tracing identity gate), so
    ``sim_events`` is the same count on both sides by construction.
    """
    from repro.obs import SpanCollector, collecting
    from repro.serve.service import ServeConfig, serve

    config = ServeConfig(machine="ring", rate_qps=40.0, duration_ms=800.0, scale=0.05)

    start = time.perf_counter()
    untraced = serve(config)
    untraced_wall = time.perf_counter() - start

    start = time.perf_counter()
    with collecting(SpanCollector()):
        serve(config)
    traced_wall = time.perf_counter() - start

    events = int(untraced["events_processed"])  # type: ignore[call-overload]
    wall = untraced_wall + traced_wall
    return {
        "experiment": "spans_overhead",
        "wall_s": round(wall, 4),
        "sim_events": 2 * events,
        "events_per_sec": round(2 * events / wall) if wall > 0 else 0,
        "points": 2,
        "rows": 0,
        "untraced_events_per_sec": round(events / untraced_wall)
        if untraced_wall > 0
        else 0,
        "traced_events_per_sec": round(events / traced_wall) if traced_wall > 0 else 0,
        "overhead_frac": round(traced_wall / untraced_wall - 1.0, 4)
        if untraced_wall > 0
        else 0.0,
    }


def _wal_overhead_entry() -> dict:
    """Write-transaction durability cost on the ring machine.

    The same mixed-stream shape runs twice, crash-free: a read-only
    stream (``write_fraction=0``) and a half-write stream with the WAL
    armed — update locking, page logging, commit forces, and fuzzy
    checkpoints all live.  ``overhead_frac`` is the wall-time ratio; the
    ``events_per_sec`` of the combined pair sits under the trajectory's
    >20% regression gate like every other row.
    """
    from repro.recovery.harness import run_crash_trial

    start = time.perf_counter()
    base = run_crash_trial(
        machine="ring", seed=7, write_fraction=0.0, crash_rate=0.0, queries=10
    )
    base_wall = time.perf_counter() - start

    start = time.perf_counter()
    walled = run_crash_trial(
        machine="ring", seed=7, write_fraction=0.5, crash_rate=0.0, queries=10
    )
    wal_wall = time.perf_counter() - start

    events = base.events + walled.events
    wall = base_wall + wal_wall
    return {
        "experiment": "wal_overhead",
        "wall_s": round(wall, 4),
        "sim_events": events,
        "events_per_sec": round(events / wall) if wall > 0 else 0,
        "points": 2,
        "rows": 0,
        "read_events_per_sec": round(base.events / base_wall) if base_wall > 0 else 0,
        "write_events_per_sec": round(walled.events / wal_wall) if wal_wall > 0 else 0,
        "overhead_frac": round(wal_wall / base_wall - 1.0, 4) if base_wall > 0 else 0.0,
        "commits": walled.commits,
        "aborts": walled.aborts,
    }


def run_bench(
    quick: bool = True,
    scale: Optional[float] = None,
    workers: Optional[int] = None,
    only: Optional[Sequence[str]] = None,
) -> dict:
    """Run the bench suite and return the report dict (see module docstring)."""
    entries = [_sim_core_entry()] if not only or "sim_core" in only else []
    if not only or "spans_overhead" in only:
        entries.append(_spans_overhead_entry())
    if not only or "wal_overhead" in only:
        entries.append(_wal_overhead_entry())
    for row in EXPERIMENTS.values():
        if only and row.name not in only:
            continue
        run = row.load().run
        kwargs = dict(row.quick) if quick else {}
        accepted = inspect.signature(run).parameters
        for key, value in (("scale", scale), ("workers", workers)):
            if value is not None and key in accepted:
                kwargs[key] = value
        points_before = runner.points_made
        with obs.observe(trace=False, metrics=True) as session:
            start = time.perf_counter()
            result = run(**kwargs)
            wall = time.perf_counter() - start
        events = int(session.metrics.value("sim.events"))
        entries.append(
            {
                "experiment": row.name,
                "wall_s": round(wall, 4),
                "sim_events": events,
                "events_per_sec": round(events / wall) if wall > 0 else 0,
                "points": max(1, runner.points_made - points_before),
                "rows": len(result.rows),
            }
        )
    total_wall = sum(e["wall_s"] for e in entries)
    total_events = sum(e["sim_events"] for e in entries)
    return {
        "schema": BENCH_SCHEMA,
        "created_unix": round(time.time(), 3),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "quick": quick,
        "scale": scale,
        "workers": workers if workers is not None else 1,
        "experiments": entries,
        "totals": {
            "wall_s": round(total_wall, 4),
            "sim_events": total_events,
            "events_per_sec": round(total_events / total_wall) if total_wall > 0 else 0,
        },
    }


def write_bench(report: dict, path: str = DEFAULT_OUT) -> None:
    """Write a bench report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_history(path: str = DEFAULT_OUT) -> dict:
    """The bench trajectory at ``path``; a missing file is an empty one.

    Accepts both file shapes: a v2 history is returned as-is, and a
    legacy single v1 report is wrapped as a one-entry history so the
    next append upgrades the file in place.
    """
    if not os.path.exists(path):
        return {"schema": HISTORY_SCHEMA, "entries": []}
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("schema") == HISTORY_SCHEMA:
        return data
    return {"schema": HISTORY_SCHEMA, "entries": [data]}


def append_bench(report: dict, path: str = DEFAULT_OUT) -> dict:
    """Append ``report`` to the trajectory at ``path``; returns the history."""
    history = load_history(path)
    history["entries"].append(report)
    write_bench(history, path)
    return history


def compare_entries(prev: dict, new: dict, threshold: float = GATE_THRESHOLD) -> List[str]:
    """Regression descriptions for ``new`` against the older report ``prev``.

    Every experiment present in both reports — ``sim_core`` and the
    sweeps alike — must keep its events/sec within ``threshold`` of the
    old rate.  An empty list means the gate passes; experiments that
    appear in only one report are skipped (the suite may grow).
    """
    prev_rates = {e["experiment"]: e["events_per_sec"] for e in prev["experiments"]}
    failures: List[str] = []
    for entry in new["experiments"]:
        name = entry["experiment"]
        before = prev_rates.get(name)
        if not before:
            continue
        after = entry["events_per_sec"]
        if after < before * (1.0 - threshold):
            failures.append(
                f"{name}: {after} ev/s is {1.0 - after / before:.0%} below the "
                f"last trajectory entry ({before} ev/s; allowed drop {threshold:.0%})"
            )
    return failures
