"""E17 (extension): recovery sweep — write-fraction x crash-rate x machine.

The paper's machines never lose power: Section 4's requirement 5 covers
*component* failures (a disabled processor), not a whole-machine crash
mid-transaction.  The durability extension adds exactly that: a WAL with
fuzzy checkpoints (DESIGN.md §13) and an ARIES-style restart.  This
experiment is its acceptance gate — a grid of
``(machine, write_fraction, crash_rate)`` cells where every crash tears
eligible dirty pages, corrupts the unforced log tail, and must still
recover to a stable store **byte-identical** to the interpreter replay
of the recovered commit list (with every acknowledged commit in it).

``crash_rate = 0`` cells double as the no-crash control: the shutdown
checkpoint alone must carry the full committed state.

Each cell is one :func:`repro.recovery.harness.run_crash_trial`; the
grid fans out over :func:`repro.sweep.map_points` deterministically.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import ExperimentResult
from repro.host import MACHINES
from repro.recovery.harness import run_crash_trial
from repro.sweep import map_points


def _point(
    machine: str,
    seed: int,
    write_fraction: float,
    crash_rate: float,
    scale: float,
    crash_at_ms: float,
    queries: int,
    page_bytes: int,
    processors: int,
) -> dict:
    """One recovery cell (module-level so ``map_points`` can pickle it)."""
    trial = run_crash_trial(
        machine=machine,
        seed=seed,
        scale=scale,
        write_fraction=write_fraction,
        crash_rate=crash_rate,
        crash_at_ms=crash_at_ms,
        queries=queries,
        page_bytes=page_bytes,
        processors=processors,
    )
    rec = trial.recovery or {}
    return {
        "crashed": trial.crashed,
        "commits": trial.commits,
        "aborts": trial.aborts,
        "committed": len(trial.committed),
        "redo": rec.get("redo_applied", 0),
        "undo": rec.get("undo_applied", 0),
        "torn_repaired": len(trial.damaged_repaired),
        "byte_identical": trial.byte_identical,
        "acknowledged_durable": trial.acknowledged_durable,
        "ok": trial.ok,
    }


def run(
    machines: Sequence[str] = MACHINES,
    write_fractions: Sequence[float] = (0.25, 0.5, 1.0),
    crash_rates: Sequence[float] = (0.0, 0.5, 1.0),
    seed: int = 1980,
    scale: float = 0.02,
    crash_at_ms: float = 250.0,
    queries: int = 12,
    page_bytes: int = 2048,
    processors: int = 4,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """The recovery grid; every cell must report ``ok``.

    Row fields: ``machine``, ``write_fraction``, ``crash_rate``,
    ``crashed``, ``commits``/``aborts`` (as acknowledged before the
    cut), ``committed`` (recovered commit count), ``redo``/``undo``
    (restart record counts), ``torn_repaired``, ``byte_identical``,
    ``acknowledged_durable``, ``ok``.
    """
    result = ExperimentResult(
        experiment_id="E17 (extension)",
        title="Recovery sweep: byte-identical restart after stateful crashes",
        parameters={
            "seed": seed,
            "scale": scale,
            "crash_at_ms": crash_at_ms,
            "queries": queries,
            "processors": processors,
        },
    )
    grid = [
        (machine, wf, cr)
        for machine in machines
        for wf in write_fractions
        for cr in crash_rates
    ]
    points = [
        dict(
            machine=machine,
            seed=seed,
            write_fraction=wf,
            crash_rate=cr,
            scale=scale,
            crash_at_ms=crash_at_ms,
            queries=queries,
            page_bytes=page_bytes,
            processors=processors,
        )
        for machine, wf, cr in grid
    ]
    cells = map_points(_point, points, workers=workers)
    for (machine, wf, cr), cell in zip(grid, cells):
        row = {"machine": machine, "write_fraction": wf, "crash_rate": cr}
        row.update(cell)
        result.rows.append(row)
    return result


def main() -> None:  # pragma: no cover - manual entry point
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
