"""Parallel sweep execution and the perf-baseline bench harness.

* :func:`map_points` — process-pool fan-out of independent sweep points
  with deterministic ordering and metrics merge (see
  :mod:`repro.sweep.runner`).
* :mod:`repro.sweep.bench` — the ``repro bench`` harness: wall-clock and
  events/second per experiment, recorded to ``BENCH_sweeps.json``.
"""

from repro.sweep.runner import effective_workers, map_points

__all__ = ["effective_workers", "map_points"]
