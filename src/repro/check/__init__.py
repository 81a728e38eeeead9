"""``repro.check`` — the correctness-tooling layer.

Two prongs keep both simulators bit-deterministic and leak-free:

* :mod:`repro.check.lint` — an AST-based static linter with project
  rules (seeded randomness, wall-clock leaks, unordered iteration near
  event scheduling, float timestamp equality, mutable defaults, ambient
  contexts outside ``with``, unsorted report serialization, and
  unlogged page mutation).  ``python -m repro check src`` gates CI.
* :mod:`repro.check.sanitizer` — a runtime sanitizer the simulators can
  run under (``repro run <experiment> --sanitize``) that detects delay
  corruption, same-timestamp order hazards, cache frame-accounting bugs,
  ring packet-conservation violations, and WAL invariant breaks.

Only the sanitizer's entry points are re-exported here; the linter is a
CLI/test tool and is imported on demand.
"""

from __future__ import annotations

from repro.check.sanitizer import Sanitizer, is_active, sanitizing

__all__ = ["Sanitizer", "is_active", "sanitizing"]
