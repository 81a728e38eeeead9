"""``repro.check`` — the correctness-tooling layer.

Two prongs keep both simulators bit-deterministic and leak-free:

* :mod:`repro.check.lint` — an AST-based static linter with project
  rules (seeded randomness, wall-clock leaks, unordered iteration near
  event scheduling, float timestamp equality, acquire/release pairing,
  per-module lock order, mutable defaults, ambient contexts outside
  ``with``, unsorted report serialization, and in-place page mutation).
  ``python -m repro check src`` gates CI, and :mod:`repro.check.flow`
  layers the interprocedural static deadlock detection (F001) on top
  via ``repro check --flow``.
* :mod:`repro.check.sanitizer` — a runtime sanitizer the simulators can
  run under (``repro run <experiment> --sanitize``) that detects delay
  corruption, same-timestamp order hazards, resource-lease leaks, cache
  frame-accounting bugs, ring packet-conservation violations, and —
  through the ambient :class:`~repro.check.sanitizer.LockOrderWitness`
  — runtime lock-order inversions.

Only the sanitizer's entry points are re-exported here; the linter and
flow analyses are CLI/test tools and are imported on demand.
"""

from __future__ import annotations

from repro.check.sanitizer import (
    LockOrderWitness,
    Sanitizer,
    active_witness,
    is_active,
    sanitizing,
)

__all__ = [
    "LockOrderWitness",
    "Sanitizer",
    "active_witness",
    "is_active",
    "sanitizing",
]
