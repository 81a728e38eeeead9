"""``repro.check.flow`` — interprocedural lock-order analysis.

The per-function AST linter (:mod:`repro.check.lint`) proves *local*
properties; this subpackage proves one that spans call graphs.
:mod:`repro.check.flow.lockorder` extracts every ``LockManager`` acquire
site, builds the inter-site lock-order graph by walking the call graph
through the code each site executes while its locks are held, and
reports cycles as potential deadlocks together with the witness call
chains that realise each edge.

It is built on :mod:`repro.check.flow.callgraph`, a conservative
name-based call graph over the parsed project sources.  The driver is
:func:`repro.check.flow.analyze.analyze_paths` (``repro check --flow``).
"""

from __future__ import annotations

from repro.check.flow.analyze import analyze_paths, flow_self_test
from repro.check.flow.callgraph import CallGraph, build_call_graph
from repro.check.flow.lockorder import LockOrderAnalysis, analyze_lock_order

__all__ = [
    "CallGraph",
    "LockOrderAnalysis",
    "analyze_lock_order",
    "analyze_paths",
    "build_call_graph",
    "flow_self_test",
]
