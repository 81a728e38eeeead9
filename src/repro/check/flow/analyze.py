"""Driver for ``repro check --flow``: analyses -> findings.

One finding family, numbered apart from the per-function lint rules
(R-prefixed) because it is a whole-program property:

========  ==============================================================
F001      lock-order cycle (potential deadlock); the message carries one
          witness call chain per edge of the cycle
========  ==============================================================

Findings reuse :class:`repro.check.lint.Finding` and honor the same
``# repro: allow[...]`` line suppressions, so the CLI renders lint and
flow output through one pipeline.  :func:`flow_self_test` seeds a
deadlock cycle through the analysis and fails if it goes quiet — the
same gate-for-the-gate contract as ``repro.check.lint.self_test``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Set

from repro.check.flow.callgraph import CallGraph, build_call_graph
from repro.check.flow.lockorder import analyze_lock_order
from repro.check.lint import Finding, _suppressed_lines, iter_python_files

LOCK_CYCLE_RULE = "F001"


def flow_findings(graph: CallGraph) -> List[Finding]:
    """Run the lock-order analysis over one call graph."""
    findings: List[Finding] = []

    lock_order = analyze_lock_order(graph)
    for cycle in lock_order.cycles:
        anchor = cycle.edges[0].source if cycle.edges else None
        if anchor is None:  # pragma: no cover - cycles always carry edges
            continue
        findings.append(
            Finding(
                rule=LOCK_CYCLE_RULE,
                path=anchor.path,
                line=anchor.line,
                col=anchor.col,
                message=f"potential deadlock: {cycle.render()}",
            )
        )

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def analyze_paths(paths: Sequence[str]) -> List[Finding]:
    """Build the call graph under ``paths`` and report flow findings.

    ``# repro: allow[F001]``-style comments on the flagged line suppress
    a finding exactly as they do for lint rules.
    """
    graph = build_call_graph(paths)
    findings = flow_findings(graph)
    if not findings:
        return findings
    suppressions: Dict[str, Dict[int, Set[str]]] = {}
    kept: List[Finding] = []
    for finding in findings:
        if finding.path not in suppressions:
            allowed: Dict[int, Set[str]] = {}
            if os.path.isfile(finding.path):
                with open(finding.path, "r", encoding="utf-8") as handle:
                    allowed = _suppressed_lines(handle.read())
            suppressions[finding.path] = allowed
        if finding.rule in suppressions[finding.path].get(finding.line, ()):
            continue
        kept.append(finding)
    return kept


# ---------------------------------------------------------------------- self-test

#: Canonical seeded violations, one per flow finding family.  Each is a
#: standalone module the analyses must flag when indexed on its own.
SEEDED_FLOW_VIOLATIONS = {
    LOCK_CYCLE_RULE: (
        "class Worker:\n"
        "    def grab_ab(self, request):\n"
        "        self.lock_a.acquire(request)\n"
        "        self.lock_b.acquire(request)\n"
        "        self.lock_b.release(request)\n"
        "        self.lock_a.release(request)\n"
        "\n"
        "    def grab_ba(self, request):\n"
        "        self.lock_b.acquire(request)\n"
        "        self.lock_a.acquire(request)\n"
        "        self.lock_a.release(request)\n"
        "        self.lock_b.release(request)\n"
    ),
}

_SELF_TEST_PATH = "repro/sim/_flowtest.py"


def _findings_for_snippet(snippet: str) -> List[Finding]:
    graph = CallGraph()
    graph.add_module(snippet, _SELF_TEST_PATH)
    graph.freeze()
    return flow_findings(graph)


def flow_self_test() -> List[str]:
    """Problems with the flow analyses themselves (empty == healthy)."""
    problems: List[str] = []
    for rule_id, snippet in sorted(SEEDED_FLOW_VIOLATIONS.items()):
        hits = [f for f in _findings_for_snippet(snippet) if f.rule == rule_id]
        if not hits:
            problems.append(f"{rule_id}: seeded violation not detected")
            continue
        if rule_id == LOCK_CYCLE_RULE and not any(
            "->" in f.message and "acquire" in f.message for f in hits
        ):
            problems.append(f"{rule_id}: cycle report carries no witness chain")
    return problems
