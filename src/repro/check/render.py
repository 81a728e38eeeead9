"""Output renderers for ``repro check`` findings.

One pipeline for both finding families (lint R-rules and flow
F-analyses), four formats:

``text``
    ``path:line:col: RULE message`` lines plus a count — the terminal
    default.
``json``
    A stable machine-readable document (keys sorted).
``sarif``
    Minimal SARIF 2.1.0 for code-scanning upload; one run, one driver,
    rule metadata included so viewers show the short description.
``github``
    GitHub Actions workflow commands (``::error file=...``) so findings
    annotate the offending lines inline on a PR.

Exit-code contract (documented in the README): ``repro check`` exits 0
with no findings, 1 when any finding survives suppression, 2 when the
``--self-test`` gate finds the analyzers themselves broken.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Iterable, List

from repro.check.lint import Finding

#: Short descriptions surfaced in SARIF rule metadata and annotations.
RULE_DESCRIPTIONS = {
    "R000": "file does not parse",
    "R001": "ad-hoc random calls outside the seeded RNG module",
    "R002": "wall-clock reads inside simulator packages",
    "R003": "iteration over unordered sets in scheduling code",
    "R004": "float equality on simulation timestamps",
    "R005": "Resource.acquire without a paired release",
    "R006": "inconsistent lock acquisition order within a module",
    "R008": "mutable default argument in simulation/serving code",
    "R009": "ambient context used outside a with statement",
    "R010": "json serialization without sort_keys=True",
    "F001": "interprocedural lock-order cycle (potential deadlock)",
}


def render_text(findings: Iterable[Finding]) -> str:
    lines = [f.render() for f in findings]
    lines.append(f"{len(lines)} finding(s)")
    return "\n".join(lines)


def render_json(findings: Iterable[Finding]) -> str:
    items = [asdict(f) for f in findings]
    return json.dumps({"findings": items, "count": len(items)}, indent=2, sort_keys=True)


def render_github(findings: Iterable[Finding]) -> str:
    """GitHub Actions ``::error`` workflow commands, one per finding."""
    lines: List[str] = []
    for finding in findings:
        message = finding.message.replace("%", "%25").replace("\n", "%0A")
        lines.append(
            f"::error file={finding.path},line={finding.line},"
            f"col={finding.col + 1},title={finding.rule}::{message}"
        )
    if not lines:
        return "::notice::repro check: 0 finding(s)"
    return "\n".join(lines)


def render_sarif(findings: Iterable[Finding]) -> str:
    """Minimal SARIF 2.1.0 document for code-scanning upload."""
    results = []
    used_rules = set()
    for finding in findings:
        used_rules.add(finding.rule)
        results.append(
            {
                "ruleId": finding.rule,
                "level": "error",
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.path.replace("\\", "/")
                            },
                            "region": {
                                "startLine": finding.line,
                                # SARIF columns are 1-based; AST cols 0-based.
                                "startColumn": finding.col + 1,
                            },
                        }
                    }
                ],
            }
        )
    rules = [
        {
            "id": rule_id,
            "shortDescription": {"text": RULE_DESCRIPTIONS.get(rule_id, rule_id)},
        }
        # Always publish the full rule table: a clean run should still
        # tell the viewer which checks ran.
        for rule_id in sorted(RULE_DESCRIPTIONS)
    ]
    document = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-check",
                        "informationUri": "https://example.invalid/repro",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


_RENDERERS = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
    "github": render_github,
}

FORMATS = tuple(sorted(_RENDERERS))


def render(findings: Iterable[Finding], fmt: str) -> str:
    """Render findings in ``fmt`` (one of :data:`FORMATS`)."""
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}") from None
    return renderer(list(findings))
