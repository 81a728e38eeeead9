"""The ``repro check`` determinism linter.

A small AST-based static pass over the repo's own sources enforcing the
invariants that keep simulation runs bit-for-bit reproducible:

========  ==============================================================
R001      no ad-hoc ``random`` module calls outside ``repro/sim/random.py``
R002      no wall-clock reads (``time.time()``, ``datetime.now()``) inside
          simulator packages
R003      no iteration over bare ``set``/``frozenset``/``dict.keys()`` in
          scheduling or packet-emitting modules unless order is forced
          (``sorted(...)`` or an insertion-ordered container)
R004      no float ``==``/``!=`` on simulation timestamps
R008      no mutable default arguments in simulation or serving code
R009      ambient contexts (``sanitizing()``, ...) entered with ``with``
R010      ``json.dumps``/``json.dump`` pass ``sort_keys=True``
R011      machine code mutates pages only through logged transactions
========  ==============================================================

Findings carry ``path:line:col``; a finding is suppressed by putting
``# repro: allow[RNNN]`` on the flagged line.  There is deliberately no
``--fix`` mode — each rule points at a design decision, not a mechanical
rewrite.

The public entry points are :func:`lint_paths` (walk files/directories)
and :func:`self_test` (seed each rule's canonical violation through the
linter and fail if any rule goes quiet or has no seed — the CI gate
that the gate itself still works).
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, List, Sequence

#: Matches ``# repro: allow[R001]`` / ``# repro: allow[R001,R003]``.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def module_rel(path: str) -> str:
    """The ``repro/...``-relative form of ``path`` used for rule scoping.

    Rules scope on package paths (``repro/sim/...``); the linter may be
    handed absolute paths, ``src/``-prefixed paths, or temp-dir copies, so
    we key on the last ``repro/`` segment.  Paths with no ``repro/``
    segment scope as their basename (unscoped rules still apply).
    """
    posix = path.replace(os.sep, "/")
    marker = "repro/"
    index = posix.rfind("/" + marker)
    if index >= 0:
        return posix[index + 1 :]
    if posix.startswith(marker):
        return posix
    return posix.rsplit("/", 1)[-1]


def _suppressed_lines(source: str) -> dict:
    """Map line number -> set of rule ids allowed on that line.

    A line may carry several ``allow[...]`` groups and each group may
    list several comma-separated ids; all of them are honored.
    """
    allowed: dict = {}
    for number, text in enumerate(source.splitlines(), start=1):
        ids = {
            rule.strip()
            for match in _ALLOW_RE.finditer(text)
            for rule in match.group(1).split(",")
            if rule.strip()
        }
        if ids:
            allowed[number] = ids
    return allowed


def lint_source(source: str, path: str) -> List[Finding]:
    """Lint one file's text; returns findings sorted by location."""
    from repro.check.rules import ALL_RULES

    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="R000",
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    rel = module_rel(path)
    allowed = _suppressed_lines(source)
    findings: List[Finding] = []
    for rule in ALL_RULES:
        if not rule.applies_to(rel):
            continue
        for line, col, message in rule.check(tree):
            if rule.rule_id in allowed.get(line, ()):
                continue
            findings.append(
                Finding(rule=rule.rule_id, path=path, line=line, col=col, message=message)
            )
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            yield path


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``."""
    findings: List[Finding] = []
    for filename in iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        findings.extend(lint_source(source, filename))
    return findings


def render_text(findings: Iterable[Finding]) -> str:
    lines = [f.render() for f in findings]
    lines.append(f"{len(lines)} finding(s)")
    return "\n".join(lines)


def render_json(findings: Iterable[Finding]) -> str:
    items = [asdict(f) for f in findings]
    return json.dumps({"findings": items, "count": len(items)}, indent=2, sort_keys=True)


# ---------------------------------------------------------------------- self-test

#: One canonical violation per rule, written as it would appear in a
#: scheduling module.  ``self_test`` feeds each through the linter and
#: demands the rule fires — catching a rule that silently stopped
#: matching (the static-analysis analogue of a test for the tests).  A
#: rule registered in ``ALL_RULES`` without a seed here fails the
#: self-test too, so no rule escapes it.
SEEDED_VIOLATIONS = {
    "R001": "import random\nrng = random.Random(7)\n",
    "R002": "import time\nstamp = time.time()\n",
    "R003": "pending: set = set()\nfor item in pending:\n    print(item)\n",
    "R004": "def f(now, deadline):\n    return now == deadline\n",
    "R008": "def f(pending=[]):\n    return pending\n",
    "R009": "def f():\n    ctx = sanitizing()\n    return ctx\n",
    "R010": "import json\ndef f(report):\n    return json.dumps(report)\n",
    "R011": (
        "def deliver_update(self, page, row):\n"
        "    page.mutate_row(0, row)\n"
    ),
}

#: Scoped rules are exercised against a path inside their scope.
_SELF_TEST_PATH = "repro/sim/_selftest.py"

#: Rules whose scope excludes the default path pick their own stand-in.
_SELF_TEST_PATHS = {
    "R011": "repro/ring/_selftest.py",
}


def self_test() -> List[str]:
    """Return a list of problems (empty == every rule fires and suppresses)."""
    from repro.check.rules import ALL_RULES

    problems: List[str] = [
        f"{rule.rule_id}: registered rule has no seeded violation"
        for rule in ALL_RULES
        if rule.rule_id not in SEEDED_VIOLATIONS
    ]
    for rule_id, snippet in sorted(SEEDED_VIOLATIONS.items()):
        test_path = _SELF_TEST_PATHS.get(rule_id, _SELF_TEST_PATH)
        hits = [f for f in lint_source(snippet, test_path) if f.rule == rule_id]
        if not hits:
            problems.append(f"{rule_id}: seeded violation not detected")
            continue
        suppressed = _suppress_all(snippet, rule_id)
        still = [f for f in lint_source(suppressed, test_path) if f.rule == rule_id]
        if still:
            problems.append(f"{rule_id}: allow[] comment did not suppress the finding")
    # One line can violate two rules; a single comma-separated allow[]
    # group must silence both.
    multi = (
        "import time, random\n"
        "x = random.random() + time.time()  # repro: allow[R001,R002]\n"
    )
    if lint_source(multi, _SELF_TEST_PATH):
        problems.append("allow[R001,R002]: comma-separated ids not honored")
    return problems


def _suppress_all(snippet: str, rule_id: str) -> str:
    """Append an allow comment to every line of ``snippet``."""
    return "\n".join(
        f"{line}  # repro: allow[{rule_id}]" if line.strip() else line
        for line in snippet.splitlines()
    )
