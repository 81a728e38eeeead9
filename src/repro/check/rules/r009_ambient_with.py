"""R009 — ambient contexts are entered with ``with``.

The ambient toggles (:func:`repro.check.sanitizer.sanitizing`,
``injecting``, ``collecting``) flip process-global state and rely on
their ``finally`` blocks to restore it.  Calling one without entering it
does nothing; entering it manually (``ctx.__enter__()``) leaks the
global flip past the first exception.
Either way the damage is invisible locally and surfaces as cross-run
nondeterminism three modules away.

A call to an ambient context passes only when it is

* the context expression of a ``with`` / ``async with`` item, or
* the argument of an ``ExitStack.enter_context(...)`` /
  ``enter_async_context(...)`` call (the dynamic equivalent).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.check.rules.base import Rule, Violation

#: The ambient context-manager factories, by bare or attribute name.
_AMBIENT_NAMES = frozenset({"sanitizing", "injecting", "collecting"})
_ENTER_NAMES = frozenset({"enter_context", "enter_async_context"})


def _called_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


class AmbientWithRule(Rule):
    rule_id = "R009"

    def check(self, tree: ast.AST) -> Iterator[Violation]:
        sanctioned: Set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    sanctioned.add(id(item.context_expr))
            elif isinstance(node, ast.Call) and _called_name(node) in _ENTER_NAMES:
                for arg in node.args:
                    sanctioned.add(id(arg))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name in _AMBIENT_NAMES and id(node) not in sanctioned:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"ambient context {name}(...) used outside a with "
                    "statement; its global flip is only restored by the "
                    "context exit — use 'with' or ExitStack.enter_context",
                )


RULE = AmbientWithRule()
