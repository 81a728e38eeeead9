"""R011 — machine code mutates pages only through logged transactions.

The durability contract (DESIGN.md §13) is write-ahead logging: every
in-place page or heap-file mutation a machine performs must be staged
through the transaction layer so redo/undo images exist before the
bytes move.  A bare ``page.mutate_row(...)`` or ``heap.delete_where(...)``
in machine code is an unlogged write — invisible to restart, silently
divergent after a crash.

The rule is local and *fails closed*: a call to one of the mutating
entry points is flagged unless the enclosing function visibly holds a
transaction handle (a ``txn`` name, a ``.txn`` attribute such as the
machines' ``self.txn`` manager, or a ``stage_rows``/``apply_write``
call) — the lexical evidence that the write is being logged.  The rule
does not prove the handle is actually *used* for this write; absence of
any handle is already a finding.  Suppress deliberate exceptions with
``# repro: allow[R011]``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.rules.base import Rule, Violation, in_packages

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: The machine packages: code that executes query packets against pages.
_SCOPE = ("repro/ring/", "repro/direct/", "repro/dataflow/")

#: In-place mutation entry points of Page / HeapFile.  Names generic
#: enough to collide with stdlib containers (``append``, ``update``,
#: ``insert``, ``clear``) are left to the staging-layer review; these
#: four only exist on the storage substrate.
_MUTATORS = frozenset({"mutate_row", "delete_where", "insert_many", "vacuum"})

#: Lexical evidence that the enclosing function works through the
#: transaction layer.
_TXN_NAMES = frozenset({"txn", "tm"})
_TXN_CALLS = frozenset({"stage_rows", "apply_write", "begin", "commit"})


def _has_txn_evidence(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id in _TXN_NAMES:
            return True
        if isinstance(node, ast.Attribute) and node.attr in _TXN_NAMES:
            return True
        if isinstance(node, ast.arg) and node.arg in _TXN_NAMES:
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _TXN_CALLS
        ):
            return True
    return False


class PageMutationRule(Rule):
    rule_id = "R011"

    def applies_to(self, module: str) -> bool:
        return in_packages(module, _SCOPE)

    def check(self, tree: ast.AST) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, _FUNCTION_NODES):
                yield from self._check_function(node)

    def _check_function(self, func: ast.AST) -> Iterator[Violation]:
        logged = _has_txn_evidence(func)
        # Stop at nested defs: an inner function is its own scope and is
        # visited by the outer ast.walk in check().
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop(0)
            if isinstance(node, _FUNCTION_NODES):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and not logged
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"unlogged page mutation {node.func.attr!r} in machine "
                    f"code: {func.name!r} holds no transaction handle "
                    "(txn/tm/stage_rows/apply_write), so this write has "
                    "no redo/undo images and vanishes on crash recovery",
                )


RULE = PageMutationRule()
