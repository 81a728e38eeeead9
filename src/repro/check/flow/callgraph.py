"""A conservative name-based call graph over the project sources.

The graph is deliberately simple: Python has no static dispatch, so a
whole-program analysis that never misses an edge must over-approximate.
Resolution is by *name*, scoped by what the AST can see:

* ``foo(...)``        -> functions named ``foo`` in the same module, else
  every module-level function named ``foo`` anywhere in the project;
* ``self.foo(...)``   -> methods named ``foo`` on the lexically enclosing
  class, else every method named ``foo`` in the project (subclass and
  duck-typed dispatch both land here);
* ``obj.foo(...)``    -> every function or method named ``foo`` in the
  project.

Over-approximation is the right failure mode for the lock-order
analysis: it may report a cycle that cannot happen (suppressable), but
never silently misses a real one.

Everything iterates in sorted order so reports are byte-deterministic.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.check.lint import iter_python_files, module_rel


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    name: str  #: called attribute/function name (``foo`` in ``a.b.foo()``)
    receiver: str  #: dotted receiver text (``a.b``), "" for bare calls
    line: int
    col: int


@dataclass
class FunctionInfo:
    """One function or method definition in the indexed project."""

    qualname: str  #: ``repro/ring/master.py::MasterController.try_admit``
    module: str  #: ``repro/...``-relative path
    path: str  #: the path the file was loaded from (for findings)
    name: str  #: bare function name
    class_name: Optional[str]
    node: ast.AST = field(repr=False)
    line: int = 0
    calls: List[CallSite] = field(default_factory=list, repr=False)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


def _receiver_text(node: ast.AST) -> str:
    """Dotted-name text of a call receiver; "" when not a plain chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        prefix = _receiver_text(node.value)
        return f"{prefix}.{node.attr}" if prefix else node.attr
    return ""


def call_sites(node: ast.AST) -> Iterator[CallSite]:
    """Every call expression under ``node``, in source order."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Attribute):
            yield CallSite(
                name=func.attr,
                receiver=_receiver_text(func.value),
                line=sub.lineno,
                col=sub.col_offset,
            )
        elif isinstance(func, ast.Name):
            yield CallSite(name=func.id, receiver="", line=sub.lineno, col=sub.col_offset)


class CallGraph:
    """Function index plus name-based call resolution."""

    def __init__(self) -> None:
        #: qualname -> FunctionInfo
        self.functions: Dict[str, FunctionInfo] = {}
        #: bare name -> sorted qualnames of every def with that name
        self._by_name: Dict[str, List[str]] = {}
        #: (module, class, name) -> qualname for same-class resolution
        self._methods: Dict[Tuple[str, str, str], str] = {}
        #: (module, name) -> qualname for same-module function resolution
        self._module_level: Dict[Tuple[str, str], str] = {}

    # ------------------------------------------------------------------ build

    def add_module(self, source: str, path: str) -> None:
        """Index one file's defs and their call sites."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return  # R000 belongs to the linter; the graph skips the file
        module = module_rel(path)
        self._index_body(tree.body, module, path, class_name=None)

    def _index_body(
        self,
        body: Sequence[ast.stmt],
        module: str,
        path: str,
        class_name: Optional[str],
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(node, module, path, class_name)
            elif isinstance(node, ast.ClassDef):
                self._index_body(node.body, module, path, class_name=node.name)

    def _add_function(
        self, node: ast.AST, module: str, path: str, class_name: Optional[str]
    ) -> None:
        name = node.name  # type: ignore[attr-defined]
        scoped = f"{class_name}.{name}" if class_name else name
        qualname = f"{module}::{scoped}"
        info = FunctionInfo(
            qualname=qualname,
            module=module,
            path=path,
            name=name,
            class_name=class_name,
            node=node,
            line=node.lineno,  # type: ignore[attr-defined]
            calls=sorted(
                call_sites(node), key=lambda c: (c.line, c.col, c.name)
            ),
        )
        self.functions[qualname] = info
        self._by_name.setdefault(name, []).append(qualname)
        if class_name is None:
            self._module_level[(module, name)] = qualname
        else:
            self._methods[(module, class_name, name)] = qualname
        # Nested defs are indexed too (closures can acquire locks).
        inner = [
            sub
            for sub in ast.iter_child_nodes(node)
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        if inner:
            self._index_body(inner, module, path, class_name)

    def freeze(self) -> None:
        """Sort the name index for deterministic resolution order."""
        for qualnames in self._by_name.values():
            qualnames.sort()

    # ---------------------------------------------------------------- resolve

    def resolve(self, caller: FunctionInfo, site: CallSite) -> List[FunctionInfo]:
        """Possible callees of ``site`` made from ``caller`` (sorted)."""
        if site.receiver in ("self", "cls") and caller.class_name is not None:
            own = self._methods.get((caller.module, caller.class_name, site.name))
            if own is not None:
                return [self.functions[own]]
            return self._all_methods_named(site.name)
        if site.receiver == "":
            local = self._module_level.get((caller.module, site.name))
            if local is not None:
                return [self.functions[local]]
            return [
                self.functions[q]
                for q in self._by_name.get(site.name, ())
                if self.functions[q].class_name is None
            ]
        return [self.functions[q] for q in self._by_name.get(site.name, ())]

    def _all_methods_named(self, name: str) -> List[FunctionInfo]:
        return [
            self.functions[q]
            for q in self._by_name.get(name, ())
            if self.functions[q].class_name is not None
        ]

    def functions_named(self, name: str) -> List[FunctionInfo]:
        """Every def with the given bare name, sorted by qualname."""
        return [self.functions[q] for q in self._by_name.get(name, ())]

    def sorted_functions(self) -> List[FunctionInfo]:
        """All indexed functions in qualname order."""
        return [self.functions[q] for q in sorted(self.functions)]


def build_call_graph(paths: Sequence[str]) -> CallGraph:
    """Parse every ``.py`` file under ``paths`` into one call graph."""
    graph = CallGraph()
    for filename in iter_python_files(paths):
        if not os.path.isfile(filename):
            continue
        with open(filename, "r", encoding="utf-8") as handle:
            graph.add_module(handle.read(), filename)
    graph.freeze()
    return graph
