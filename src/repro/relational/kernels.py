"""Page kernels: each relational instruction's row logic, written once.

DIRECT, the ring machine and the data-flow machine differ in granularity,
control and interconnect, not in what an instruction does to a page.
:func:`compile_kernel` compiles a query node once into the kernel every
machine calls:

* a **page kernel** for restrict, delete, update, append, project and
  union: ``rows = kernel(page)``.  A project's or union's
  duplicate-elimination seen-set lives inside the kernel, so one kernel
  per node dedups across every page it is handed — both operands of a
  union included;
* a :class:`JoinPairKernel` for a join: ``rows = pair(outer_page, key,
  inner_page)`` is one outer-page x inner-page step of the nested-loops
  join.

The kernels are row-exact: they produce the rows a real processor would,
in nested-loops order, so every machine's output can be checked against
the interpreter in :mod:`repro.relational.operators`.  An equijoin step
probes the inner page with a hash probe instead of comparing every pair;
the rows and their order are those of nested loops, only Python wall time
differs.  The inner page is the reused operand of the join (every outer
page meets it), so the pair kernel builds its probe once and keeps it
under the caller's key.  A probe never holds a NaN key: ``nan == nan`` is
false, so nested loops never match one.

No kernel ever iterates its seen-set or its probe cache: they are only
probed by key, so no result depends on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Sequence, Set, Tuple, Union

from repro.errors import MachineError
from repro.relational.page import Page
from repro.relational.predicate import JoinCondition
from repro.relational.schema import Row, Schema
from repro.query.tree import (
    AppendNode,
    DeleteNode,
    JoinNode,
    ProjectNode,
    QueryNode,
    RestrictNode,
    UnionNode,
    UpdateNode,
)

#: An inner page's rows grouped by join key, in page order.
Probe = Dict[Any, List[Row]]

PageKernel = Callable[[Page], List[Row]]


def equijoin_probe(page: Page, index: int) -> Probe:
    """Hash probe of ``page`` on the attribute at ``index``.

    Keys that are not equal to themselves (NaN) are left out: they match
    nothing under nested loops, and a dict would match a NaN object to
    itself.
    """
    probe: Probe = {}
    for row in page.rows():
        key = row[index]
        if key == key:
            probe.setdefault(key, []).append(row)
    return probe


def probe_join(outer_page: Page, probe: Probe, outer_index: int) -> List[Row]:
    """Concatenated rows of ``outer_page`` x the probed inner page, in
    nested-loops order (outer row major, inner rows in page order)."""
    get = probe.get
    return [
        orow + irow for orow in outer_page.rows() for irow in get(orow[outer_index], ())
    ]


def join_pages(
    outer_page: Page,
    inner_page: Page,
    condition: JoinCondition,
    outer_index: int,
    inner_index: int,
) -> List[Row]:
    """Concatenated rows of one outer-page x inner-page nested-loops step.

    ``outer_index``/``inner_index`` are the join attributes' positions in
    the page schemas.  An equijoin gives the same rows through
    :func:`probe_join`.
    """
    fn = condition.op.fn
    return [
        orow + irow
        for orow in outer_page.rows()
        for irow in inner_page.rows()
        if fn(orow[outer_index], irow[inner_index])
    ]


class JoinPairKernel:
    """One outer page x one inner page of a nested-loops join, row-exact.

    ``probes`` maps each caller key to ``(inner page, its probe)``.  The
    probe is rebuilt when a different page object arrives under the same
    key (the ring's missed-page recovery may resend a page).  The caller
    owns the probes' lifetime: :meth:`forget` drops one key once no outer
    page will meet that inner page again, :meth:`clear` drops them all.
    """

    def __init__(self, condition: JoinCondition, outer_schema: Schema, inner_schema: Schema):
        self.condition = condition
        self.outer_index = outer_schema.index_of(condition.outer_attr)
        self.inner_index = inner_schema.index_of(condition.inner_attr)
        self.probes: Dict[Hashable, Tuple[Page, Probe]] = {}

    def __call__(self, outer_page: Page, key: Hashable, inner_page: Page) -> List[Row]:
        if not self.condition.is_equijoin:
            return join_pages(
                outer_page, inner_page, self.condition, self.outer_index, self.inner_index
            )
        cached = self.probes.get(key)
        if cached is None or cached[0] is not inner_page:
            cached = self.probes[key] = (inner_page, equijoin_probe(inner_page, self.inner_index))
        return probe_join(outer_page, cached[1], self.outer_index)

    def forget(self, key: Hashable) -> None:
        """Drop the probe kept under ``key``, if any."""
        self.probes.pop(key, None)

    def clear(self) -> None:
        """Drop every probe."""
        self.probes = {}


def compile_kernel(
    node: QueryNode, operand_schemas: Sequence[Schema]
) -> Union[PageKernel, JoinPairKernel]:
    """Compile ``node`` over its operands' schemas into its kernel.

    A join gives a :class:`JoinPairKernel`; every other instruction gives
    a page kernel.  Delete and update read the target relation itself,
    so their one operand schema is the target's.
    """
    if isinstance(node, JoinNode):
        return JoinPairKernel(node.condition, operand_schemas[0], operand_schemas[1])
    if isinstance(node, RestrictNode):
        test = node.predicate.compile(operand_schemas[0])

        def restrict_kernel(page: Page) -> List[Row]:
            return [row for row in page.rows() if test(row)]

        return restrict_kernel
    if isinstance(node, DeleteNode):
        doomed = node.predicate.compile(operand_schemas[0])

        def delete_kernel(page: Page) -> List[Row]:
            # Rows failing the predicate survive: the output is the
            # target's whole new content.
            return [row for row in page.rows() if not doomed(row)]

        return delete_kernel
    if isinstance(node, UpdateNode):
        apply = node.compile_apply(operand_schemas[0])

        def update_kernel(page: Page) -> List[Row]:
            return [apply(row) for row in page.rows()]

        return update_kernel
    if isinstance(node, AppendNode):

        def append_kernel(page: Page) -> List[Row]:
            return list(page.rows())

        return append_kernel
    if isinstance(node, ProjectNode):
        indices = [operand_schemas[0].index_of(a) for a in node.attributes]
        if not node.eliminate_duplicates:

            def cut_kernel(page: Page) -> List[Row]:
                return [tuple(row[i] for i in indices) for row in page.rows()]

            return cut_kernel
        projected: Set[Row] = set()

        def project_kernel(page: Page) -> List[Row]:
            out: List[Row] = []
            for row in page.rows():
                cut = tuple(row[i] for i in indices)
                if cut not in projected:
                    projected.add(cut)
                    out.append(cut)
            return out

        return project_kernel
    if isinstance(node, UnionNode):
        seen: Set[Row] = set()

        def union_kernel(page: Page) -> List[Row]:
            out: List[Row] = []
            for row in page.rows():
                if row not in seen:
                    seen.add(row)
                    out.append(row)
            return out

        return union_kernel
    raise MachineError(f"no page kernel for {node.opcode!r} nodes")

