"""Compile query trees into data-flow programs (cells + destination links).

"We assume that the instruction in each memory cell corresponds to a node
in the query tree and that the data is represented by page tables."

Base-relation operands are pre-loaded into the leaf cells' slots (the
machine model keeps data cache-resident); interior edges become
destination links that the distribution network serves at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import MachineError
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.query.tree import DeleteNode, QueryNode, QueryTree, ScanNode, UpdateNode
from repro.dataflow.cell import Cell


@dataclass
class DataflowProgram:
    """One compiled query: its cells, root, and preloaded base pages."""

    tree: QueryTree
    cells: List[Cell] = field(default_factory=list)
    root: Optional[Cell] = None
    #: (cell, slot) pairs preloaded with base pages at start time.
    preloaded: List[Tuple[Cell, int, int]] = field(default_factory=list)


def compile_query(
    tree: QueryTree, catalog: Catalog, page_bytes: int = 2048
) -> DataflowProgram:
    """Build the cell graph for ``tree`` and preload base operands."""
    tree.validate(catalog)
    program = DataflowProgram(tree=tree)
    by_node: Dict[int, Cell] = {}

    for node in tree.nodes():
        if isinstance(node, ScanNode):
            continue
        operand_schemas: List[Tuple[str, Schema]] = []
        for child in _operand_children(node):
            operand_schemas.append(
                (_operand_name(child), child.output_schema(catalog))
            )
        cell = Cell(node, operand_schemas, node.output_schema(catalog), page_bytes)
        by_node[node.node_id] = cell
        program.cells.append(cell)
        program.root = cell

    if program.root is None:
        raise MachineError(f"query {tree.name} has no operator nodes")

    # Wire destinations and preload base operands.
    for node_id, cell in by_node.items():
        for slot_index, child in enumerate(_operand_children(cell.node)):
            if isinstance(child, ScanNode):
                relation = catalog.get(child.relation_name)
                # Shared read-only images, memoized on the relation.
                pages = relation.packed_pages(page_bytes)
                for page in pages:
                    cell.operands[slot_index].deliver(page)
                cell.operands[slot_index].finish()
                program.preloaded.append((cell, slot_index, len(pages)))
            else:
                by_node[child.node_id].destinations.append((cell, slot_index))
    return program


def _operand_children(node: QueryNode) -> List[QueryNode]:
    """Operand producers for ``node``.

    Childless write roots (delete/update) read the target relation
    itself: synthesize a scan so the preload path fills their single
    operand slot with the target's current pages.
    """
    if isinstance(node, (DeleteNode, UpdateNode)):
        return [ScanNode(node.target_relation)]
    return list(node.children)


def _operand_name(node: QueryNode) -> str:
    if isinstance(node, ScanNode):
        return node.relation_name
    return f"node{node.node_id}"
