"""Shared page kernels and equijoin probes: row-exact, reused, NaN-safe.

Every machine runs the kernels of :mod:`repro.relational.kernels`.  Each
opcode's kernel is checked against the interpreter's operators on random
pages.  The machines build each inner page's hash probe once and reuse it
for every outer page that meets the page.  Reuse must not change a single
result row or its position: each machine's ordered result is compared
with the same machine run on reference kernels that evaluate every page
pair by nested loops.
"""

import random

import pytest

from repro.dataflow.cell import Cell
from repro.dataflow.machine import DataflowMachine
from repro.direct import instructions, scheduler
from repro.direct.cache import PageRef
from repro.direct.machine import DirectMachine
from repro.experiments import EXPERIMENTS
from repro.query import execute
from repro.query.builder import scan
from repro.query.tree import (
    AppendNode,
    DeleteNode,
    JoinNode,
    ProjectNode,
    RestrictNode,
    ScanNode,
    UnionNode,
    UpdateNode,
)
from repro.relational import kernels, operators
from repro.relational.catalog import Catalog
from repro.relational.kernels import compile_kernel, equijoin_probe, join_pages, probe_join
from repro.relational.page import Page
from repro.relational.predicate import CompareOp, JoinCondition, attr
from repro.relational.relation import Relation
from repro.relational.schema import DataType, Schema
from repro.ring.controller import InstructionController
from repro.ring.machine import RingMachine

PAGE_BYTES = 128
OUTER = Schema.build(("k", DataType.INT), ("v", DataType.INT))
INNER = Schema.build(("k", DataType.INT), ("w", DataType.INT))
FLOATS = Schema.build(("x", DataType.FLOAT), ("id", DataType.INT))
NAN = float("nan")


def catalog():
    cat = Catalog()
    # Duplicate keys on every page of both sides, so one probe bucket
    # holds rows from one page and the same key recurs on later pages.
    cat.register(
        Relation.from_rows("o", OUTER, [(i % 5, i) for i in range(40)], page_bytes=PAGE_BYTES)
    )
    cat.register(
        Relation.from_rows(
            "i", INNER, [((i * 3) % 7, i) for i in range(30)], page_bytes=PAGE_BYTES
        )
    )
    return cat


QUERIES = {
    "base_inner": lambda: scan("o").equijoin(scan("i"), "k", "k").tree("q"),
    "intermediate_inner": lambda: scan("o")
    .equijoin(scan("i").restrict(attr("w") < 20), "k", "k")
    .tree("q"),
    "intermediate_outer": lambda: scan("o")
    .restrict(attr("v") < 30)
    .equijoin(scan("i"), "k", "k")
    .tree("q"),
    "empty_inner": lambda: scan("o")
    .equijoin(scan("i").restrict(attr("w") < 0), "k", "k")
    .tree("q"),
    "non_equijoin": lambda: scan("o")
    .join(scan("i"), JoinCondition("k", CompareOp.LT, "k"))
    .tree("q"),
}

MACHINES = {
    "direct_page": lambda cat: DirectMachine(
        cat, processors=3, granularity=scheduler.PAGE, page_bytes=PAGE_BYTES
    ),
    "direct_relation": lambda cat: DirectMachine(
        cat, processors=3, granularity=scheduler.RELATION, page_bytes=PAGE_BYTES
    ),
    "ring": lambda cat: RingMachine(cat, processors=3, controllers=8, page_bytes=PAGE_BYTES),
    "ring_fault_tolerant": lambda cat: RingMachine(
        cat, processors=3, controllers=8, page_bytes=PAGE_BYTES, fault_tolerant=True
    ),
    "dataflow": lambda cat: DataflowMachine(cat, processors=3, page_bytes=PAGE_BYTES),
}


def reference_probe(page, index):
    """Stand-in probe: the page itself, joined by nested loops below."""
    return (page, index)


def reference_probe_join(outer_page, probe, outer_index):
    page, index = probe
    return [
        orow + irow
        for orow in outer_page.rows()
        for irow in page.rows()
        if orow[outer_index] == irow[index]
    ]


def use_reference_kernels(monkeypatch):
    monkeypatch.setattr(kernels, "equijoin_probe", reference_probe)
    monkeypatch.setattr(kernels, "probe_join", reference_probe_join)


def run(machine_name, tree, cat):
    machine = MACHINES[machine_name](cat)
    machine.submit(tree)
    return list(machine.run().results[tree.name].rows())


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_probe_reuse_matches_nested_loops_row_for_row(machine_name, query, monkeypatch):
    cat = catalog()
    rows = run(machine_name, QUERIES[query](), cat)
    oracle = execute(QUERIES[query](), cat, join_algorithm="nested_loops")
    assert sorted(rows) == sorted(oracle.rows())
    with monkeypatch.context() as patch:
        use_reference_kernels(patch)
        reference = run(machine_name, QUERIES[query](), catalog())
    assert rows == reference  # same rows, same order


def test_direct_reuses_probes_and_frees_them_at_completion(monkeypatch):
    builds, joins, finished = [], [], []
    real_build, real_join = kernels.equijoin_probe, kernels.probe_join
    real_complete = instructions.JoinInstruction.complete

    def counting_build(page, index):
        builds.append(page)
        return real_build(page, index)

    def counting_join(outer_page, probe, outer_index):
        joins.append(outer_page)
        return real_join(outer_page, probe, outer_index)

    def complete(self, now):
        real_complete(self, now)
        finished.append(self)

    monkeypatch.setattr(kernels, "equijoin_probe", counting_build)
    monkeypatch.setattr(kernels, "probe_join", counting_join)
    monkeypatch.setattr(instructions.JoinInstruction, "complete", complete)
    cat = catalog()
    inner_pages = cat.get("i").page_count
    outer_pages = cat.get("o").page_count
    run("direct_page", QUERIES["base_inner"](), cat)
    assert len(joins) == inner_pages * outer_pages
    assert inner_pages <= len(builds) < len(joins)
    # A pipelined outer completes after some inner pages have met every
    # outer page: their probes go when the instruction completes.
    run("direct_page", QUERIES["intermediate_outer"](), cat)
    assert len(finished) == 2 and all(not instr.kernel.probes for instr in finished)


def test_direct_probe_of_a_page_met_before_the_outer_completes_goes_at_completion():
    tree = QUERIES["base_inner"]()
    join = instructions.JoinInstruction(tree.root, tree, OUTER, INNER, PAGE_BYTES)
    outer = PageRef("o:0", PAGE_BYTES, page_of(OUTER, [(1, 0)]), True, 0, 1)
    inner = PageRef("i:0", PAGE_BYTES, page_of(INNER, [(1, 10)]), True, 0, 1)
    join.operand_page_arrived(0, outer)
    join.operand_page_arrived(1, inner)
    task = join.pop_task()
    assert join.kernel(task.page.payload, inner.key, inner.payload) == [(1, 0, 1, 10)]
    # Every outer page so far has met the inner page, but more may follow.
    assert not join.inner_page_consumed(inner)
    assert list(join.kernel.probes) == ["i:0"]
    join.operand_completed(0)
    join.complete(now=1.0)
    assert join.kernel.probes == {}


def test_ring_probe_follows_the_page_it_was_built_from():
    # Missed-page recovery may deliver a different page object under the
    # same inner page number; the IC must not join it with a stale probe.
    tree = QUERIES["base_inner"]()
    machine = RingMachine(catalog(), processors=3, controllers=8, page_bytes=PAGE_BYTES)
    ic = InstructionController(
        machine, 1, tree.root, tree, [("o", OUTER), ("i", INNER)],
        OUTER.concat_unique(INNER),
    )
    outer = page_of(OUTER, [(1, 0), (2, 1)])
    first = page_of(INNER, [(1, 10)])
    other = page_of(INNER, [(2, 20)])
    assert ic.kernel(outer, 0, first) == [(1, 0, 1, 10)]
    assert ic.kernel(outer, 0, first) == [(1, 0, 1, 10)]
    assert ic.kernel(outer, 0, other) == [(2, 1, 2, 20)]
    assert len(ic.kernel.probes) == 1
    ic.abort()
    assert ic.kernel.probes == {}


def test_dataflow_builds_one_probe_per_inner_page_per_cell(monkeypatch):
    # E6's quick run: each join cell probes an inner page once, however
    # many outer pages (firings) meet it.
    builds, met = [], {}
    real_build, real_execute = kernels.equijoin_probe, Cell.execute

    def counting_build(page, index):
        builds.append(page)
        return real_build(page, index)

    def execute(self, unit):
        if isinstance(self.node, JoinNode) and self.node.condition.is_equijoin:
            if any(slot == 0 for slot, _ in unit.pages):
                met.setdefault(self, set()).update(
                    id(self.operands[1].pages[p]) for slot, p in unit.pages if slot == 1
                )
        return real_execute(self, unit)

    monkeypatch.setattr(kernels, "equijoin_probe", counting_build)
    monkeypatch.setattr(Cell, "execute", execute)
    row = EXPERIMENTS["dataflow"]
    row.load().run(**row.quick)
    assert builds
    assert len(builds) == sum(len(pages) for pages in met.values())


# -- page kernels ---------------------------------------------------------------


def page_of(schema, rows):
    page = Page(schema, 4096)
    page.extend_unchecked(rows)
    return page


def test_probe_join_keeps_nested_loops_order():
    outer = page_of(OUTER, [(2, 0), (1, 1), (2, 2), (3, 3)])
    inner = page_of(INNER, [(2, 10), (1, 11), (2, 12), (2, 13)])
    eq = JoinCondition("k", CompareOp.EQ, "k")
    nested = [o + i for o in outer.rows() for i in inner.rows() if o[0] == i[0]]
    assert probe_join(outer, equijoin_probe(inner, 0), 0) == nested
    assert join_pages(outer, inner, eq, 0, 0) == nested


def test_empty_inner_page_probe_joins_nothing():
    outer = page_of(OUTER, [(1, 0), (2, 1)])
    empty = page_of(INNER, [])
    assert equijoin_probe(empty, 0) == {}
    assert probe_join(outer, equijoin_probe(empty, 0), 0) == []


def test_probe_holds_no_nan_key():
    page = page_of(FLOATS, [(NAN, 0), (1.0, 1), (NAN, 2)])
    probe = equijoin_probe(page, 0)
    assert list(probe) == [1.0]
    assert probe_join(page, probe, 0) == [(1.0, 1, 1.0, 1)]


# -- every opcode's kernel against the interpreter --------------------------------

MIXED = Schema.build(("k", DataType.INT), ("x", DataType.FLOAT), ("g", DataType.INT))


def random_relation(rng, name, count):
    # Small domains: duplicate rows and keys on and across pages, NaN keys
    # (one shared NaN object, which a dict probe would match to itself).
    rows = [
        (rng.randrange(4), rng.choice([0.5, 1.0, 2.5, NAN]), rng.randrange(3))
        for _ in range(count)
    ]
    return Relation.from_rows(name, MIXED, rows, page_bytes=PAGE_BYTES)


def one_page_relation(page):
    return Relation.from_rows("p", page.schema, list(page.rows()), page_bytes=4096)


#: opcode -> (query node over relations "a" and "b", interpreter result).
UNARY_CASES = {
    "restrict": (
        lambda: RestrictNode(ScanNode("a"), attr("g") < 2),
        lambda a, b: operators.restrict(a, attr("g") < 2),
    ),
    "delete": (
        lambda: DeleteNode("a", attr("g") < 2),
        lambda a, b: operators.delete(a, attr("g") < 2),
    ),
    "update": (
        lambda: UpdateNode("a", attr("g") == 1, "k", 3),
        lambda a, b: operators.update(a, attr("g") == 1, "k", 3),
    ),
    "append": (
        lambda: AppendNode("a", ScanNode("b")),
        lambda a, b: operators.append(a.empty_like("t"), b),
    ),
    "project": (
        lambda: ProjectNode(ScanNode("a"), ["g", "k"]),
        lambda a, b: operators.project(a, ["g", "k"]),
    ),
    "project_keep_duplicates": (
        lambda: ProjectNode(ScanNode("a"), ["g", "x"], eliminate_duplicates=False),
        lambda a, b: operators.project(a, ["g", "x"], eliminate_duplicates=False),
    ),
    "union": (
        lambda: UnionNode(ScanNode("a"), ScanNode("b")),
        lambda a, b: operators.union(a, b),
    ),
}

JOIN_CONDITIONS = {
    "equijoin_nan_keys": JoinCondition("x", CompareOp.EQ, "x"),
    "non_equijoin": JoinCondition("g", CompareOp.LT, "k"),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("opcode", sorted(UNARY_CASES) + sorted(JOIN_CONDITIONS))
def test_kernel_matches_interpreter_on_random_pages(opcode, seed):
    rng = random.Random(seed)
    a, b = random_relation(rng, "a", 40), random_relation(rng, "b", 30)
    assert a.page_count > 2 and b.page_count > 2
    if opcode in UNARY_CASES:
        node, oracle = UNARY_CASES[opcode]
        kernel = compile_kernel(node(), [MIXED, MIXED])
        # The machines hand an append or a union's right operand to the
        # same kernel as the pages arrive: one seen-set spans every page
        # of both union operands, and a project dedups across pages.
        pages = b.pages if opcode == "append" else a.pages
        if opcode == "union":
            pages = a.pages + b.pages
        rows = [row for page in pages for row in kernel(page)]
        assert rows == list(oracle(a, b).rows())
        if opcode == "union":
            assert set(a.rows()) & set(b.rows())  # the cross-operand case ran
        return
    condition = JOIN_CONDITIONS[opcode]
    pair = compile_kernel(JoinNode(ScanNode("a"), ScanNode("b"), condition), [MIXED, MIXED])
    for outer in a.pages:
        for key, inner in enumerate(b.pages):
            expected = operators.nested_loops_join(
                one_page_relation(outer), one_page_relation(inner), condition
            )
            assert pair(outer, key, inner) == list(expected.rows())
    # A different page object under an old key gets a fresh probe.
    other = b.pages[1].copy()
    other.clear()
    other.extend_unchecked(list(a.pages[0].rows()))
    expected = operators.nested_loops_join(
        one_page_relation(a.pages[0]), one_page_relation(other), condition
    )
    assert pair(a.pages[0], 0, other) == list(expected.rows())
    if condition.is_equijoin:
        assert pair.probes[0][0] is other
        pair.forget(0)
        assert 0 not in pair.probes and len(pair.probes) == b.page_count - 1
        pair.clear()
        assert pair.probes == {}


# -- NaN keys -------------------------------------------------------------------

def nan_catalog():
    cat = Catalog()
    # One NaN object shared by every NaN row: a dict probe would match it
    # to itself, and a self-join meets the same row objects on both sides.
    rows = [(NAN, 0), (1.0, 1), (NAN, 2), (1.0, 3), (2.5, 4), (NAN, 5)] * 3
    cat.register(Relation.from_rows("t", FLOATS, rows, page_bytes=PAGE_BYTES))
    return cat


def nan_self_join():
    return scan("t").equijoin(scan("t"), "x", "x").tree("nan")


@pytest.mark.parametrize("algorithm", ["nested_loops", "hash", "sort_merge"])
def test_interpreter_never_matches_nan_keys(algorithm):
    result = execute(nan_self_join(), nan_catalog(), join_algorithm=algorithm)
    # 6 rows of 1.0 and 3 of 2.5 on each side: 6*6 + 3*3 pairs.
    rows = list(result.rows())
    assert len(rows) == 45
    assert all(row[0] == row[0] for row in rows)


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_machines_never_match_nan_keys(machine_name):
    cat = nan_catalog()
    oracle = execute(nan_self_join(), cat, join_algorithm="nested_loops")
    rows = run(machine_name, nan_self_join(), cat)
    assert sorted(rows) == sorted(oracle.rows())
