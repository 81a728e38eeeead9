"""Equijoin probes: built once per inner page, reused exactly, NaN-safe.

The machines build each inner page's hash probe once and reuse it for
every outer page that meets the page.  Reuse must not change a single
result row or its position: each machine's ordered result is compared
with the same machine run on reference kernels that evaluate every page
pair by nested loops.
"""

from types import SimpleNamespace

import pytest

from repro.dataflow.machine import DataflowMachine
from repro.direct import exec_model, instructions, scheduler
from repro.direct.cache import PageRef
from repro.direct.exec_model import equijoin_probe, join_pages, probe_join
from repro.direct.machine import DirectMachine
from repro.query import execute
from repro.query.builder import scan
from repro.relational.catalog import Catalog
from repro.relational.page import Page
from repro.relational.predicate import CompareOp, JoinCondition, attr
from repro.relational.relation import Relation
from repro.relational.schema import DataType, Schema
from repro.ring import controller
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
    for module in (exec_model, instructions, controller):
        monkeypatch.setattr(module, "equijoin_probe", reference_probe)
        monkeypatch.setattr(module, "probe_join", reference_probe_join)


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
    real_build, real_join = instructions.equijoin_probe, instructions.probe_join
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

    monkeypatch.setattr(instructions, "equijoin_probe", counting_build)
    monkeypatch.setattr(instructions, "probe_join", counting_join)
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
    assert len(finished) == 2 and all(not instr.probes for instr in finished)


def test_direct_probe_of_a_page_met_before_the_outer_completes_goes_at_completion():
    tree = QUERIES["base_inner"]()
    join = instructions.JoinInstruction(tree.root, tree, OUTER, INNER, PAGE_BYTES)
    outer = PageRef("o:0", PAGE_BYTES, page_of(OUTER, [(1, 0)]), True, 0, 1)
    inner = PageRef("i:0", PAGE_BYTES, page_of(INNER, [(1, 10)]), True, 0, 1)
    join.operand_page_arrived(0, outer)
    join.operand_page_arrived(1, inner)
    task = join.pop_task()
    assert join.compute_pair(task, inner) == [(1, 0, 1, 10)]
    # Every outer page so far has met the inner page, but more may follow.
    assert not join.inner_page_consumed(inner)
    assert list(join.probes) == ["i:0"]
    join.operand_completed(0)
    join.complete(now=1.0)
    assert join.probes == {}


def test_ring_probe_follows_the_page_it_was_built_from():
    # Missed-page recovery may deliver a different page object under the
    # same inner page number; the IC must not join it with a stale probe.
    ic = SimpleNamespace(
        join_condition=JoinCondition("k", CompareOp.EQ, "k"),
        join_outer_index=0,
        join_inner_index=0,
        _probes={},
    )
    outer = page_of(OUTER, [(1, 0), (2, 1)])
    first = page_of(INNER, [(1, 10)])
    other = page_of(INNER, [(2, 20)])
    join = InstructionController.join_page_pair
    assert join(ic, outer, first, 0) == [(1, 0, 1, 10)]
    assert join(ic, outer, first, 0) == [(1, 0, 1, 10)]
    assert join(ic, outer, other, 0) == [(2, 1, 2, 20)]
    assert len(ic._probes) == 1


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
