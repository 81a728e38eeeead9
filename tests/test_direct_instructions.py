"""Runtime instruction objects: tasks, operand tables, keyed result pages."""

import pytest

from repro.direct.cache import PageRef
from repro.direct.instructions import JoinInstruction, OperandTable, UnaryInstruction
from repro.errors import MachineError
from repro.relational.page import Page
from repro.relational.predicate import attr
from repro.relational.schema import DataType, Schema
from repro.query.builder import scan
from repro.query.tree import JoinNode, RestrictNode, ScanNode

PAIR = Schema.build(("k", DataType.INT), ("g", DataType.INT))


def ref(key, rows, on_disk=False):
    page = Page(PAIR, 128)
    for row in rows:
        page.append(row)
    return PageRef(key=key, nbytes=128, payload=page, on_disk=on_disk, disk_id=0, row_count=page.row_count)


def make_restrict():
    node = RestrictNode(ScanNode("r"), attr("g") == 1)
    tree = scan("r").tree("q")
    return UnaryInstruction(node, tree, PAIR, page_bytes=128)


def make_join():
    node = JoinNode(ScanNode("a"), ScanNode("b"), attr("g").equals_attr("g"))
    tree = scan("a").tree("q")
    return JoinInstruction(node, tree, PAIR, PAIR, page_bytes=128)


class TestOperandTable:
    def test_grows_and_completes(self):
        table = OperandTable("in", PAIR)
        table.add_page(ref("p0", [(1, 1)]))
        assert table.page_count == 1
        table.mark_complete()
        with pytest.raises(MachineError):
            table.add_page(ref("p1", [(2, 2)]))


class TestOutputAssembler:
    """An instruction packs its result rows into full, keyed pages."""

    def test_buffers_until_page_full(self):
        instr = make_restrict()
        capacity = Page(PAIR, 128).capacity
        pages = instr.emit([(i, i) for i in range(capacity - 1)])
        assert pages == []
        pages = instr.emit([(99, 99)])
        assert len(pages) == 1
        assert pages[0].row_count == capacity

    def test_flush_emits_partial(self):
        instr = make_restrict()
        instr.emit([(1, 1)])
        final = instr.flush()
        assert final is not None and final.row_count == 1
        assert instr.flush() is None

    def test_keys_are_sequential(self):
        instr = make_restrict()
        capacity = Page(PAIR, 128).capacity
        pages = instr.emit([(i, i) for i in range(capacity * 2)])
        prefix = f"q{instr.query.query_id}.n{instr.node.node_id}"
        assert [p.key for p in pages] == [f"{prefix}:0", f"{prefix}:1"]
        assert [p.disk_id for p in pages] == [0, 1]

    def test_rows_emitted_counter(self):
        instr = make_restrict()
        full = instr.emit([(1, 1), (2, 2)])
        final = instr.flush()
        assert sum(ref.row_count for ref in full + [final]) == 2
        assert list(final.payload.rows()) == [(1, 1), (2, 2)]


class TestRestrictInstruction:
    def test_pages_become_tasks(self):
        instr = make_restrict()
        instr.operand_page_arrived(0, ref("p0", [(1, 1), (2, 0)]))
        assert instr.has_dispatchable()
        task = instr.pop_task()
        assert instr.kernel(task.page.payload) == [(1, 1)]

    def test_not_complete_until_operand_complete(self):
        instr = make_restrict()
        instr.operand_page_arrived(0, ref("p0", [(1, 1)]))
        instr.pop_task()
        assert not instr.is_complete()
        instr.operand_completed(0)
        assert instr.is_complete()

    def test_in_flight_blocks_completion(self):
        instr = make_restrict()
        instr.operand_page_arrived(0, ref("p0", [(1, 1)]))
        instr.pop_task()
        instr.in_flight = 1
        instr.operand_completed(0)
        assert not instr.is_complete()


class TestJoinInstruction:
    def test_outer_pages_become_tasks(self):
        instr = make_join()
        instr.operand_page_arrived(0, ref("o0", [(1, 1)]))
        assert len(instr.pending) == 1

    def test_not_dispatchable_without_inner(self):
        instr = make_join()
        instr.operand_page_arrived(0, ref("o0", [(1, 1)]))
        assert not instr.has_dispatchable()
        instr.operand_page_arrived(1, ref("i0", [(2, 1)]))
        assert instr.has_dispatchable()

    def test_dispatchable_with_complete_empty_inner(self):
        instr = make_join()
        instr.operand_page_arrived(0, ref("o0", [(1, 1)]))
        instr.operand_completed(1)
        assert instr.has_dispatchable()

    def test_compute_pair(self):
        instr = make_join()
        outer = ref("o0", [(1, 5), (2, 6)])
        inner = ref("i0", [(3, 5)])
        instr.operand_page_arrived(0, outer)
        instr.operand_page_arrived(1, inner)
        task = instr.pop_task()
        rows = instr.kernel(task.page.payload, inner.key, inner.payload)
        assert rows == [(1, 5, 3, 5)]

    def test_next_unseen_inner_tracks_task_state(self):
        instr = make_join()
        i0, i1 = ref("i0", [(1, 1)]), ref("i1", [(2, 2)])
        instr.operand_page_arrived(0, ref("o0", [(0, 1)]))
        instr.operand_page_arrived(1, i0)
        instr.operand_page_arrived(1, i1)
        task = instr.pop_task()
        first = instr.next_unseen_inner(task)
        task.seen_inner.add(first.key)
        second = instr.next_unseen_inner(task)
        assert {first.key, second.key} == {"i0", "i1"}
        task.seen_inner.add(second.key)
        assert instr.next_unseen_inner(task) is None

    def test_inner_exhausted(self):
        instr = make_join()
        i0 = ref("i0", [(1, 1)])
        instr.operand_page_arrived(0, ref("o0", [(0, 1)]))
        instr.operand_page_arrived(1, i0)
        task = instr.pop_task()
        assert not instr.inner_exhausted(task)
        task.seen_inner.add("i0")
        instr.operand_completed(1)
        assert instr.inner_exhausted(task)

    def test_inner_page_consumed_waits_for_all_outers(self):
        instr = make_join()
        i0 = ref("i0", [(1, 1)])
        instr.operand_page_arrived(0, ref("o0", [(0, 1)]))
        instr.operand_page_arrived(0, ref("o1", [(0, 1)]))
        instr.operand_page_arrived(1, i0)
        assert not instr.inner_page_consumed(i0)  # outer not complete
        instr.operand_completed(0)
        assert instr.inner_page_consumed(i0)  # second consumption of two

    def test_park_and_unpark(self):
        instr = make_join()
        instr.operand_page_arrived(0, ref("o0", [(0, 1)]))
        instr.operand_page_arrived(1, ref("i0", [(1, 1)]))
        task = instr.pop_task()
        instr.park(task)
        assert not instr.pending
        instr.operand_page_arrived(1, ref("i1", [(2, 2)]))  # triggers unpark
        assert list(instr.pending) == [task]
