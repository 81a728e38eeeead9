"""The host contract every machine shares (:mod:`repro.host`).

Parametrized over DIRECT, the ring machine and the data-flow machine:
the completion hook reports the same row count as the result relation,
``query_times`` are response times wherever a query was submitted, and
the host refuses an empty run, a duplicate query name and a crash plan
with no durable state to recover from.
"""

import pytest

from repro.errors import FaultError, MachineError
from repro.faults import FaultPlan, FaultSpec, injecting
from repro.host import MACHINES, build_machine
from repro.query.builder import delete_from, insert_from, scan, update_set
from repro.recovery.store import StableStore
from repro.recovery.txn import TransactionManager
from repro.relational.predicate import attr
from repro.workload import generate_benchmark_database

PAGE_BYTES = 2048


@pytest.fixture
def db():
    return generate_benchmark_database(scale=0.02, seed=3, page_bytes=PAGE_BYTES)


def machine_for(name, db):
    return build_machine(name, db.catalog, processors=4, page_bytes=PAGE_BYTES)


def read_query(db, name):
    return scan(db.relation_names[0]).restrict(attr("key") < 20).tree(name)


def write_query(db, kind):
    target, source = db.relation_names[0], db.relation_names[1]
    few = attr("key") < 5
    if kind == "insert":
        return insert_from(source, few, target, name="w")
    if kind == "delete":
        return delete_from(target, few, name="w")
    return update_set(target, few, "a", 1, name="w")


@pytest.mark.parametrize("wal", [False, True], ids=["memory", "wal"])
@pytest.mark.parametrize("kind", ["insert", "delete", "update"])
@pytest.mark.parametrize("machine", MACHINES)
def test_hook_rows_equal_result_rows(machine, kind, wal, db):
    target = db.relation_names[0]
    before = db.catalog.get(target).cardinality
    m = machine_for(machine, db)
    if wal:
        m.attach_recovery(TransactionManager(StableStore(), PAGE_BYTES))
    seen = []
    m.on_query_complete = lambda name, at_ms, rows: seen.append((name, rows))
    run = m.submit(write_query(db, kind))
    report = m.run()
    result_rows = len(list(report.results["w"].rows()))
    # Writes report the target's whole new content, not the arriving rows.
    assert seen == [("w", result_rows)]
    assert run.result_rows == result_rows
    assert result_rows == db.catalog.get(target).cardinality
    if kind == "insert":
        assert result_rows > before
    elif kind == "delete":
        assert result_rows < before
    else:
        assert result_rows == before


@pytest.mark.parametrize("machine", MACHINES)
def test_query_times_are_response_times(machine, db):
    alone = machine_for(machine, db)
    alone.submit(read_query(db, "q"))
    at_zero = alone.run().query_times["q"]

    late = machine_for(machine, db)
    runs = []
    late.sim.schedule_at(500.0, lambda: runs.append(late.submit(read_query(db, "q"))))
    report = late.run_service()
    assert runs[0].submitted_at == 500.0
    assert report.query_times["q"] == pytest.approx(runs[0].completed_at - 500.0)
    assert report.query_times["q"] == pytest.approx(at_zero)


@pytest.mark.parametrize("machine", MACHINES)
def test_run_with_nothing_submitted_raises(machine, db):
    with pytest.raises(MachineError, match="no queries submitted"):
        machine_for(machine, db).run()


@pytest.mark.parametrize("machine", MACHINES)
def test_machine_crash_needs_attached_recovery(machine, db):
    plan = FaultPlan(seed=1, specs=(FaultSpec("machine_crash", rate=1.0),))
    with injecting(plan):
        m = machine_for(machine, db)
    m.submit(read_query(db, "q"))
    with pytest.raises(FaultError, match="attach_recovery"):
        m.run()


@pytest.mark.parametrize("machine", MACHINES)
def test_duplicate_query_name_raises(machine, db):
    m = machine_for(machine, db)
    m.submit(read_query(db, "q"))
    with pytest.raises(MachineError, match="already submitted"):
        m.submit(read_query(db, "q"))


def test_unknown_machine_name_raises(db):
    with pytest.raises(MachineError, match="unknown machine"):
        build_machine("pimdal", db.catalog)
