"""Durability: WAL codec, transactions, ARIES-lite restart, crash trials.

Covers the ISSUE 10 tentpole end to end — the frame codec's torn-tail
contract, the TransactionManager's steal/no-force buffer discipline and
its sanitizer hooks, the restart phases (analysis, redo, undo, torn-page
repair), the crash-trial harness's byte-identity oracle on all three
machines, the E17 sweep, and the R011 lint rule that keeps machine code
from mutating pages outside a logged transaction.
"""

import os
import struct
import tracemalloc
import zlib

import pytest

from repro.errors import CrashError, RecoveryError, SanitizerError
from repro.recovery import (
    KIND_ABORT,
    KIND_BEGIN,
    KIND_CHECKPOINT,
    KIND_CLR,
    KIND_COMMIT,
    KIND_UPDATE,
    LogRecord,
    StableStore,
    TransactionManager,
    canonical_pages,
    decode_stream,
    encode_record,
    recover,
)
from repro.recovery import harness
from repro.recovery.harness import run_crash_trial
from repro.sim.engine import Simulator


PAGE_BYTES = 64  # pair_schema: 16-byte records, 8-byte header -> 3 per page


def seeded_store(schema, rows):
    store = StableStore()
    store.seed_relation("r", canonical_pages(schema, rows, PAGE_BYTES))
    return store


def base_rows(n=6):
    return [(i, i * 10) for i in range(n)]


# ------------------------------------------------------------------ WAL codec


class TestWalCodec:
    def roundtrip(self, record):
        records, valid = decode_stream(encode_record(record))
        assert len(records) == 1
        assert valid == len(encode_record(record))
        return records[0]

    def test_begin_roundtrip(self):
        rec = self.roundtrip(
            LogRecord(lsn=1, kind=KIND_BEGIN, txn_id=7, name="q-001")
        )
        assert (rec.lsn, rec.txn_id, rec.name) == (1, 7, "q-001")

    def test_update_roundtrip_full_images(self):
        rec = self.roundtrip(
            LogRecord(
                lsn=2, kind=KIND_UPDATE, txn_id=7, prev_lsn=1,
                relation="r", page_number=3, before=b"old", after=b"new",
            )
        )
        assert (rec.relation, rec.page_number) == ("r", 3)
        assert (rec.before, rec.after) == (b"old", b"new")

    def test_clr_roundtrip_undo_next(self):
        rec = self.roundtrip(
            LogRecord(
                lsn=5, kind=KIND_CLR, txn_id=7, prev_lsn=4,
                relation="r", page_number=0, after=b"old", undo_next_lsn=2,
            )
        )
        assert rec.undo_next_lsn == 2
        assert rec.after == b"old"

    def test_checkpoint_roundtrip_att_dpt(self):
        rec = self.roundtrip(
            LogRecord(
                lsn=9, kind=KIND_CHECKPOINT, txn_id=0,
                att={3: (8, "mix-002")}, dpt={("r", 1): 4},
            )
        )
        assert rec.att == {3: (8, "mix-002")}
        assert rec.dpt == {("r", 1): 4}

    def test_commit_abort_roundtrip(self):
        for kind in (KIND_COMMIT, KIND_ABORT):
            rec = self.roundtrip(LogRecord(lsn=3, kind=kind, txn_id=1, prev_lsn=2))
            assert rec.kind == kind

    def test_torn_tail_stops_at_frame_boundary(self):
        a = encode_record(LogRecord(lsn=1, kind=KIND_BEGIN, txn_id=1, name="a"))
        b = encode_record(LogRecord(lsn=2, kind=KIND_COMMIT, txn_id=1, prev_lsn=1))
        data = a + b[: len(b) // 2]  # power cut mid-frame
        records, valid = decode_stream(data)
        assert [r.lsn for r in records] == [1]
        assert valid == len(a)

    def test_bitflip_fails_crc_cleanly(self):
        a = encode_record(LogRecord(lsn=1, kind=KIND_BEGIN, txn_id=1, name="a"))
        garbled = bytearray(a)
        garbled[-1] ^= 0xFF
        records, valid = decode_stream(bytes(garbled))
        assert records == [] and valid == 0

    def test_garbage_after_valid_prefix_ignored(self):
        a = encode_record(LogRecord(lsn=1, kind=KIND_BEGIN, txn_id=1, name="a"))
        records, valid = decode_stream(a + b"\x00garbage\xff" * 3)
        assert len(records) == 1 and valid == len(a)

    def test_nonmonotone_lsn_in_valid_prefix_raises(self):
        a = encode_record(LogRecord(lsn=5, kind=KIND_BEGIN, txn_id=1, name="a"))
        b = encode_record(LogRecord(lsn=3, kind=KIND_BEGIN, txn_id=2, name="b"))
        with pytest.raises(RecoveryError, match="monotone"):
            decode_stream(a + b)

    def test_non_utf8_string_ends_scan_cleanly(self):
        a = encode_record(LogRecord(lsn=1, kind=KIND_BEGIN, txn_id=1, name="a"))
        payload = b"\x02\x00\xff\xfe"  # a BEGIN name that is not UTF-8
        body = struct.pack(
            "<2sBBQQQI", b"WL", KIND_BEGIN, 0, 2, 2, 0, len(payload)
        ) + payload
        bad = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        records, valid = decode_stream(a + bad)
        assert [r.lsn for r in records] == [1] and valid == len(a)
        store = StableStore()
        store.append_log(a + bad)
        report = recover(store)
        assert report.torn_tail_bytes == len(bad)
        assert report.losers == ["a"]

    def test_encoding_is_deterministic(self):
        rec = LogRecord(
            lsn=4, kind=KIND_UPDATE, txn_id=2, prev_lsn=3,
            relation="r", page_number=1, before=b"x" * 64, after=b"y" * 64,
        )
        assert encode_record(rec) == encode_record(rec)


# ---------------------------------------------------------- transaction manager


class TestTransactionManager:
    def test_commit_installs_canonical_images(self, pair_schema):
        rows = base_rows()
        store = seeded_store(pair_schema, rows)
        tm = TransactionManager(store, PAGE_BYTES)
        txn = tm.begin("w1", "r", pair_schema)
        new_rows = rows + [(99, 990)]
        tm.commit(txn, canonical_pages(pair_schema, new_rows, PAGE_BYTES))
        assert tm.committed_names == ["w1"]
        # Steal/no-force: the log is durable, the pages are not yet.
        records, _ = decode_stream(bytes(store.log))
        assert records[-1].kind == KIND_COMMIT
        tm.shutdown()
        assert store.committed_bytes() == seeded_store(
            pair_schema, new_rows
        ).committed_bytes()

    def test_commit_logs_only_changed_pages(self, pair_schema):
        rows = base_rows(9)  # 3 full pages
        store = seeded_store(pair_schema, rows)
        tm = TransactionManager(store, PAGE_BYTES)
        txn = tm.begin("w1", "r", pair_schema)
        new_rows = rows[:-1] + [(8, 888)]  # only the last page differs
        tm.commit(txn, canonical_pages(pair_schema, new_rows, PAGE_BYTES))
        records, _ = decode_stream(bytes(store.log))
        updates = [r for r in records if r.kind == KIND_UPDATE]
        assert [(r.relation, r.page_number) for r in updates] == [("r", 2)]

    def test_abort_restores_pretransaction_bytes(self, pair_schema):
        rows = base_rows()
        store = seeded_store(pair_schema, rows)
        baseline = store.committed_bytes()
        tm = TransactionManager(store, PAGE_BYTES)
        txn = tm.begin("w1", "r", pair_schema)
        tm.stage_rows(txn, [(100 + i, 0) for i in range(6)])  # 2 pages logged
        tm.abort(txn)
        assert tm.aborted_names == ["w1"]
        assert tm.clr_records == 2
        tm.shutdown()
        assert store.committed_bytes() == baseline

    def test_checkpoint_cadence(self, pair_schema):
        rows = base_rows()
        store = seeded_store(pair_schema, rows)
        tm = TransactionManager(store, PAGE_BYTES, checkpoint_every=2)
        for i in range(4):
            txn = tm.begin(f"w{i}", "r", pair_schema)
            new_rows = rows + [(200 + i, i)]
            tm.commit(txn, canonical_pages(pair_schema, new_rows, PAGE_BYTES))
        assert tm.checkpoints == 2
        records, _ = decode_stream(bytes(store.log))
        assert sum(1 for r in records if r.kind == KIND_CHECKPOINT) == 2

    def test_flush_page_forces_log_first(self, pair_schema):
        rows = base_rows()
        store = seeded_store(pair_schema, rows)
        tm = TransactionManager(store, PAGE_BYTES)
        txn = tm.begin("w1", "r", pair_schema)
        tm.stage_rows(txn, [(100 + i, 0) for i in range(3)])
        assert tm.flushed_lsn == 0
        tm.flush_page("r", 0)
        # The WAL rule: the page's records were forced before the write.
        assert tm.flushed_lsn >= 2
        assert ("r", 0) not in tm.dirty
        tm.abort(txn)
        tm.shutdown()

    def test_use_after_crash_raises(self, pair_schema):
        store = seeded_store(pair_schema, base_rows())
        tm = TransactionManager(store, PAGE_BYTES)
        tm.crash(None)
        with pytest.raises(RecoveryError, match="after crash"):
            tm.begin("w1", "r", pair_schema)

    def test_checkpoint_every_validated(self, pair_schema):
        with pytest.raises(RecoveryError):
            TransactionManager(StableStore(), PAGE_BYTES, checkpoint_every=0)

    def test_memory_tracks_live_state_not_history(self, pair_schema):
        # Every transaction rewrites the same 8 pages, so live state is
        # the same after 20 transactions as after 80; only the lists of
        # committed names may grow.  A finished transaction's records
        # and page images must go, and so must the durable log below
        # each checkpoint's redo point.  Only what the recovery package
        # allocates is counted, so other tests' leftovers cannot move it.
        page_bytes = 256
        rows = [(i, 0) for i in range(120)]
        here = tracemalloc.Filter(True, os.path.join("*", "repro", "recovery", "*"))

        def live_bytes(n):
            tracemalloc.start()
            store = StableStore()
            store.seed_relation("r", canonical_pages(pair_schema, rows, page_bytes))
            tm = TransactionManager(store, page_bytes)
            for i in range(n):
                txn = tm.begin(f"w{i}", "r", pair_schema)
                new_rows = [(k, i) for k, _ in rows]
                tm.stage_rows(txn, new_rows[:40])
                if i % 10 == 9:
                    tm.abort(txn)
                else:
                    tm.commit(txn, canonical_pages(pair_schema, new_rows, page_bytes))
            snapshot = tracemalloc.take_snapshot().filter_traces([here])
            tracemalloc.stop()
            assert tm.aborts == n // 10 and tm.commits == n - n // 10
            return sum(stat.size for stat in snapshot.statistics("filename"))

        growth = live_bytes(80) - live_bytes(20)
        assert growth < 16 * 1024, growth


# ----------------------------------------------------------------- sanitizer


class TestWalSanitizer:
    def test_clean_shutdown_has_no_violations(self, pair_schema):
        rows = base_rows()
        store = seeded_store(pair_schema, rows)
        tm = TransactionManager(store, PAGE_BYTES)
        txn = tm.begin("w1", "r", pair_schema)
        tm.commit(txn, canonical_pages(pair_schema, rows + [(50, 5)], PAGE_BYTES))
        tm.shutdown()
        assert tm.sanitize_violations() == []

    def test_dirty_page_leak_reported(self, pair_schema):
        rows = base_rows()
        store = seeded_store(pair_schema, rows)
        tm = TransactionManager(store, PAGE_BYTES)
        txn = tm.begin("w1", "r", pair_schema)
        tm.commit(txn, canonical_pages(pair_schema, rows + [(50, 5)], PAGE_BYTES))
        # No shutdown: committed pages are still only buffered.
        assert any("dirty page leaked" in v for v in tm.sanitize_violations())

    def test_wal_order_violation_reported(self, pair_schema):
        store = seeded_store(pair_schema, base_rows())
        tm = TransactionManager(store, PAGE_BYTES)
        txn = tm.begin("w1", "r", pair_schema)
        tm.stage_rows(txn, [(100 + i, 0) for i in range(3)])
        tm.flush_page("r", 0, skip_wal_force=True)
        assert any("WAL order violated" in v for v in tm.sanitize_violations())

    def test_still_active_txn_reported(self, pair_schema):
        store = seeded_store(pair_schema, base_rows())
        tm = TransactionManager(store, PAGE_BYTES)
        tm.begin("w1", "r", pair_schema)
        assert any("still active" in v for v in tm.sanitize_violations())

    def test_crash_disarms_end_of_run_checks(self, pair_schema):
        store = seeded_store(pair_schema, base_rows())
        tm = TransactionManager(store, PAGE_BYTES)
        txn = tm.begin("w1", "r", pair_schema)
        tm.stage_rows(txn, [(100, 0), (101, 0), (102, 0)])
        tm.crash(None)
        assert tm.sanitize_violations() == []

    def test_log_cut_above_the_redo_point_reported(self, pair_schema):
        rows = base_rows()
        store = seeded_store(pair_schema, rows)
        tm = TransactionManager(store, PAGE_BYTES, checkpoint_every=1)
        txn = tm.begin("w1", "r", pair_schema)
        tm.commit(txn, canonical_pages(pair_schema, rows + [(50, 5)], PAGE_BYTES))
        # The page w1 left dirty holds the redo point below the
        # checkpoint; dropping every frame before the checkpoint's own
        # loses the start of redo.
        assert min(tm.dirty.values()) < store.index_lsn
        store.checkpoint_log(store.index_lsn, [], store.index_lsn)
        assert any("redo point" in v for v in tm.sanitize_violations())

    @pytest.mark.parametrize("tamper", ["reorder", "lose", "invent"])
    def test_commit_index_disagreeing_with_acks_reported(self, pair_schema, tamper):
        rows = base_rows()
        store = seeded_store(pair_schema, rows)
        tm = TransactionManager(store, PAGE_BYTES, checkpoint_every=2)
        for i in range(3):
            txn = tm.begin(f"w{i}", "r", pair_schema)
            tm.commit(txn, canonical_pages(pair_schema, rows + [(50 + i, i)], PAGE_BYTES))
        tm.shutdown()
        assert store.commit_index == ["w0", "w1", "w2"]
        assert tm.sanitize_violations() == []
        if tamper == "reorder":
            store.commit_index.reverse()
        elif tamper == "lose":
            store.commit_index.pop(0)
        else:
            store.commit_index.append("w9")
        assert any("durable commits" in v for v in tm.sanitize_violations())

    def test_registered_check_raises_through_simulator(self, pair_schema):
        sim = Simulator(sanitize=True)
        store = seeded_store(pair_schema, base_rows())
        tm = TransactionManager(store, PAGE_BYTES)
        tm.register_sanitizer(sim)
        tm.begin("w1", "r", pair_schema)  # left active: a violation
        sim.run()
        with pytest.raises(SanitizerError, match="recovery.wal"):
            sim.finalize_sanitizer()


# ------------------------------------------------------------------- restart


class TestRestart:
    def test_loser_is_undone(self, pair_schema):
        rows = base_rows()
        store = seeded_store(pair_schema, rows)
        baseline = store.committed_bytes()
        tm = TransactionManager(store, PAGE_BYTES)
        txn = tm.begin("loser", "r", pair_schema)
        tm.stage_rows(txn, [(100 + i, 0) for i in range(6)])
        tm.force()  # records durable, transaction not committed
        tm.crash(None)
        report = recover(store)
        assert report.losers == ["loser"]
        assert report.undo_applied == 2
        assert report.clr_written == 2
        assert store.committed_bytes() == baseline

    def test_committed_but_unflushed_is_redone(self, pair_schema):
        rows = base_rows()
        store = seeded_store(pair_schema, rows)
        tm = TransactionManager(store, PAGE_BYTES)
        txn = tm.begin("winner", "r", pair_schema)
        new_rows = rows + [(77, 7)]
        tm.commit(txn, canonical_pages(pair_schema, new_rows, PAGE_BYTES))
        tm.crash(None)  # buffered pages lost; only the forced log survives
        report = recover(store)
        assert report.committed == ["winner"]
        assert report.redo_applied >= 1
        assert store.committed_bytes() == seeded_store(
            pair_schema, new_rows
        ).committed_bytes()

    def test_torn_page_repaired_from_log(self, pair_schema):
        rows = base_rows(3)
        store = seeded_store(pair_schema, rows)
        old = store.read_page("r", 0)
        new = canonical_pages(pair_schema, [(9, 9), (10, 10), (11, 11)], PAGE_BYTES)[0]
        for rec in (
            LogRecord(lsn=1, kind=KIND_BEGIN, txn_id=1, name="w"),
            LogRecord(lsn=2, kind=KIND_UPDATE, txn_id=1, prev_lsn=1,
                      relation="r", page_number=0, before=old, after=new),
            LogRecord(lsn=3, kind=KIND_COMMIT, txn_id=1, prev_lsn=2),
        ):
            store.append_log(encode_record(rec))
        torn = bytes(b ^ 0xA5 for b in new[: len(new) // 2]) + new[len(new) // 2 :]
        store.write_page("r", 0, new, torn=torn)
        assert store.damaged_pages() == [("r", 0)]
        report = recover(store)
        assert report.torn_pages_repaired == ["r:0"]
        assert store.damaged_pages() == []
        assert store.read_page("r", 0) == new

    def test_torn_page_without_redo_image_is_fatal(self, pair_schema):
        store = seeded_store(pair_schema, base_rows(3))
        image = store.read_page("r", 0)
        store.write_page("r", 0, image, torn=b"\x00" * len(image))
        with pytest.raises(RecoveryError, match="no redo image"):
            recover(store)

    def test_corrupt_tail_truncated(self, pair_schema):
        rows = base_rows()
        store = seeded_store(pair_schema, rows)
        tm = TransactionManager(store, PAGE_BYTES)
        txn = tm.begin("w1", "r", pair_schema)
        tm.commit(txn, canonical_pages(pair_schema, rows + [(50, 5)], PAGE_BYTES))
        boundary = len(store.log)
        store.append_log(b"\xde\xad\xbe\xef" * 9)  # unforced-tail debris
        report = recover(store)
        assert report.valid_log_bytes == boundary
        assert report.torn_tail_bytes == 36
        assert report.committed == ["w1"]

    def test_recovered_log_is_cleanly_decodable(self, pair_schema):
        rows = base_rows()
        store = seeded_store(pair_schema, rows)
        tm = TransactionManager(store, PAGE_BYTES)
        txn = tm.begin("loser", "r", pair_schema)
        tm.stage_rows(txn, [(100, 0), (101, 0), (102, 0)])
        tm.force()
        tm.crash(None)
        recover(store)
        records, valid = decode_stream(bytes(store.log))
        assert valid == len(store.log)
        # Restart closed the loser (CLR + ABORT) and forced a checkpoint.
        assert records[-1].kind == KIND_CHECKPOINT
        assert any(r.kind == KIND_ABORT for r in records)

    def test_recovery_is_idempotent(self, pair_schema):
        rows = base_rows()
        store = seeded_store(pair_schema, rows)
        tm = TransactionManager(store, PAGE_BYTES)
        txn = tm.begin("w1", "r", pair_schema)
        tm.commit(txn, canonical_pages(pair_schema, rows + [(50, 5)], PAGE_BYTES))
        tm.crash(None)
        recover(store)
        once = store.committed_bytes()
        recover(store)  # a crash during recovery restarts it
        assert store.committed_bytes() == once


class TestLogCut:
    """Checkpoints drop the log below their redo point; restart still works."""

    def commit_r(self, tm, schema, rows, i):
        # Rewrites every page of r, so each checkpoint's half-flush
        # leaves the older page behind and the redo point moves on.
        txn = tm.begin(f"w{i}", "r", schema)
        tm.commit(txn, canonical_pages(schema, self.rows_at(rows, i), PAGE_BYTES))

    def rows_at(self, rows, i):
        return [(k, i) for k, _ in rows]

    def test_checkpoints_drop_the_log_below_the_redo_point(self, pair_schema):
        rows = base_rows()
        store = seeded_store(pair_schema, rows)
        tm = TransactionManager(store, PAGE_BYTES, checkpoint_every=1)
        for i in range(6):
            self.commit_r(tm, pair_schema, rows, i)
        records, valid = decode_stream(store.log)
        assert valid == len(store.log)
        assert records[0].lsn > 1
        assert records[0].lsn <= min(tm.dirty.values())
        assert store.commit_index == [f"w{i}" for i in range(6)]
        assert store.index_lsn == records[-1].lsn
        assert records[-1].kind == KIND_CHECKPOINT

    def test_open_transaction_pins_the_cut_and_is_undone(self, pair_schema):
        rows = base_rows()
        store = seeded_store(pair_schema, rows)
        store.seed_relation("s", canonical_pages(pair_schema, rows, PAGE_BYTES))
        tm = TransactionManager(store, PAGE_BYTES, checkpoint_every=1)
        self.commit_r(tm, pair_schema, rows, 0)
        loser = tm.begin("loser", "s", pair_schema)
        tm.stage_rows(loser, [(200 + k, 0) for k in range(6)])  # 2 pages of s
        for i in range(1, 6):
            self.commit_r(tm, pair_schema, rows, i)
        assert tm.checkpoints == 6
        # Five checkpoints ran while the loser was open: each would have
        # cut past its BEGIN, but the loser's first LSN held the cut.
        assert min(tm.dirty.values()) > loser.first_lsn
        records, _ = decode_stream(store.log)
        assert records[0].lsn == loser.first_lsn
        tm.crash(None)
        report = recover(store)
        assert report.losers == ["loser"]
        assert report.undo_applied == 2
        assert report.committed == [f"w{i}" for i in range(6)]
        expected = seeded_store(pair_schema, self.rows_at(rows, 5))
        expected.seed_relation("s", canonical_pages(pair_schema, rows, PAGE_BYTES))
        assert store.committed_bytes() == expected.committed_bytes()

    def test_second_restart_reports_the_same_commits(self, pair_schema):
        rows = base_rows()
        store = seeded_store(pair_schema, rows)
        tm = TransactionManager(store, PAGE_BYTES, checkpoint_every=1)
        for i in range(5):
            self.commit_r(tm, pair_schema, rows, i)
        loser = tm.begin("loser", "r", pair_schema)
        tm.stage_rows(loser, [(300 + k, 0) for k in range(3)])
        tm.force()
        assert decode_stream(store.log)[0][0].lsn > 1
        tm.crash(None)
        first = recover(store)
        once = store.committed_bytes()
        second = recover(store)
        assert first.committed == second.committed == tm.committed_names
        assert store.committed_bytes() == once
        assert second.losers == [] and second.undo_applied == 0


class _CrashAfterCut(TransactionManager):
    """Cuts the power at the first page write after a checkpoint has
    dropped log frames, so the unforced tail is never empty."""

    cut = False

    def checkpoint(self):
        record = super().checkpoint()
        records, _ = decode_stream(self.store.log)
        self.cut = self.cut or records[0].lsn > 1
        return record

    def log_page_update(self, txn, relation, page_number, after):
        record = super().log_page_update(txn, relation, page_number, after)
        if self.cut:
            raise CrashError("power cut after a log-cutting checkpoint")
        return record


# ---------------------------------------------------------------- crash trials


class TestCrashTrials:
    @pytest.mark.parametrize("machine", ["ring", "direct", "dataflow"])
    def test_crash_recovers_byte_identical(self, machine):
        trial = run_crash_trial(
            machine=machine, seed=3, crash_rate=1.0, crash_at_ms=250.0, queries=10
        )
        assert trial.crashed
        assert trial.byte_identical
        assert trial.acknowledged_durable
        assert trial.ok

    @pytest.mark.parametrize("machine", ["ring", "direct", "dataflow"])
    def test_crash_after_a_log_cut_recovers_to_the_oracle(self, machine, monkeypatch):
        monkeypatch.setattr(harness, "TransactionManager", _CrashAfterCut)
        trial = run_crash_trial(
            machine=machine, seed=3, write_fraction=1.0, crash_rate=0.0,
            torn_page_rate=1.0, log_tail_rate=1.0, checkpoint_every=1,
            queries=12,
        )
        assert trial.crashed and trial.committed
        assert trial.damaged_repaired  # torn pages struck and were repaired
        assert trial.recovery["torn_tail_bytes"] > 0
        assert trial.byte_identical
        assert trial.acknowledged_durable

    def test_no_crash_control_cell(self):
        trial = run_crash_trial(
            machine="ring", seed=4, crash_rate=0.0, write_fraction=0.5, queries=8
        )
        assert not trial.crashed
        assert trial.commits > 0
        assert trial.ok
        # Clean runs recover from the shutdown checkpoint alone.
        assert trial.committed == trial.acknowledged

    def test_zero_write_stream_is_untouched(self):
        trial = run_crash_trial(
            machine="ring", seed=5, crash_rate=0.0, write_fraction=0.0, queries=6
        )
        assert trial.commits == 0 and trial.aborts == 0
        assert trial.ok

    def test_trials_are_deterministic(self):
        a = run_crash_trial(machine="direct", seed=6, crash_at_ms=250.0, queries=8)
        b = run_crash_trial(machine="direct", seed=6, crash_at_ms=250.0, queries=8)
        assert a.to_dict() == b.to_dict()
        assert a.recovered_bytes == b.recovered_bytes

    def test_e17_cell(self):
        from repro.experiments import recovery_sweep

        result = recovery_sweep.run(
            machines=("ring",),
            write_fractions=(0.5,),
            crash_rates=(1.0,),
            queries=8,
            workers=1,
        )
        assert result.experiment_id.startswith("E17")
        assert len(result.rows) == 1
        assert result.rows[0]["ok"]


# ---------------------------------------------------------------------- R011


class TestR011:
    BARE = (
        "def deliver(self, page, row):\n"
        "    page.mutate_row(0, row)\n"
    )

    def lint(self, source, path="repro/ring/machine.py"):
        from repro.check.lint import lint_source

        return [f for f in lint_source(source, path) if f.rule == "R011"]

    def test_unlogged_mutation_flagged(self):
        assert len(self.lint(self.BARE)) == 1

    def test_all_machine_packages_in_scope(self):
        for pkg in ("ring", "direct", "dataflow"):
            assert self.lint(self.BARE, f"repro/{pkg}/exec.py")

    def test_txn_evidence_silences(self):
        logged = (
            "def deliver(self, txn, page, row):\n"
            "    self.tm.stage_rows(txn, [row])\n"
            "    page.mutate_row(0, row)\n"
        )
        assert self.lint(logged) == []

    def test_allow_comment_suppresses(self):
        allowed = (
            "def deliver(self, page, row):\n"
            "    page.mutate_row(0, row)  # repro: allow[R011]\n"
        )
        assert self.lint(allowed) == []

    def test_out_of_scope_packages_ignored(self):
        assert self.lint(self.BARE, "repro/relational/heapfile.py") == []
        assert self.lint(self.BARE, "repro/recovery/txn.py") == []

    def test_self_test_covers_r011(self):
        from repro.check.lint import SEEDED_VIOLATIONS, self_test

        assert "R011" in SEEDED_VIOLATIONS
        assert self_test() == []
