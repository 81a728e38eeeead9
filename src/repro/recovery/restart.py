"""ARIES-lite restart: analysis, redo, undo over full-page images.

:func:`recover` takes a :class:`~repro.recovery.store.StableStore` as a
crash left it and returns it to a clean, fully-committed state:

1. **Analysis** scans the CRC-valid log prefix from the last complete
   checkpoint, rebuilding the active-transaction table (winners have a
   COMMIT, finished losers an ABORT, crash losers neither).  The
   committed list is the store's commit index (every commit at or
   below the last checkpoint) followed by the COMMITs the log holds
   after it.
2. **Redo** repeats history: every UPDATE/CLR image in the retained log
   is re-applied in LSN order.  Full images make redo idempotent
   without page-LSN comparisons.  The retained log starts at or below
   the last checkpoint's redo point, so it holds the last image of
   every page that was dirty at the crash, and because a page is only
   ever flushed after its log records were forced (the WAL rule),
   replaying it always converges to a state at least as new as any
   flushed page — including *torn* pages, which are simply overwritten
   by their last logged image.
3. **Undo** rolls back crash losers in descending-LSN order across all
   of them (one merged pass, as ARIES does), writing CLRs and closing
   each with an ABORT record, so a crash *during* recovery would not
   re-undo compensated work.

Afterwards every buffered image is flushed and a final empty checkpoint
is forced, leaving the store byte-deterministic: equal histories yield
equal ``committed_bytes()``, and a second restart reports the same
commits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import RecoveryError
from repro.recovery.store import StableStore
from repro.recovery.wal import (
    KIND_ABORT,
    KIND_BEGIN,
    KIND_CHECKPOINT,
    KIND_CLR,
    KIND_COMMIT,
    KIND_UPDATE,
    NO_LSN,
    LogRecord,
    decode_stream,
    encode_record,
)

__all__ = ["RecoveryReport", "recover"]


@dataclass
class RecoveryReport:
    """What one restart pass saw and did."""

    committed: List[str] = field(default_factory=list)
    losers: List[str] = field(default_factory=list)
    aborted: List[str] = field(default_factory=list)
    records_scanned: int = 0
    valid_log_bytes: int = 0
    torn_tail_bytes: int = 0
    redo_applied: int = 0
    undo_applied: int = 0
    clr_written: int = 0
    torn_pages_repaired: List[str] = field(default_factory=list)
    checkpoint_lsn: int = NO_LSN

    def to_dict(self) -> Dict[str, object]:
        return {
            "committed": list(self.committed),
            "losers": list(self.losers),
            "aborted": list(self.aborted),
            "records_scanned": self.records_scanned,
            "valid_log_bytes": self.valid_log_bytes,
            "torn_tail_bytes": self.torn_tail_bytes,
            "redo_applied": self.redo_applied,
            "undo_applied": self.undo_applied,
            "clr_written": self.clr_written,
            "torn_pages_repaired": list(self.torn_pages_repaired),
            "checkpoint_lsn": self.checkpoint_lsn,
        }


class _Loser:
    __slots__ = ("txn_id", "name", "last_lsn")

    def __init__(self, txn_id: int, name: str, last_lsn: int) -> None:
        self.txn_id = txn_id
        self.name = name
        self.last_lsn = last_lsn


def recover(store: StableStore) -> RecoveryReport:
    """Run analysis / redo / undo over ``store`` in place."""
    log = store.log
    records, valid_bytes = decode_stream(log)
    report = RecoveryReport(
        records_scanned=len(records),
        valid_log_bytes=valid_bytes,
        torn_tail_bytes=len(log) - valid_bytes,
    )
    # A corrupt tail is detected damage, not data: truncate the durable
    # log to the valid prefix so post-recovery appends form a clean log.
    if report.torn_tail_bytes:
        store.truncate_log(valid_bytes)

    damaged = set(store.damaged_pages())
    by_lsn: Dict[int, LogRecord] = {r.lsn: r for r in records}

    # ---- analysis ----------------------------------------------------------
    checkpoint: Optional[LogRecord] = None
    for record in records:
        if record.kind == KIND_CHECKPOINT:
            checkpoint = record
    report.checkpoint_lsn = checkpoint.lsn if checkpoint else NO_LSN

    att: Dict[int, _Loser] = {}
    if checkpoint is not None:
        for txn_id, (last_lsn, name) in checkpoint.att.items():
            att[txn_id] = _Loser(txn_id, name, last_lsn)
    start_lsn = checkpoint.lsn if checkpoint is not None else 0
    names: Dict[int, str] = {t.txn_id: t.name for t in att.values()}
    for record in records:
        if record.lsn <= start_lsn:
            if record.kind == KIND_BEGIN:
                names.setdefault(record.txn_id, record.name)
            continue
        if record.kind == KIND_BEGIN:
            names[record.txn_id] = record.name
            att[record.txn_id] = _Loser(record.txn_id, record.name, record.lsn)
        elif record.kind in (KIND_UPDATE, KIND_CLR):
            loser = att.get(record.txn_id)
            if loser is None:
                # Active before the checkpoint's ATT snapshot was cut —
                # can only happen for records between checkpoint-taking
                # and checkpoint-logging; register conservatively.
                att[record.txn_id] = _Loser(
                    record.txn_id,
                    names.get(record.txn_id, f"txn{record.txn_id}"),
                    record.lsn,
                )
            else:
                loser.last_lsn = record.lsn
        elif record.kind == KIND_COMMIT:
            att.pop(record.txn_id, None)
        elif record.kind == KIND_ABORT:
            entry = att.pop(record.txn_id, None)
            name = entry.name if entry else names.get(record.txn_id)
            report.aborted.append(name or f"txn{record.txn_id}")
    report.committed = store.committed(records)
    report.losers = sorted(loser.name for loser in att.values())

    # ---- redo --------------------------------------------------------------
    images: Dict[Tuple[str, int], bytes] = {}
    for record in records:
        if record.kind in (KIND_UPDATE, KIND_CLR):
            key = (record.relation, record.page_number)
            images[key] = record.after
            report.redo_applied += 1
            if key in damaged:
                damaged.discard(key)
                report.torn_pages_repaired.append(
                    f"{record.relation}:{record.page_number}"
                )
    if damaged:
        # A torn page the log never mentions cannot be repaired — but it
        # also cannot exist: torn writes only strike dirty pages, and
        # dirty pages are dirty *because* an update was logged (and the
        # WAL rule forced that record before any flush began).
        broken = ", ".join(f"{r}:{p}" for r, p in sorted(damaged))
        raise RecoveryError(
            f"damaged page(s) with no redo image in the valid log: {broken}"
        )

    # ---- undo --------------------------------------------------------------
    next_lsn = (max(by_lsn) + 1) if by_lsn else 1
    new_records: List[LogRecord] = []

    def append(record: LogRecord) -> LogRecord:
        nonlocal next_lsn
        next_lsn += 1
        new_records.append(record)
        by_lsn[record.lsn] = record
        return record

    undo_cursor: Dict[int, int] = {}
    undo_last: Dict[int, int] = {}
    for loser in att.values():
        undo_cursor[loser.txn_id] = loser.last_lsn
        undo_last[loser.txn_id] = loser.last_lsn
    while True:
        live = {tid: lsn for tid, lsn in undo_cursor.items() if lsn != NO_LSN}
        if not live:
            break
        txn_id = max(live, key=lambda tid: live[tid])
        record = by_lsn.get(live[txn_id])
        if record is None:
            raise RecoveryError(
                f"undo chain of txn {txn_id} references LSN "
                f"{live[txn_id]} outside the valid log"
            )
        if record.kind == KIND_UPDATE:
            clr = append(
                LogRecord(
                    lsn=next_lsn, kind=KIND_CLR, txn_id=txn_id,
                    prev_lsn=undo_last[txn_id], relation=record.relation,
                    page_number=record.page_number, after=record.before,
                    undo_next_lsn=record.prev_lsn,
                )
            )
            undo_last[txn_id] = clr.lsn
            images[(record.relation, record.page_number)] = record.before
            report.undo_applied += 1
            report.clr_written += 1
            undo_cursor[txn_id] = record.prev_lsn
        elif record.kind == KIND_CLR:
            undo_cursor[txn_id] = record.undo_next_lsn
        else:
            undo_cursor[txn_id] = record.prev_lsn
    for txn_id in sorted(undo_cursor):
        append(
            LogRecord(lsn=next_lsn, kind=KIND_ABORT, txn_id=txn_id,
                      prev_lsn=undo_last[txn_id])
        )

    # ---- install -----------------------------------------------------------
    for record in new_records:
        store.append_log(encode_record(record))
    for (relation, page_number) in sorted(images):
        store.write_page(relation, page_number, images[(relation, page_number)])
    final_checkpoint = LogRecord(
        lsn=next_lsn, kind=KIND_CHECKPOINT, txn_id=0
    )
    store.append_log(encode_record(final_checkpoint))
    return report
