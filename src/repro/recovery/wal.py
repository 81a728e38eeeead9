"""Write-ahead log records: LSN-stamped, CRC-framed, byte-deterministic.

Every durable state change is described by a :class:`LogRecord` and
serialized with :func:`encode_record` into a self-delimiting frame::

    magic(2) kind(1) pad(1) lsn(8) txn_id(8) prev_lsn(8) payload_len(4)
    payload(payload_len) crc32(4)

All integers are little-endian and unsigned; the CRC covers everything
before it, so a torn or bit-flipped tail is detected by
:func:`decode_stream`, which returns the records of the longest valid
prefix instead of raising — exactly the contract ARIES restart needs
(the tail past the last forced LSN was never acknowledged to anyone).

Updates carry *full* before/after page images.  That costs log volume a
real system would avoid with byte-range diffs, but it buys two things
this reproduction cares about more: redo is idempotent without page-LSN
comparisons, and the committed state is byte-deterministic by
construction (re-applying the log always converges to the same images).
An empty after-image means the page was truncated away; an empty
before-image means it did not previously exist.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import RecoveryError

__all__ = [
    "KIND_ABORT",
    "KIND_BEGIN",
    "KIND_CHECKPOINT",
    "KIND_CLR",
    "KIND_COMMIT",
    "KIND_UPDATE",
    "KIND_NAMES",
    "LogRecord",
    "NO_LSN",
    "decode_stream",
    "encode_record",
    "first_lsn",
]

#: Record kinds, one byte each.
KIND_BEGIN = 1
KIND_UPDATE = 2
KIND_COMMIT = 3
KIND_ABORT = 4
KIND_CLR = 5
KIND_CHECKPOINT = 6

KIND_NAMES: Dict[int, str] = {
    KIND_BEGIN: "BEGIN",
    KIND_UPDATE: "UPDATE",
    KIND_COMMIT: "COMMIT",
    KIND_ABORT: "ABORT",
    KIND_CLR: "CLR",
    KIND_CHECKPOINT: "CHECKPOINT",
}

#: Sentinel for "no previous LSN" / "undo chain exhausted".
NO_LSN = 0

_MAGIC = b"WL"
_HEADER = struct.Struct("<2sBBQQQI")
_CRC = struct.Struct("<I")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


@dataclass(frozen=True)
class LogRecord:
    """One decoded WAL record.

    Field use by kind:

    * BEGIN — ``name`` is the query/transaction name.
    * UPDATE — ``relation``/``page_number`` locate the page,
      ``before``/``after`` are full images (empty = absent).
    * COMMIT / ABORT — chain fields only.
    * CLR — like UPDATE but redo-only; ``undo_next_lsn`` points at the
      next record to undo (skipping already-compensated work).
    * CHECKPOINT — ``att`` maps txn_id -> (last_lsn, name);
      ``dpt`` maps (relation, page_number) -> recLSN.
    """

    lsn: int
    kind: int
    txn_id: int
    prev_lsn: int = NO_LSN
    name: str = ""
    relation: str = ""
    page_number: int = 0
    before: bytes = b""
    after: bytes = b""
    undo_next_lsn: int = NO_LSN
    att: Dict[int, Tuple[int, str]] = field(default_factory=dict)
    dpt: Dict[Tuple[str, int], int] = field(default_factory=dict)


def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise RecoveryError(f"string too long for WAL frame: {len(data)} bytes")
    return _U16.pack(len(data)) + data


def _pack_bytes(data: bytes) -> bytes:
    return _U32.pack(len(data)) + data


def _payload(record: LogRecord) -> bytes:
    if record.kind == KIND_BEGIN:
        return _pack_str(record.name)
    if record.kind == KIND_UPDATE:
        return (
            _pack_str(record.relation)
            + _U32.pack(record.page_number)
            + _pack_bytes(record.before)
            + _pack_bytes(record.after)
        )
    if record.kind == KIND_CLR:
        return (
            _pack_str(record.relation)
            + _U32.pack(record.page_number)
            + _pack_bytes(record.after)
            + _U64.pack(record.undo_next_lsn)
        )
    if record.kind in (KIND_COMMIT, KIND_ABORT):
        return b""
    if record.kind == KIND_CHECKPOINT:
        parts = [_U32.pack(len(record.att))]
        for txn_id in sorted(record.att):
            last_lsn, name = record.att[txn_id]
            parts.append(_U64.pack(txn_id) + _U64.pack(last_lsn) + _pack_str(name))
        parts.append(_U32.pack(len(record.dpt)))
        for relation, page_number in sorted(record.dpt):
            rec_lsn = record.dpt[(relation, page_number)]
            parts.append(
                _pack_str(relation) + _U32.pack(page_number) + _U64.pack(rec_lsn)
            )
        return b"".join(parts)
    raise RecoveryError(f"unknown WAL record kind {record.kind}")


def encode_record(record: LogRecord) -> bytes:
    """One CRC-framed byte string; identical input -> identical bytes."""
    payload = _payload(record)
    header = _HEADER.pack(
        _MAGIC,
        record.kind,
        0,
        record.lsn,
        record.txn_id,
        record.prev_lsn,
        len(payload),
    )
    body = header + payload
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


class _Reader:
    """Sequential decoder over one payload, a view into the log.

    Slices are views too; only strings and page images are
    materialized, each exactly once.
    """

    def __init__(self, data: memoryview) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise RecoveryError("WAL payload underrun")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def string(self) -> str:
        try:
            return str(self.take(self.u16()), "utf-8")
        except UnicodeDecodeError as exc:
            raise RecoveryError(f"WAL string is not UTF-8: {exc}") from None

    def blob(self) -> bytes:
        return bytes(self.take(self.u32()))

    def done(self) -> bool:
        return self.pos == len(self.data)


def _decode_payload(
    kind: int, lsn: int, txn_id: int, prev_lsn: int, payload: memoryview
) -> LogRecord:
    reader = _Reader(payload)
    if kind == KIND_BEGIN:
        record = LogRecord(lsn=lsn, kind=kind, txn_id=txn_id, prev_lsn=prev_lsn,
                           name=reader.string())
    elif kind == KIND_UPDATE:
        relation = reader.string()
        page_number = reader.u32()
        before = reader.blob()
        after = reader.blob()
        record = LogRecord(
            lsn=lsn, kind=kind, txn_id=txn_id, prev_lsn=prev_lsn,
            relation=relation, page_number=page_number, before=before, after=after,
        )
    elif kind == KIND_CLR:
        relation = reader.string()
        page_number = reader.u32()
        after = reader.blob()
        undo_next = reader.u64()
        record = LogRecord(
            lsn=lsn, kind=kind, txn_id=txn_id, prev_lsn=prev_lsn,
            relation=relation, page_number=page_number, after=after,
            undo_next_lsn=undo_next,
        )
    elif kind in (KIND_COMMIT, KIND_ABORT):
        record = LogRecord(lsn=lsn, kind=kind, txn_id=txn_id, prev_lsn=prev_lsn)
    elif kind == KIND_CHECKPOINT:
        att: Dict[int, Tuple[int, str]] = {}
        for _ in range(reader.u32()):
            tid = reader.u64()
            last_lsn = reader.u64()
            att[tid] = (last_lsn, reader.string())
        dpt: Dict[Tuple[str, int], int] = {}
        for _ in range(reader.u32()):
            relation = reader.string()
            page_number = reader.u32()
            dpt[(relation, page_number)] = reader.u64()
        record = LogRecord(lsn=lsn, kind=kind, txn_id=txn_id, prev_lsn=prev_lsn,
                           att=att, dpt=dpt)
    else:
        raise RecoveryError(f"unknown WAL record kind {kind}")
    if not reader.done():
        raise RecoveryError(
            f"WAL payload for {KIND_NAMES.get(kind, kind)} has "
            f"{len(payload) - reader.pos} trailing bytes"
        )
    return record


def first_lsn(frame: bytes) -> int:
    """The LSN in the header that opens ``frame``; ``NO_LSN`` if none does.

    Only the header is read: a forced frame is a run of whole records,
    so this is the lowest LSN it holds.
    """
    if len(frame) < _HEADER.size:
        return NO_LSN
    magic, _kind, pad, lsn, _txn, _prev, _len = _HEADER.unpack_from(frame)
    return lsn if magic == _MAGIC and pad == 0 else NO_LSN


def decode_stream(data: bytes) -> Tuple[List[LogRecord], int]:
    """Decode the longest valid prefix of ``data``.

    Returns ``(records, valid_bytes)``.  A truncated frame, a bad magic,
    a CRC mismatch, or a malformed payload ends the scan *cleanly* at the
    last good frame boundary — damage past the forced prefix was never
    acknowledged, so treating it as absent is the correct durability
    semantics, not data loss.  Non-monotone LSNs inside the valid prefix
    raise :class:`~repro.errors.RecoveryError`: that is log corruption a
    crash cannot legally produce.

    The scan reads ``data`` through one ``memoryview``, so each name and
    page image is copied once, into its record.
    """
    records: List[LogRecord] = []
    offset = 0
    previous_lsn = 0
    view = memoryview(data)
    total = len(view)
    while True:
        if offset + _HEADER.size + _CRC.size > total:
            break
        magic, kind, pad, lsn, txn_id, prev_lsn, payload_len = _HEADER.unpack_from(
            view, offset
        )
        if magic != _MAGIC or pad != 0:
            break
        end = offset + _HEADER.size + payload_len + _CRC.size
        if end > total:
            break
        (crc,) = _CRC.unpack_from(view, end - _CRC.size)
        if crc != (zlib.crc32(view[offset : end - _CRC.size]) & 0xFFFFFFFF):
            break
        payload = view[offset + _HEADER.size : end - _CRC.size]
        try:
            record = _decode_payload(kind, lsn, txn_id, prev_lsn, payload)
        except RecoveryError:
            break
        if record.lsn <= previous_lsn:
            raise RecoveryError(
                f"WAL LSNs not monotone: {record.lsn} after {previous_lsn} "
                f"inside the CRC-valid prefix"
            )
        previous_lsn = record.lsn
        records.append(record)
        offset = end
    return records, offset
