"""Property-based tests (hypothesis) on core data structures and invariants."""

import struct
import zlib

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.errors import PacketError, RecoveryError, SchemaError
from repro.recovery.wal import KIND_BEGIN, LogRecord, decode_stream, encode_record
from repro.relational import operators
from repro.relational.page import Page, pack_rows_into_pages
from repro.relational.predicate import attr
from repro.relational.relation import Relation
from repro.relational.schema import DataType, Schema
from repro.relational.sorting import is_sorted, sort_relation
from repro.ring.packets import (
    ControlPacket,
    InstructionPacket,
    ResultPacket,
    SourceOperand,
    instruction_packet_bytes,
    result_packet_bytes,
)
from repro.workload.zipf import weighted_partition

PAIR = Schema.build(("k", DataType.INT), ("g", DataType.INT))
TEXT = Schema.build(("k", DataType.INT), ("s", DataType.CHAR, 10))

pair_rows = st.lists(
    st.tuples(st.integers(-(2**40), 2**40), st.integers(0, 50)), max_size=60
)
text_rows = st.lists(
    st.tuples(
        st.integers(-(2**40), 2**40),
        st.text(alphabet="abcdefghij", max_size=10),
    ),
    max_size=40,
)


class TestRowPacking:
    @given(rows=text_rows)
    def test_pack_unpack_roundtrip(self, rows):
        for row in rows:
            assert TEXT.unpack(TEXT.pack(row)) == row

    @given(rows=pair_rows)
    def test_pack_many_roundtrip(self, rows):
        assert PAIR.unpack_many(PAIR.pack_many(rows)) == rows

    @settings(max_examples=300)
    @given(
        key=st.integers(-(2**63), 2**63 - 1),
        text=st.text(
            st.one_of(st.sampled_from("a\x00é€\U0001d11e"), st.characters()),
            max_size=12,
        ),
    )
    @example(key=0, text="\ud800")  # a lone surrogate is rejected, not crashed on
    def test_every_accepted_row_roundtrips(self, key, text):
        # Arbitrary text around the CHAR(10) boundary, NUL and non-ASCII
        # included: a row is accepted exactly when its UTF-8 form fits
        # and does not end in NUL, and every accepted row decodes back
        # to itself.
        row = (key, text)
        try:
            size = len(text.encode("utf-8"))
        except UnicodeEncodeError:  # a lone surrogate has no UTF-8 form
            size = None
        fits = size is not None and size <= 10 and not text.endswith("\x00")
        try:
            record = TEXT.pack(row)
        except SchemaError:
            assert not fits
            return
        assert fits
        assert TEXT.unpack(record) == row
        assert TEXT.unpack_many(TEXT.pack_many([row, row])) == [row, row]


class TestPageInvariants:
    @given(rows=pair_rows)
    def test_page_serialization_roundtrip(self, rows):
        pages = pack_rows_into_pages(PAIR, rows, page_bytes=128)
        back = [r for p in pages for r in Page.from_bytes(PAIR, p.to_bytes()).rows()]
        assert back == rows

    @given(rows=pair_rows)
    def test_packing_preserves_order_and_count(self, rows):
        pages = pack_rows_into_pages(PAIR, rows, page_bytes=128)
        assert [r for p in pages for r in p.rows()] == rows
        assert all(not p.is_empty for p in pages)

    @given(rows=pair_rows)
    def test_all_pages_full_except_last(self, rows):
        pages = pack_rows_into_pages(PAIR, rows, page_bytes=128)
        for page in pages[:-1]:
            assert page.is_full


class TestAlgebraInvariants:
    @given(rows=pair_rows, cut=st.integers(-10, 60))
    def test_restrict_partitions_relation(self, rows, cut):
        rel = Relation.from_rows("r", PAIR, rows, page_bytes=128)
        kept = operators.restrict(rel, attr("g") < cut)
        dropped = operators.restrict(rel, ~(attr("g") < cut))
        assert kept.cardinality + dropped.cardinality == rel.cardinality
        merged = operators.append(kept, dropped, name="m")
        assert merged.same_rows_as(rel)

    @given(a=pair_rows, b=pair_rows)
    @settings(max_examples=40)
    def test_join_algorithms_agree(self, a, b):
        ra = Relation.from_rows("a", PAIR, a, page_bytes=128)
        rb = Relation.from_rows("b", PAIR, b, page_bytes=128)
        cond = attr("g").equals_attr("g")
        nl = operators.nested_loops_join(ra, rb, cond)
        hj = operators.hash_join(ra, rb, cond)
        sm = operators.sort_merge_join(ra, rb, cond)
        assert nl.same_rows_as(hj)
        assert nl.same_rows_as(sm)

    @given(a=pair_rows, b=pair_rows)
    @settings(max_examples=40)
    def test_join_cardinality_formula(self, a, b):
        ra = Relation.from_rows("a", PAIR, a, page_bytes=128)
        rb = Relation.from_rows("b", PAIR, b, page_bytes=128)
        out = operators.hash_join(ra, rb, attr("g").equals_attr("g"))
        expected = sum(
            sum(1 for y in b if y[1] == x[1]) for x in a
        )
        assert out.cardinality == expected

    @given(rows=pair_rows)
    def test_union_idempotent(self, rows):
        rel = Relation.from_rows("r", PAIR, rows, page_bytes=128)
        once = operators.union(rel, rel)
        assert once.same_rows_as(operators.distinct(rel))

    @given(rows=pair_rows)
    def test_sort_is_permutation_and_ordered(self, rows):
        rel = Relation.from_rows("r", PAIR, rows, page_bytes=128)
        out = sort_relation(rel, ["k", "g"], memory_pages=1)
        assert out.same_rows_as(rel)
        assert is_sorted(out, ["k", "g"])

    @given(rows=pair_rows)
    def test_project_dedup_cardinality(self, rows):
        rel = Relation.from_rows("r", PAIR, rows, page_bytes=128)
        out = operators.project(rel, ["g"])
        assert out.cardinality == len({r[1] for r in rows})


class TestPacketProperties:
    @given(
        ip=st.integers(0, 2**16),
        query=st.integers(0, 2**16),
        flush=st.booleans(),
        rows=st.integers(0, 6),
    )
    @settings(max_examples=50)
    def test_instruction_roundtrip_and_size(self, ip, query, flush, rows):
        page = Page(PAIR, 128)
        for i in range(rows):
            page.append((i, i))
        raw = page.to_bytes()
        packet = InstructionPacket(
            ip_id=ip,
            query_id=query,
            sender_ic=1,
            destination_ic=2,
            flush_when_done=flush,
            opcode="join",
            result_schema=PAIR,
            result_relation="r",
            operands=[SourceOperand("s", PAIR, raw)],
        )
        wire = packet.encode()
        assert InstructionPacket.decode(wire) == packet
        assert len(wire) == instruction_packet_bytes(PAIR, [(PAIR, len(raw))])

    @given(payload=st.binary(max_size=200))
    def test_result_packet_roundtrip_any_payload(self, payload):
        packet = ResultPacket(ic_id=1, relation_name="r", page_bytes=payload)
        assert ResultPacket.decode(packet.encode()) == packet
        assert len(packet.encode()) == result_packet_bytes(len(payload))


def seal(kind, lsn, payload, txn_id=1, prev_lsn=0):
    """A WAL frame with a correct magic and CRC around any payload."""
    body = struct.pack(
        "<2sBBQQQI", b"WL", kind, 0, lsn, txn_id, prev_lsn, len(payload)
    ) + payload
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def assert_valid_prefix_or_error(data):
    """decode_stream's contract: a self-consistent valid prefix, or RecoveryError."""
    try:
        records, valid = decode_stream(data)
    except RecoveryError:
        return
    assert 0 <= valid <= len(data)
    lsns = [r.lsn for r in records]
    assert lsns == sorted(set(lsns)) and all(lsn > 0 for lsn in lsns)
    assert decode_stream(data[:valid]) == (records, valid)


sealed_frames = st.lists(
    st.builds(
        seal,
        kind=st.integers(0, 255),
        lsn=st.integers(0, 2**64 - 1),
        payload=st.binary(max_size=48),
        txn_id=st.integers(0, 2**64 - 1),
        prev_lsn=st.integers(0, 2**64 - 1),
    ),
    max_size=6,
)


class TestWalDecoder:
    @settings(max_examples=300)
    @given(data=st.binary(max_size=400))
    def test_arbitrary_bytes(self, data):
        assert_valid_prefix_or_error(data)

    @settings(max_examples=300)
    @given(frames=sealed_frames, tail=st.binary(max_size=24))
    @example(frames=[seal(KIND_BEGIN, 1, b"\x02\x00\xff\xfe")], tail=b"")
    def test_crc_sealed_frames_with_arbitrary_payloads(self, frames, tail):
        assert_valid_prefix_or_error(b"".join(frames) + tail)

    @settings(max_examples=200)
    @given(
        names=st.lists(st.text(st.characters(codec="utf-8"), max_size=8), max_size=4),
        kind=st.integers(0, 255),
        payload=st.binary(max_size=48),
    )
    @example(names=["ok"], kind=KIND_BEGIN, payload=b"\x02\x00\xff\xfe")
    def test_scan_ends_at_the_last_good_frame(self, names, kind, payload):
        good = [
            LogRecord(lsn=i + 1, kind=KIND_BEGIN, txn_id=i + 1, name=name)
            for i, name in enumerate(names)
        ]
        prefix = b"".join(encode_record(record) for record in good)
        data = prefix + seal(kind, len(good) + 1, payload)
        records, valid = decode_stream(data)
        assert records[: len(good)] == good
        assert valid == (len(data) if len(records) > len(good) else len(prefix))


def seal_packet(body, lead=1):
    """A ring packet with a correct Packet Length and CRC around any body."""
    head = struct.pack("<II", lead, len(body) + 12) + body
    return head + struct.pack("<I", zlib.crc32(head) & 0xFFFFFFFF)


def reseal(packet, offset=0, value=None, cut=None):
    """``packet``'s body with one byte set and/or cut short, sealed again."""
    body = bytearray(packet[8:-4])
    if value is not None and body:
        body[offset % len(body)] = value
    return seal_packet(bytes(body[:cut]))


def assert_decodes_or_packet_error(data):
    """Every ring decoder's contract: a packet, or PacketError."""
    for decode in (InstructionPacket.decode, ResultPacket.decode, ControlPacket.decode):
        try:
            decode(data)
        except PacketError:
            pass


VALID_INSTRUCTION = InstructionPacket(
    ip_id=3,
    query_id=7,
    sender_ic=1,
    destination_ic=2,
    flush_when_done=True,
    opcode="join",
    result_relation="out",
    result_schema=TEXT,
    operands=[SourceOperand("s", PAIR, Page(PAIR, 64).to_bytes())],
).encode()
#: Byte offset of the result schema's first type code inside the body.
FIRST_TYPE_CODE = 24 + 16 + 8


class TestPacketDecoders:
    @settings(max_examples=300)
    @given(data=st.binary(max_size=200))
    def test_arbitrary_bytes(self, data):
        assert_decodes_or_packet_error(data)

    @settings(max_examples=300)
    @given(body=st.binary(max_size=120), lead=st.integers(0, 2**32 - 1))
    @example(body=b"\xff" * 16 + b"\x00" * 4, lead=1)
    @example(body=struct.pack("<III", 7, 999, 0), lead=1)
    def test_sealed_frames_with_arbitrary_bodies(self, body, lead):
        assert_decodes_or_packet_error(seal_packet(body, lead))

    @settings(max_examples=300)
    @given(
        offset=st.integers(0, len(VALID_INSTRUCTION)),
        value=st.none() | st.integers(0, 255),
        cut=st.none() | st.integers(0, len(VALID_INSTRUCTION)),
    )
    @example(offset=0, value=None, cut=30)
    @example(offset=FIRST_TYPE_CODE, value=9, cut=None)
    def test_resealed_mutations_of_a_valid_instruction(self, offset, value, cut):
        assert_decodes_or_packet_error(reseal(VALID_INSTRUCTION, offset, value, cut))


class TestWorkloadHelpers:
    @given(
        total=st.integers(0, 10_000),
        weights=st.lists(st.integers(1, 50), min_size=1, max_size=20),
    )
    def test_weighted_partition_sums(self, total, weights):
        parts = weighted_partition(total, weights)
        assert sum(parts) == total
        assert len(parts) == len(weights)
        if total >= len(weights):
            assert all(p >= 1 for p in parts)
