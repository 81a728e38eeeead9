"""Ring packets, byte-exact to Figures 4.3, 4.4, and 4.5.

Figure 4.3 — instruction packet::

    IPid | Packet Length | Query Id | ICid of sender | ICid of destination
    | "Flush-When-Done" flag | Instruction Opcode
    | result operand: Relation Name, Tuple Length & Format
    | # of Source Operands
    | per source operand: Relation Name, Tuple Length & Format,
      Page Length, Data Page
    | Checksum

Figure 4.4 — result packet::

    ICid | Packet Length | Relation Name | Page Length | Data Page | Checksum

Figure 4.5 — control packet::

    ICid | Packet Length | IPid of sender | Message | Checksum

All integers are little-endian uint32; relation names are 16-byte
NUL-padded ASCII; the "Tuple Length & Format" field serializes the
operand's schema (so any IP can decode the rows, as the paper requires);
data pages are the page's literal bytes.  Every packet ends with a CRC-32
checksum of everything before it — the error-detection word Section 4's
lossy-ring protocol needs: a receiver that sees a checksum mismatch NAKs
the transfer and the sender retransmits (see :mod:`repro.ring.network`).
The Packet Length field covers the complete packet including the
checksum.  ``encode``/``decode`` round-trip exactly, and the simulated
rings charge transfer time on ``len(encode())``.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import PacketError, SchemaError
from repro.relational.schema import Attribute, DataType, Schema

_U32 = struct.Struct("<I")
#: The two leading uint32 fields of every packet: an id and Packet Length.
_HEADER = struct.Struct("<II")
#: Per-attribute type code and width in the "Tuple Length & Format" field.
_ATTR = struct.Struct("<BH")
_CODES = {DataType.INT: 0, DataType.FLOAT: 1, DataType.CHAR: 2}
_KINDS = {code: dtype for dtype, code in _CODES.items()}
_NAME_BYTES = 16
#: Trailing CRC-32 word appended to every packet.
CHECKSUM_BYTES = 4

#: Fixed header sizes (bytes) used for analytic packet-size formulas.
INSTRUCTION_HEADER_BYTES = 7 * 4  # IPid..opcode fields
CONTROL_PACKET_BYTES = 4 * 4 + 4 + CHECKSUM_BYTES  # fixed control packet + argument + crc


def _seal(packet: bytes) -> bytes:
    """Append the CRC-32 checksum word to a fully built packet."""
    return packet + _U32.pack(zlib.crc32(packet) & 0xFFFFFFFF)


def _verify_checksum(data: bytes, what: str) -> None:
    """Check the trailing CRC-32 word; raise :class:`PacketError` on mismatch."""
    if len(data) < 8 + CHECKSUM_BYTES:
        raise PacketError(f"{what} shorter than its header")
    carried = _U32.unpack_from(data, len(data) - CHECKSUM_BYTES)[0]
    computed = zlib.crc32(data[:-CHECKSUM_BYTES]) & 0xFFFFFFFF
    if carried != computed:
        raise PacketError(
            f"{what} checksum mismatch: carried {carried:#010x}, "
            f"computed {computed:#010x}"
        )


def flip_byte(data: bytes, offset: int) -> bytes:
    """``data`` with the byte at ``offset`` inverted (corruption helper)."""
    offset %= len(data)  # support negative offsets
    return data[:offset] + bytes([data[offset] ^ 0xFF]) + data[offset + 1 :]


def _pack_u32(value: int) -> bytes:
    if not 0 <= value < 2**32:
        raise PacketError(f"field value {value} out of uint32 range")
    return _U32.pack(value)


def _pack_name(name: str) -> bytes:
    raw = name.encode("ascii", errors="replace")
    if len(raw) > _NAME_BYTES:
        raw = raw[:_NAME_BYTES]
    return raw.ljust(_NAME_BYTES, b"\x00")


def _pack_schema(schema: Schema) -> bytes:
    """Serialize the "Tuple Length & Format" field: arity, then per
    attribute a 1-byte type code, 2-byte width, and 16-byte name."""
    parts = [_pack_u32(schema.record_width), _pack_u32(schema.arity)]
    for attr in schema:
        parts.append(_ATTR.pack(_CODES[attr.dtype], attr.width))
        parts.append(_pack_name(attr.name))
    return b"".join(parts)


class _Reader:
    """Sequential decoder over one packet body (checksum word excluded).

    Every malformed field raises :class:`PacketError`: a CRC-valid frame
    can still be short, carry a non-ASCII name, an unknown type code or
    a schema that does not validate, and none of those may escape as a
    ``struct.error``, ``UnicodeDecodeError``, ``KeyError`` or
    ``SchemaError``.
    """

    def __init__(self, data: bytes, what: str) -> None:
        self.data = data
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise PacketError(f"{self.what} truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def name(self) -> str:
        try:
            return self.take(_NAME_BYTES).rstrip(b"\x00").decode("ascii")
        except UnicodeDecodeError as exc:
            raise PacketError(f"{self.what} name is not ASCII: {exc}") from None

    def schema(self) -> Schema:
        """Inverse of :func:`_pack_schema`."""
        record_width = self.u32()
        arity = self.u32()
        attrs = []
        try:
            for _ in range(arity):
                code, width = _ATTR.unpack(self.take(_ATTR.size))
                kind = _KINDS.get(code)
                if kind is None:
                    raise PacketError(f"{self.what}: unknown attribute type code {code}")
                attrs.append(Attribute(self.name(), kind, width))
            schema = Schema(tuple(attrs))
        except SchemaError as exc:
            raise PacketError(f"{self.what}: invalid tuple format: {exc}") from None
        if schema.record_width != record_width:
            raise PacketError(
                f"tuple format decodes to width {schema.record_width}, header says {record_width}"
            )
        return schema

    def page(self) -> bytes:
        """Page Length | Data Page."""
        return self.take(self.u32())

    def end(self) -> None:
        if self.pos != len(self.data):
            raise PacketError(
                f"{self.what} has {len(self.data) - self.pos} bytes past its last field"
            )


def _open(data: bytes, what: str) -> Tuple[int, _Reader]:
    """Check the checksum and Packet Length; return the leading id field
    and a reader over the body between the header and the checksum."""
    _verify_checksum(data, what)
    lead, length = _HEADER.unpack_from(data)
    if length != len(data):
        raise PacketError(f"packet length field {length} != actual {len(data)}")
    return lead, _Reader(data[_HEADER.size : -CHECKSUM_BYTES], what)


@dataclass
class SourceOperand:
    """One source operand of an instruction packet: a named page of rows."""

    relation_name: str
    schema: Schema
    page_bytes: bytes

    def encode(self) -> bytes:
        """Relation Name | Tuple Length & Format | Page Length | Data Page."""
        return (
            _pack_name(self.relation_name)
            + _pack_schema(self.schema)
            + _pack_u32(len(self.page_bytes))
            + self.page_bytes
        )


@dataclass
class InstructionPacket:
    """Figure 4.3: everything an IP needs to execute one operation."""

    ip_id: int
    query_id: int
    sender_ic: int
    destination_ic: int
    flush_when_done: bool
    opcode: str
    result_relation: str
    result_schema: Schema
    operands: List[SourceOperand] = field(default_factory=list)
    #: Free-form extra control payload (e.g. serialized predicate id);
    #: carried in the opcode field region, length-prefixed.
    tag: int = 0

    _OPCODES = ["restrict", "join", "project", "union", "append", "delete"]

    def encode(self) -> bytes:
        """Serialize in the Figure 4.3 field order.

        The Packet Length field is the length of the complete packet,
        written after the body is known (as real ring hardware does).
        """
        try:
            opcode_num = self._OPCODES.index(self.opcode)
        except ValueError:
            raise PacketError(f"unknown opcode {self.opcode!r}") from None
        body = (
            _pack_u32(self.query_id)
            + _pack_u32(self.sender_ic)
            + _pack_u32(self.destination_ic)
            + _pack_u32(1 if self.flush_when_done else 0)
            + _pack_u32(opcode_num)
            + _pack_u32(self.tag)
            + _pack_name(self.result_relation)
            + _pack_schema(self.result_schema)
            + _pack_u32(len(self.operands))
            + b"".join(op.encode() for op in self.operands)
        )
        return _seal(
            _pack_u32(self.ip_id) + _pack_u32(len(body) + 8 + CHECKSUM_BYTES) + body
        )

    @classmethod
    def decode(cls, data: bytes) -> "InstructionPacket":
        """Inverse of :meth:`encode`."""
        ip_id, body = _open(data, "instruction packet")
        query_id = body.u32()
        sender = body.u32()
        dest = body.u32()
        flush = bool(body.u32())
        opcode_num = body.u32()
        tag = body.u32()
        if opcode_num >= len(cls._OPCODES):
            raise PacketError(f"unknown opcode number {opcode_num}")
        result_relation = body.name()
        result_schema = body.schema()
        operands = [
            SourceOperand(body.name(), body.schema(), body.page())
            for _ in range(body.u32())
        ]
        body.end()
        return cls(
            ip_id=ip_id,
            query_id=query_id,
            sender_ic=sender,
            destination_ic=dest,
            flush_when_done=flush,
            opcode=cls._OPCODES[opcode_num],
            result_relation=result_relation,
            result_schema=result_schema,
            operands=operands,
            tag=tag,
        )

    @property
    def wire_bytes(self) -> int:
        """Size on the ring."""
        return len(self.encode())


@dataclass
class ResultPacket:
    """Figure 4.4: one page of result tuples bound for an IC."""

    ic_id: int
    relation_name: str
    page_bytes: bytes

    def encode(self) -> bytes:
        """ICid | Packet Length | Relation Name | Page Length | Data Page | Checksum."""
        body = (
            _pack_name(self.relation_name)
            + _pack_u32(len(self.page_bytes))
            + self.page_bytes
        )
        return _seal(
            _pack_u32(self.ic_id) + _pack_u32(len(body) + 8 + CHECKSUM_BYTES) + body
        )

    @classmethod
    def decode(cls, data: bytes) -> "ResultPacket":
        """Inverse of :meth:`encode`."""
        ic_id, body = _open(data, "result packet")
        name = body.name()
        page = body.page()
        body.end()
        return cls(ic_id=ic_id, relation_name=name, page_bytes=page)

    @property
    def wire_bytes(self) -> int:
        """Size on the ring."""
        return len(self.encode())


def schema_field_bytes(schema: Schema) -> int:
    """Wire size of one "Tuple Length & Format" field."""
    return 8 + schema.arity * (3 + _NAME_BYTES)


def instruction_packet_bytes(result_schema: Schema, operands: List[Tuple[Schema, int]]) -> int:
    """Wire size of an instruction packet without encoding it.

    ``operands`` is a list of ``(schema, page_byte_length)`` pairs.  The
    value equals ``len(packet.encode())`` exactly (verified by tests), so
    the simulator can charge ring time without packing page bytes.
    """
    size = 8 + 24 + _NAME_BYTES + schema_field_bytes(result_schema) + 4 + CHECKSUM_BYTES
    for schema, page_len in operands:
        size += _NAME_BYTES + schema_field_bytes(schema) + 4 + page_len
    return size


def result_packet_bytes(page_len: int) -> int:
    """Wire size of a result packet carrying ``page_len`` page bytes."""
    return 8 + _NAME_BYTES + 4 + page_len + CHECKSUM_BYTES


def query_flow_id(query_name: str) -> int:
    """Deterministic Chrome-trace flow id for ``query_name``.

    Flow events linking a query's packet-hop slices back to its query
    span need one stable ``id`` per query.  Reuse the same CRC-32 the
    packets carry as their checksum word: stable across runs and
    machines, independent of PYTHONHASHSEED, and cheap to recompute at
    export time.
    """
    return zlib.crc32(query_name.encode("utf-8", errors="replace")) & 0xFFFFFFFF


class ControlMessage(enum.Enum):
    """Messages carried by Figure 4.5 control packets."""

    #: IP -> IC: finished the current packet, ready for more work.
    DONE = 1
    #: IP -> IC: request inner page <argument> of the join.
    REQUEST_INNER = 2
    #: IP -> IC: current outer page fully joined, ready for a new outer.
    READY_FOR_OUTER = 3
    #: IC -> MC: request <argument> instruction processors.
    REQUEST_IPS = 4
    #: IC -> MC: release IP <argument> back to the pool.
    RELEASE_IP = 5
    #: MC -> IC: grant of IP <argument>.
    GRANT_IP = 6
    #: IC -> MC: instruction complete.
    INSTRUCTION_DONE = 7
    #: IC -> IP: no inner page numbered <argument> or higher will exist
    #: ("this is the last page of the inner relation").
    INNER_LAST = 8
    #: MC -> IC: source operand <argument> of your instruction is complete
    #: (its producer instruction finished).
    OPERAND_COMPLETE = 9


@dataclass
class ControlPacket:
    """Figure 4.5: ICid | Packet Length | IPid of sender | Message."""

    ic_id: int
    sender_ip: int
    message: ControlMessage
    argument: int = 0

    def encode(self) -> bytes:
        """Serialize; the message field carries the enum and one argument."""
        body = _pack_u32(self.sender_ip) + _pack_u32(self.message.value) + _pack_u32(self.argument)
        return _seal(
            _pack_u32(self.ic_id) + _pack_u32(len(body) + 8 + CHECKSUM_BYTES) + body
        )

    @classmethod
    def decode(cls, data: bytes) -> "ControlPacket":
        """Inverse of :meth:`encode`."""
        if len(data) != CONTROL_PACKET_BYTES:
            raise PacketError(
                f"control packet must be {CONTROL_PACKET_BYTES} bytes, got {len(data)}"
            )
        ic_id, body = _open(data, "control packet")
        sender = body.u32()
        code = body.u32()
        argument = body.u32()
        try:
            message = ControlMessage(code)
        except ValueError:
            raise PacketError(f"unknown control message {code}") from None
        return cls(ic_id=ic_id, sender_ip=sender, message=message, argument=argument)

    @property
    def wire_bytes(self) -> int:
        """Size on the ring (fixed)."""
        return CONTROL_PACKET_BYTES
