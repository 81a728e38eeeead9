"""Packet formats (Figures 4.3-4.5): byte-exact round trips."""

import pytest

from repro.errors import PacketError
from repro.relational.page import Page
from repro.relational.schema import DataType, Schema
from repro.ring.packets import (
    CONTROL_PACKET_BYTES,
    ControlMessage,
    ControlPacket,
    InstructionPacket,
    ResultPacket,
    SourceOperand,
    instruction_packet_bytes,
    result_packet_bytes,
    schema_field_bytes,
)

SCHEMA = Schema.build(("k", DataType.INT), ("v", DataType.FLOAT), ("s", DataType.CHAR, 7))


def page_bytes(rows=3, size=256):
    page = Page(SCHEMA, size)
    for i in range(rows):
        page.append((i, i * 0.5, f"s{i}"))
    return page.to_bytes()


def make_instruction(**overrides):
    fields = dict(
        ip_id=9,
        query_id=4,
        sender_ic=2,
        destination_ic=6,
        flush_when_done=True,
        opcode="restrict",
        result_relation="out",
        result_schema=SCHEMA,
        operands=[SourceOperand("src", SCHEMA, page_bytes())],
        tag=3,
    )
    fields.update(overrides)
    return InstructionPacket(**fields)


class TestInstructionPacket:
    def test_roundtrip(self):
        packet = make_instruction()
        assert InstructionPacket.decode(packet.encode()) == packet

    def test_roundtrip_all_opcodes(self):
        for opcode in InstructionPacket._OPCODES:
            packet = make_instruction(opcode=opcode)
            assert InstructionPacket.decode(packet.encode()).opcode == opcode

    def test_unknown_opcode_rejected(self):
        with pytest.raises(PacketError):
            make_instruction(opcode="teleport").encode()

    def test_two_operands(self):
        packet = make_instruction(
            operands=[
                SourceOperand("a", SCHEMA, page_bytes(2)),
                SourceOperand("b", SCHEMA, page_bytes(5)),
            ]
        )
        back = InstructionPacket.decode(packet.encode())
        assert [op.relation_name for op in back.operands] == ["a", "b"]

    def test_zero_operands(self):
        packet = make_instruction(operands=[])
        assert InstructionPacket.decode(packet.encode()).operands == []

    def test_length_field_matches_actual(self):
        wire = make_instruction().encode()
        import struct

        assert struct.unpack_from("<I", wire, 4)[0] == len(wire)

    def test_truncated_packet_rejected(self):
        wire = make_instruction().encode()
        with pytest.raises(PacketError):
            InstructionPacket.decode(wire[:-3])

    def test_schema_survives(self):
        back = InstructionPacket.decode(make_instruction().encode())
        assert back.result_schema == SCHEMA
        assert back.operands[0].schema == SCHEMA

    def test_page_payload_survives(self):
        raw = page_bytes(3)
        packet = make_instruction(operands=[SourceOperand("x", SCHEMA, raw)])
        back = InstructionPacket.decode(packet.encode())
        page = Page.from_bytes(SCHEMA, back.operands[0].page_bytes)
        assert page.row_count == 3

    def test_predicted_size_exact(self):
        raw = page_bytes()
        packet = make_instruction(
            operands=[SourceOperand("a", SCHEMA, raw), SourceOperand("b", SCHEMA, raw)]
        )
        predicted = instruction_packet_bytes(SCHEMA, [(SCHEMA, len(raw)), (SCHEMA, len(raw))])
        assert predicted == len(packet.encode())

    def test_predicted_size_no_operands(self):
        packet = make_instruction(operands=[])
        assert instruction_packet_bytes(SCHEMA, []) == len(packet.encode())

    def test_long_relation_name_truncated_not_crashing(self):
        packet = make_instruction(result_relation="x" * 40)
        back = InstructionPacket.decode(packet.encode())
        assert back.result_relation == "x" * 16

    def test_field_out_of_range_rejected(self):
        with pytest.raises(PacketError):
            make_instruction(ip_id=-1).encode()

    def test_wire_bytes_property(self):
        packet = make_instruction()
        assert packet.wire_bytes == len(packet.encode())


class TestResultPacket:
    def test_roundtrip(self):
        packet = ResultPacket(ic_id=5, relation_name="res", page_bytes=page_bytes())
        assert ResultPacket.decode(packet.encode()) == packet

    def test_empty_page(self):
        packet = ResultPacket(ic_id=5, relation_name="res", page_bytes=b"")
        assert ResultPacket.decode(packet.encode()).page_bytes == b""

    def test_predicted_size_exact(self):
        raw = page_bytes()
        packet = ResultPacket(ic_id=1, relation_name="r", page_bytes=raw)
        assert result_packet_bytes(len(raw)) == len(packet.encode())

    def test_truncated_rejected(self):
        wire = ResultPacket(ic_id=1, relation_name="r", page_bytes=page_bytes()).encode()
        with pytest.raises(PacketError):
            ResultPacket.decode(wire[:-1])


class TestControlPacket:
    @pytest.mark.parametrize("message", list(ControlMessage))
    def test_roundtrip_every_message(self, message):
        packet = ControlPacket(ic_id=2, sender_ip=7, message=message, argument=13)
        assert ControlPacket.decode(packet.encode()) == packet

    def test_fixed_size(self):
        packet = ControlPacket(ic_id=2, sender_ip=7, message=ControlMessage.DONE)
        assert len(packet.encode()) == packet.wire_bytes == CONTROL_PACKET_BYTES

    def test_wrong_size_rejected(self):
        with pytest.raises(PacketError):
            ControlPacket.decode(b"\x00" * 19)


class TestSchemaField:
    def test_schema_field_size_formula(self):
        from repro.ring.packets import _pack_schema

        assert schema_field_bytes(SCHEMA) == len(_pack_schema(SCHEMA))

    def test_corrupt_schema_width_rejected(self):
        from repro.ring.packets import _pack_schema, _Reader

        import struct

        raw = bytearray(_pack_schema(SCHEMA))
        struct.pack_into("<I", raw, 0, 999)

        with pytest.raises(PacketError):
            _Reader(bytes(raw), "schema").schema()
