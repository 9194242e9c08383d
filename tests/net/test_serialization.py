"""Tests for byte-exact packet encoding/decoding."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.net import packets as pk
from repro.net.packets import (
    AckPacket,
    DataPacket,
    LostPacket,
    NeedAckPacket,
    PacketType,
    RoutingEntry,
    RoutingPacket,
    SyncPacket,
    XLDataPacket,
)
from repro.net.serialization import DecodeError, decode, encode, encoded_size


def routing_bodies(max_rows: int = pk.MAX_ROUTING_ENTRIES):
    """Valid ROUTING bodies: whole (address != 0, metric, role) rows."""
    rows = st.tuples(st.integers(1, 0xFFFF), st.integers(0, 0xFF), st.integers(0, 0xFF))
    return st.lists(rows, max_size=max_rows).map(
        lambda rows: b"".join(struct.pack("<HBB", *row) for row in rows)
    )


def routing_frame(body: bytes, src: int = 0x0A0B) -> bytes:
    return struct.pack("<HHBB", 0xFFFF, src, int(PacketType.ROUTING), len(body)) + body


SAMPLE_PACKETS = [
    RoutingPacket(src=0x0A0B, rows=()),
    RoutingPacket(
        src=0x0A0B,
        rows=(RoutingEntry(address=0x0001, metric=0), RoutingEntry(address=0x0002, metric=3, role=1)),
    ),
    DataPacket(dst=0x0001, src=0x0002, via=0x0003, payload=b"hello"),
    DataPacket(dst=0xFFFF, src=0x0002, via=0xFFFF, payload=b""),
    NeedAckPacket(dst=1, src=2, via=3, seq_id=7, number=0, payload=b"reliable"),
    AckPacket(dst=1, src=2, via=3, seq_id=7, number=12),
    LostPacket(dst=1, src=2, via=3, seq_id=7, number=4),
    SyncPacket(dst=1, src=2, via=3, seq_id=9, number=40, total_bytes=7000),
    XLDataPacket(dst=1, src=2, via=3, seq_id=9, number=5, payload=bytes(range(100))),
]


class TestRoundTrip:
    @pytest.mark.parametrize("packet", SAMPLE_PACKETS, ids=lambda p: type(p).__name__)
    def test_encode_decode_roundtrip(self, packet):
        assert decode(encode(packet)) == packet

    @pytest.mark.parametrize("packet", SAMPLE_PACKETS, ids=lambda p: type(p).__name__)
    def test_encoded_size_matches(self, packet):
        assert len(encode(packet)) == encoded_size(packet)

    def test_all_frames_fit_phy_limit(self):
        big = XLDataPacket(dst=1, src=2, via=3, seq_id=0, number=0, payload=bytes(pk.MAX_CONTROL_PAYLOAD))
        assert len(encode(big)) <= pk.MAX_PHY_PAYLOAD


class TestRoutingRows:
    @given(routing_bodies())
    def test_body_round_trip(self, body):
        frame = routing_frame(body)
        assert encode(decode(frame)) == frame

    @given(routing_bodies())
    def test_decoded_packet_equals_entry_built_twin(self, body):
        decoded = decode(routing_frame(body))
        twin = RoutingPacket(
            src=0x0A0B, rows=tuple(RoutingEntry(*row) for row in struct.iter_unpack("<HBB", body))
        )
        assert decoded == twin
        assert decoded.entries == twin.entries
        assert [(e.address, e.metric, e.role) for e in decoded.entries] == list(decoded.rows)

    @given(routing_bodies(pk.MAX_ROUTING_ENTRIES - 1), st.data())
    def test_zero_address_anywhere_rejected(self, body, data):
        row = data.draw(st.integers(0, len(body) // pk.ROUTING_ENTRY_SIZE))
        offset = row * pk.ROUTING_ENTRY_SIZE
        hostile = body[:offset] + struct.pack("<HBB", 0, 1, 0) + body[offset:]
        with pytest.raises(DecodeError):
            decode(routing_frame(hostile))

    @given(routing_bodies(), st.integers(1, pk.ROUTING_ENTRY_SIZE - 1))
    def test_partial_row_rejected(self, body, extra):
        with pytest.raises(DecodeError):
            decode(routing_frame(body + bytes([0x01] * extra)))

    def test_out_of_range_row_not_encodable(self):
        with pytest.raises(ValueError):
            encode(RoutingPacket(src=1, rows=((0x10000, 1, 0),)))


class TestWireLayout:
    def test_header_layout_little_endian(self):
        frame = encode(DataPacket(dst=0x0102, src=0x0304, via=0x0506, payload=b"AB"))
        dst, src, ptype, length = struct.unpack_from("<HHBB", frame)
        assert dst == 0x0102
        assert src == 0x0304
        assert ptype == int(PacketType.DATA)
        assert length == 4  # via(2) + payload(2)
        (via,) = struct.unpack_from("<H", frame, 6)
        assert via == 0x0506
        assert frame[8:] == b"AB"

    def test_routing_entry_is_four_bytes(self):
        one = encode(RoutingPacket(src=1, rows=(RoutingEntry(address=2, metric=1),)))
        two = encode(
            RoutingPacket(
                src=1,
                rows=(RoutingEntry(address=2, metric=1), RoutingEntry(address=3, metric=2)),
            )
        )
        assert len(two) - len(one) == 4

    def test_header_is_six_bytes(self):
        assert len(encode(RoutingPacket(src=1, rows=()))) == 6

    def test_ack_frame_is_eleven_bytes(self):
        # header(6) + via(2) + seq(1) + number(2)
        assert len(encode(AckPacket(dst=1, src=2, via=3, seq_id=0, number=0))) == 11


class TestDecodeErrors:
    def test_truncated_header(self):
        with pytest.raises(DecodeError):
            decode(b"\x01\x02\x03")

    def test_length_field_mismatch(self):
        frame = bytearray(encode(DataPacket(dst=1, src=2, via=3, payload=b"xy")))
        frame[5] += 1  # corrupt the length field
        with pytest.raises(DecodeError):
            decode(bytes(frame))

    def test_unknown_type(self):
        frame = bytearray(encode(AckPacket(dst=1, src=2, via=3, seq_id=0, number=0)))
        frame[4] = 0x7F
        with pytest.raises(DecodeError):
            decode(bytes(frame))

    def test_routing_body_not_multiple_of_entry_size(self):
        frame = struct.pack("<HHBB", 0xFFFF, 1, int(PacketType.ROUTING), 3) + b"\x01\x02\x03"
        with pytest.raises(DecodeError):
            decode(frame)

    def test_ack_with_trailing_garbage(self):
        frame = struct.pack("<HHBB", 1, 2, int(PacketType.ACK), 7) + struct.pack("<HBH", 3, 0, 0) + b"!"
        with pytest.raises(DecodeError):
            decode(frame)

    def test_sync_with_short_tail(self):
        frame = struct.pack("<HHBB", 1, 2, int(PacketType.SYNC), 7) + struct.pack("<HBH", 3, 0, 1) + b"\x00\x00"
        with pytest.raises(DecodeError):
            decode(frame)

    def test_data_shorter_than_via(self):
        frame = struct.pack("<HHBB", 1, 2, int(PacketType.DATA), 1) + b"\x00"
        with pytest.raises(DecodeError):
            decode(frame)

    def test_empty_buffer(self):
        with pytest.raises(DecodeError):
            decode(b"")

    def test_hostile_routing_entry_rejected(self):
        # A routing entry advertising address 0 fails dataclass validation,
        # surfaced as a DecodeError rather than ValueError.
        frame = struct.pack("<HHBB", 0xFFFF, 1, int(PacketType.ROUTING), 4) + struct.pack(
            "<HBB", 0, 1, 0
        )
        with pytest.raises(DecodeError):
            decode(frame)

    def test_decode_never_raises_bare_valueerror(self):
        # Fuzz a few corrupted buffers: only DecodeError may escape.
        base = bytearray(encode(SyncPacket(dst=1, src=2, via=3, seq_id=1, number=2, total_bytes=10)))
        for i in range(len(base)):
            corrupted = bytearray(base)
            corrupted[i] ^= 0xFF
            try:
                decode(bytes(corrupted))
            except DecodeError:
                pass
