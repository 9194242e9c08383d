"""Tests for packet structures and their invariants."""

import pytest

from repro.net.addresses import BROADCAST_ADDRESS
from repro.net.packets import (
    MAX_CONTROL_PAYLOAD,
    MAX_DATA_PAYLOAD,
    MAX_ROUTING_ENTRIES,
    AckPacket,
    DataPacket,
    LostPacket,
    NeedAckPacket,
    NodeRole,
    PacketType,
    RoutingEntry,
    RoutingPacket,
    SyncPacket,
    XLDataPacket,
    has_via,
)


class TestRoutingEntry:
    def test_valid_entry(self):
        e = RoutingEntry(address=0x0102, metric=3, role=int(NodeRole.GATEWAY))
        assert e.address == 0x0102

    def test_metric_must_fit_u8(self):
        with pytest.raises(ValueError):
            RoutingEntry(address=1, metric=256)

    def test_zero_address_rejected(self):
        with pytest.raises(ValueError):
            RoutingEntry(address=0, metric=1)

    def test_role_must_fit_u8(self):
        with pytest.raises(ValueError):
            RoutingEntry(address=1, metric=1, role=300)


class TestRoutingPacket:
    def test_defaults_to_broadcast(self):
        p = RoutingPacket(src=1, rows=())
        assert p.dst == BROADCAST_ADDRESS
        assert p.type is PacketType.ROUTING

    def test_entry_limit_enforced(self):
        entries = tuple(RoutingEntry(address=i + 1, metric=1) for i in range(MAX_ROUTING_ENTRIES + 1))
        with pytest.raises(ValueError):
            RoutingPacket(src=1, rows=entries)

    def test_entries_coerced_to_tuple(self):
        p = RoutingPacket(src=1, rows=[(2, 1, 0)])
        assert isinstance(p.rows, tuple)
        assert isinstance(p.entries, tuple)
        assert p.entries[0] == RoutingEntry(address=2, metric=1)
        assert p.entries[0].address == 2


class TestDataPacket:
    def test_payload_size_limit(self):
        DataPacket(dst=1, src=2, via=1, payload=bytes(MAX_DATA_PAYLOAD))
        with pytest.raises(ValueError):
            DataPacket(dst=1, src=2, via=1, payload=bytes(MAX_DATA_PAYLOAD + 1))

    def test_has_via(self):
        assert has_via(DataPacket(dst=1, src=2, via=1, payload=b""))
        assert not has_via(RoutingPacket(src=1, rows=()))


class TestControlPackets:
    def test_seq_id_must_fit_u8(self):
        with pytest.raises(ValueError):
            AckPacket(dst=1, src=2, via=1, seq_id=256, number=0)

    def test_number_must_fit_u16(self):
        with pytest.raises(ValueError):
            LostPacket(dst=1, src=2, via=1, seq_id=0, number=0x10000)

    def test_sync_total_bytes_u32(self):
        SyncPacket(dst=1, src=2, via=1, seq_id=0, number=1, total_bytes=0xFFFFFFFF)
        with pytest.raises(ValueError):
            SyncPacket(dst=1, src=2, via=1, seq_id=0, number=1, total_bytes=0x100000000)

    def test_xl_fragment_size_limit(self):
        XLDataPacket(dst=1, src=2, via=1, seq_id=0, number=0, payload=bytes(MAX_CONTROL_PAYLOAD))
        with pytest.raises(ValueError):
            XLDataPacket(
                dst=1, src=2, via=1, seq_id=0, number=0, payload=bytes(MAX_CONTROL_PAYLOAD + 1)
            )

    def test_need_ack_size_limit(self):
        with pytest.raises(ValueError):
            NeedAckPacket(
                dst=1, src=2, via=1, seq_id=0, number=0, payload=bytes(MAX_CONTROL_PAYLOAD + 1)
            )

    def test_types_are_distinct(self):
        codes = [int(t) for t in PacketType]
        assert len(codes) == len(set(codes))

    def test_packets_are_frozen(self):
        p = AckPacket(dst=1, src=2, via=1, seq_id=0, number=0)
        with pytest.raises(AttributeError):
            p.dst = 9  # type: ignore[misc]
