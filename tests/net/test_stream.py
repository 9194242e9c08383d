"""Connection-oriented stream layer: lifecycle, windowing, ordering.

Runs on real 2–3 node meshes (full kernel/PHY/transport below the
stream), plus direct unit tests of the header codec.
"""

import pytest

from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.net.stream import (
    HEADER_SIZE,
    MSG_DATA,
    MSG_SYN,
    STREAM_MAGIC,
    Stream,
    StreamManager,
    StreamState,
    decode_message,
    encode_message,
)
from repro.topology.placement import line_positions

FAST = MesherConfig(hello_period_s=30.0, route_timeout_s=120.0, purge_period_s=15.0)


def _mesh(n=2, config=None, seed=5):
    net = MeshNetwork.from_positions(line_positions(n), config=config or FAST, seed=seed)
    assert net.run_until_converged(timeout_s=600.0) is not None
    return net


class TestCodec:
    def test_roundtrip(self):
        wire = encode_message(MSG_DATA, 7, 42, b"hello", from_initiator=True)
        assert wire[0] == STREAM_MAGIC
        assert decode_message(wire) == (MSG_DATA, 7, 42, True, b"hello")

    def test_direction_bit(self):
        wire = encode_message(MSG_SYN, 0, 0, b"", from_initiator=False)
        assert decode_message(wire)[3] is False

    def test_non_stream_payload_passes(self):
        assert decode_message(b"plain application bytes") is None
        assert decode_message(b"") is None
        assert decode_message(bytes([STREAM_MAGIC])) is None  # too short

    def test_unknown_type_rejected(self):
        wire = bytes([STREAM_MAGIC, 0x7F, 0, 0, 0, 0])
        assert decode_message(wire) is None

    def test_header_size(self):
        assert HEADER_SIZE == 6
        assert len(encode_message(MSG_DATA, 0, 0, b"", from_initiator=True)) == 6


class TestLifecycle:
    def test_open_send_close(self):
        net = _mesh()
        a, b = net.nodes
        ma, mb = StreamManager(a), StreamManager(b)
        received, closes = [], []
        mb.on_accept = lambda s: s.__setattr__(
            "on_message", lambda _s, body: received.append(body)
        )
        stream = ma.open(b.address, on_close=lambda s, why: closes.append(why))
        assert stream.state is StreamState.SYN_SENT
        net.run(for_s=30.0)
        assert stream.state is StreamState.OPEN
        for i in range(5):
            stream.send(f"msg-{i}".encode())
        stream.close()
        net.run(for_s=120.0)
        assert received == [f"msg-{i}".encode() for i in range(5)]
        assert closes == ["fin"]
        assert stream.state is StreamState.CLOSED
        assert ma.active_streams == 0
        # The responder side closed on the FIN too.
        assert mb.active_streams == 0
        assert mb.streams_closed == 1

    def test_sends_queue_during_syn(self):
        """send() before ACCEPT queues; everything drains once open."""
        net = _mesh()
        a, b = net.nodes
        ma, mb = StreamManager(a), StreamManager(b)
        received = []
        mb.on_accept = lambda s: s.__setattr__(
            "on_message", lambda _s, body: received.append(body)
        )
        stream = ma.open(b.address)
        stream.send(b"early-1")
        stream.send(b"early-2")
        assert stream.pending == 2
        net.run(for_s=60.0)
        assert received == [b"early-1", b"early-2"]

    def test_on_open_fires_once(self):
        net = _mesh()
        a, b = net.nodes
        ma, _mb = StreamManager(a), StreamManager(b)
        opens = []
        ma.open(b.address, on_open=lambda s: opens.append(s))
        net.run(for_s=60.0)
        assert len(opens) == 1

    def test_syn_to_unroutable_peer_fails(self):
        net = _mesh()
        a, b = net.nodes
        ma = StreamManager(a)
        StreamManager(b)
        closes = []
        config = a.config
        a.reliable._route_via = lambda dst: None
        ma.open(b.address, on_close=lambda s, why: closes.append(why))
        net.run(for_s=config.ack_timeout_s * (config.max_local_defers + 3))
        assert closes and closes[0].startswith("syn failed")

    def test_send_after_close_raises(self):
        net = _mesh()
        a, b = net.nodes
        ma, _mb = StreamManager(a), StreamManager(b)
        stream = ma.open(b.address)
        net.run(for_s=30.0)
        stream.close()
        with pytest.raises(RuntimeError):
            stream.send(b"too late")

    def test_refused_syn_resets_initiator(self):
        net = _mesh()
        a, b = net.nodes
        ma, mb = StreamManager(a), StreamManager(b)
        mb.on_accept = lambda s: False
        closes = []
        ma.open(b.address, on_close=lambda s, why: closes.append(why))
        net.run(for_s=60.0)
        assert closes == ["peer reset"]
        assert mb.syn_refused == 1
        assert mb.active_streams == 0

    def test_data_to_unknown_stream_draws_reset(self):
        """DATA for a stream the receiver no longer knows is answered
        with RESET, so a half-dead sender stops retransmitting."""
        net = _mesh()
        a, b = net.nodes
        ma, mb = StreamManager(a), StreamManager(b)
        stream = ma.open(b.address)
        net.run(for_s=30.0)
        assert stream.state is StreamState.OPEN
        # Kill the receiver's half behind its back.
        peer_stream = mb.streams()[0]
        mb._reset_stream(peer_stream, "test kill", notify_peer=False)
        closes = []
        stream.on_close = lambda s, why: closes.append(why)
        stream.send(b"into the void")
        net.run(for_s=120.0)
        assert closes == ["peer reset"]


class TestWindowing:
    def test_window_limits_inflight(self):
        net = _mesh(config=FAST.replace(stream_window=2))
        a, b = net.nodes
        ma, _mb = StreamManager(a), StreamManager(b)
        stream = ma.open(b.address)
        net.run(for_s=30.0)
        for i in range(10):
            stream.send(bytes([i]) * 8)
        assert len(stream._inflight) <= 2
        net.run(for_s=300.0)
        assert stream.stats.max_inflight <= 2
        assert stream.stats.window_stalls > 0
        assert stream.stats.messages_sent == 10

    def test_explicit_window_overrides_config(self):
        net = _mesh()
        a, b = net.nodes
        ma = StreamManager(a, window=1)
        StreamManager(b)
        stream = ma.open(b.address)
        net.run(for_s=30.0)
        for i in range(4):
            stream.send(b"x")
        assert len(stream._inflight) == 1

    def test_window_below_one_rejected(self):
        net = _mesh()
        with pytest.raises(ValueError):
            StreamManager(net.nodes[0], window=0)


class TestOrderingAndStats:
    def test_in_order_delivery_and_rtt(self):
        net = _mesh(n=3)
        a, _mid, c = net.nodes
        ma, mc = StreamManager(a), StreamManager(c)
        received = []
        mc.on_accept = lambda s: s.__setattr__(
            "on_message", lambda _s, body: received.append(body)
        )
        stream = ma.open(c.address)
        net.run(for_s=60.0)
        for i in range(8):
            stream.send(f"{i:04d}".encode())
        net.run(for_s=600.0)
        assert received == [f"{i:04d}".encode() for i in range(8)]
        assert stream.stats.srtt_s is not None and stream.stats.srtt_s > 0
        assert stream.stats.rtt_max_s >= stream.stats.srtt_s
        peer = None
        # The accepted half counts what it received.
        assert mc.messages_received == 8

    def test_receive_data_dedups(self):
        """Direct unit: a duplicate msg_seq is dropped and counted."""
        net = _mesh()
        a, b = net.nodes
        ma, _mb = StreamManager(a), StreamManager(b)
        stream = ma.open(b.address)
        stream.state = StreamState.OPEN
        got = []
        stream.on_message = lambda s, body: got.append(body)
        stream._receive_data(0, b"first")
        stream._receive_data(0, b"first again")
        stream._receive_data(2, b"third")  # buffered, gap at 1
        stream._receive_data(1, b"second")
        assert got == [b"first", b"second", b"third"]
        assert stream.stats.duplicates_dropped == 1
        assert stream.stats.reordered_buffered == 1

    def test_manager_requires_free_hook(self):
        net = _mesh()
        StreamManager(net.nodes[0])
        with pytest.raises(RuntimeError):
            StreamManager(net.nodes[0])

    def test_detach_releases_hook(self):
        net = _mesh()
        node = net.nodes[0]
        manager = StreamManager(node)
        manager.detach()
        assert node.on_reliable_consume is None
        assert node.stream_manager is None
        StreamManager(node)  # rebind works

    def test_plain_reliable_traffic_passes_through(self):
        """Non-stream reliable payloads still reach the app inbox."""
        net = _mesh()
        a, b = net.nodes
        StreamManager(a)
        mb = StreamManager(b)
        delivered = []
        b.on_message = lambda msg: delivered.append(msg.payload)
        a.send_reliable(b.address, b"ordinary payload")
        net.run(for_s=60.0)
        assert delivered == [b"ordinary payload"]
        assert mb.unclaimed_payloads == 1


class TestBidirectional:
    def test_chat_is_two_opposed_streams(self):
        net = _mesh()
        a, b = net.nodes
        ma, mb = StreamManager(a), StreamManager(b)
        at_a, at_b = [], []
        ma.on_accept = lambda s: s.__setattr__(
            "on_message", lambda _s, body: at_a.append(body)
        )
        mb.on_accept = lambda s: s.__setattr__(
            "on_message", lambda _s, body: at_b.append(body)
        )
        ab = ma.open(b.address)
        ba = mb.open(a.address)
        net.run(for_s=60.0)
        ab.send(b"ping from a")
        ba.send(b"ping from b")
        net.run(for_s=120.0)
        assert at_b == [b"ping from a"]
        assert at_a == [b"ping from b"]
        # Same id namespace, opposite direction bits: no collision even
        # though both sides allocated stream id 0.
        assert ab.stream_id == ba.stream_id == 0
