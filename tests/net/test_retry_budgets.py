"""Local-defer vs on-air retry budgets, and gap-chase repair coverage.

Before this fix a send that failed *locally* — no route yet, or the TX
queue momentarily full — burned the same ``max_retries`` budget as a
frame genuinely lost on air.  A queue spike during route convergence
could therefore kill a transfer that never put a single frame on the
air.  Local failures now charge ``max_local_defers`` (re-checked at the
un-backed-off ``ack_timeout_s`` cadence: local failures are not
congestion signals), while ``max_retries`` is reserved for on-air loss.
"""

import pytest

from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.topology.placement import line_positions
from repro.verify.faults import BurstLoss, FaultInjector, FaultPlan

FAST = MesherConfig(hello_period_s=30.0, route_timeout_s=120.0, purge_period_s=15.0)


def _pair(config: MesherConfig = None, *, converge: bool = True):
    net = MeshNetwork.from_positions(line_positions(2), config=config or FAST, seed=5)
    if converge:
        assert net.run_until_converged(timeout_s=600.0) is not None
    return net, net.nodes[0], net.nodes[1]


class TestSingleBudgets:
    def test_no_route_charges_defers_not_retries(self):
        """With the route gone, every re-check is a local defer; the
        on-air retry count must stay zero the whole time."""
        net, src, dst = _pair()
        transport = src.reliable
        transport._route_via = lambda dst_addr: None
        outcome = {}
        src.send_reliable(dst.address, b"stuck", lambda ok, why: outcome.update(ok=ok, why=why))
        state = next(iter(transport._singles.values()))
        net.run(for_s=FAST.ack_timeout_s * 5)
        assert state.retries == 0
        assert state.local_defers >= 3
        assert transport.retransmissions == 0
        assert not outcome  # still deferring, not failed

    def test_no_route_eventually_fails_with_no_route(self):
        config = FAST.replace(max_local_defers=3)
        net, src, dst = _pair(config)
        src.reliable._route_via = lambda dst_addr: None
        outcome = {}
        src.send_reliable(dst.address, b"stuck", lambda ok, why: outcome.update(ok=ok, why=why))
        net.run(for_s=config.ack_timeout_s * 10)
        assert outcome == {"ok": False, "why": "no route"}
        assert src.reliable.retransmissions == 0

    def test_route_recovery_still_delivers(self):
        """A transient outage longer than max_retries' worth of timer
        fires must not kill the send — that is the flip this PR fixes."""
        net, src, dst = _pair()
        transport = src.reliable
        real_route_via = transport._route_via
        transport._route_via = lambda dst_addr: None
        outcome = {}
        src.send_reliable(dst.address, b"patience", lambda ok, why: outcome.update(ok=ok, why=why))
        # Outage spans far more timer fires than max_retries allows.
        net.run(for_s=FAST.ack_timeout_s * (FAST.max_retries + 3))
        assert not outcome
        transport._route_via = real_route_via
        net.run(for_s=FAST.ack_timeout_s * 4)
        assert outcome.get("ok") is True
        assert transport.local_defers > FAST.max_retries

    def test_queue_spike_charges_defers_not_retries(self):
        """TX queue full is a local failure too: the frame never aired."""
        net, src, dst = _pair()
        transport = src.reliable
        real_enqueue = transport._enqueue
        transport._enqueue = lambda packet: False
        outcome = {}
        src.send_reliable(dst.address, b"spike", lambda ok, why: outcome.update(ok=ok, why=why))
        net.run(for_s=FAST.ack_timeout_s * 3)
        assert transport.retransmissions == 0
        assert transport.local_defers >= 2
        transport._enqueue = real_enqueue
        net.run(for_s=FAST.ack_timeout_s * 4)
        assert outcome.get("ok") is True


class TestStreamBudgets:
    PAYLOAD = bytes(range(256)) * 4  # 1024 B -> multiple fragments

    def test_route_loss_mid_stream_defers_then_recovers(self):
        net, src, dst = _pair()
        transport = src.reliable
        real_route_via = transport._route_via
        received = []
        dst.on_message = lambda msg: received.append(msg.payload)
        outcome = {}
        src.send_reliable(dst.address, self.PAYLOAD, lambda ok, why: outcome.update(ok=ok, why=why))
        net.run(for_s=1.5)  # first fragments air
        transport._route_via = lambda dst_addr: None
        state = next(iter(transport._streams.values()))
        retries_at_outage = state.retries
        net.run(for_s=FAST.ack_timeout_s * (FAST.max_retries + 3))
        assert state.seq_id in transport._streams  # still alive
        assert state.local_defers > 0
        transport._route_via = real_route_via
        net.run(for_s=FAST.ack_timeout_s * 6)
        assert outcome.get("ok") is True
        assert received == [self.PAYLOAD]
        # On-air budget untouched by the outage (ack-timeout fires during
        # the outage find nothing airborne to charge).
        assert state.retries <= retries_at_outage + 1

    def test_permanent_route_loss_fails_with_local_reason(self):
        config = FAST.replace(max_local_defers=4)
        net, src, dst = _pair(config)
        transport = src.reliable
        outcome = {}
        src.send_reliable(dst.address, self.PAYLOAD, lambda ok, why: outcome.update(ok=ok, why=why))
        net.run(for_s=1.5)
        transport._route_via = lambda dst_addr: None
        net.run(for_s=config.ack_timeout_s * 30)
        assert outcome.get("ok") is False
        assert outcome.get("why") in ("no route", "ack timeout")


class TestGapChaseRepair:
    def test_full_tx_queue_loses_no_fragments(self):
        """capacity+1 coverage: a stream one fragment longer than the TX
        queue must requeue the overflow at the front and deliver the
        payload intact — the silent tail-drop is the bug this guards."""
        config = FAST.replace(send_queue_capacity=4, fragment_size=64)
        net, src, dst = _pair(config)
        transport = src.reliable
        # capacity + 1 fragments, distinct bytes per fragment so any
        # reorder/drop corrupts the reassembly visibly.
        payload = b"".join(bytes([i]) * 64 for i in range(config.send_queue_capacity + 1))
        received = []
        dst.on_message = lambda msg: received.append(msg.payload)
        outcome = {}
        src.send_reliable(dst.address, payload, lambda ok, why: outcome.update(ok=ok, why=why))
        net.run(for_s=600.0)
        assert outcome.get("ok") is True
        assert received == [payload]

    def test_lost_chase_requeues_without_duplicates(self):
        """Under burst loss the receiver chases gaps with LOSTs; the
        sender's retransmit queue must never hold one index twice, and
        the repair must converge to a byte-exact delivery."""
        config = FAST.replace(fragment_size=64)
        net = MeshNetwork.from_positions(line_positions(2), config=config, seed=5)
        assert net.run_until_converged(timeout_s=600.0) is not None
        src, dst = net.nodes[0], net.nodes[1]
        plan = FaultPlan([BurstLoss(start=net.sim.now, end=net.sim.now + 120.0, probability=0.5)])
        FaultInjector(net, plan, seed=11).arm()
        transport = src.reliable
        real_handle_lost = transport.handle_lost
        queue_snapshots = []

        def handle_lost(packet):
            real_handle_lost(packet)
            state = transport._streams.get(packet.seq_id)
            if state is not None:
                queue_snapshots.append(list(state.retransmit_queue))

        transport.handle_lost = handle_lost
        payload = bytes(i % 251 for i in range(64 * 12))
        received = []
        dst.on_message = lambda msg: received.append(msg.payload)
        outcome = {}
        src.send_reliable(dst.address, payload, lambda ok, why: outcome.update(ok=ok, why=why))
        net.run(for_s=1200.0)
        assert outcome.get("ok") is True
        assert received == [payload]
        assert dst.reliable.losts_sent > 0  # the chase actually happened
        for queue in queue_snapshots:
            assert len(queue) == len(set(queue)), f"duplicate index in {queue}"

    def test_gap_chase_reports_each_missing_index_once_per_round(self):
        """One _gap_timeout round sends at most MAX_LOSTS_PER_GAP LOSTs,
        all for distinct missing indices."""
        from repro.net.reliable import ReliableTransport

        config = FAST.replace(fragment_size=64)
        net, src, dst = _pair(config)
        receiver = dst.reliable
        sent_losts = []
        real_send_lost = receiver._send_lost

        def send_lost(peer, seq_id, *, number):
            sent_losts.append(number)
            real_send_lost(peer, seq_id, number=number)

        receiver._send_lost = send_lost
        # Hand-build an inbound stream with holes: fragments 0 and 5 of 8.
        from repro.net.packets import SyncPacket, XLDataPacket

        receiver.handle_sync(
            SyncPacket(dst=dst.address, src=src.address, via=dst.address,
                       seq_id=99, number=8, total_bytes=8 * 64)
        )
        for index in (0, 5):
            receiver.handle_xl_data(
                XLDataPacket(dst=dst.address, src=src.address, via=dst.address,
                             seq_id=99, number=index, payload=b"x" * 64)
            )
        stream = receiver._inbound[(src.address, 99)]
        sent_losts.clear()
        receiver._gap_timeout(stream)
        assert len(sent_losts) == min(6, ReliableTransport.MAX_LOSTS_PER_GAP)
        assert len(sent_losts) == len(set(sent_losts))
        assert all(index not in (0, 5) for index in sent_losts)
