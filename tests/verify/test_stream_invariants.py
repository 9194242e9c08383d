"""STREAM_ORDERING invariant: flip tests + strict scenario runs.

The invariant asserts every stream endpoint delivers message sequences
exactly 0, 1, 2, … per (receiver, peer, stream id, side): no gap, no
regression, no duplicate ever surfacing at the stream layer.  The flip
tests publish synthetic stream events on the bus to prove the checker
catches each break class; the scenario tests run real stream workloads — including the
churned 3x3 grid — under strict mode.
"""

import pytest

from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.net.stream import StreamManager
from repro.topology.placement import grid_positions, line_positions
from repro.verify import (
    BurstLoss,
    FaultInjector,
    FaultPlan,
    Invariant,
    InvariantChecker,
    InvariantViolation,
    LinkBlackout,
    random_churn_plan,
)
from repro.workload.flows import FlowEngine, build_workload

FAST = MesherConfig(hello_period_s=30.0, route_timeout_s=120.0, purge_period_s=15.0)
AUDIT_S = 20.0


def converged_line(n=2, seed=5):
    net = MeshNetwork.from_positions(line_positions(n), config=FAST, seed=seed)
    assert net.run_until_converged(timeout_s=1200.0) is not None
    return net


def stream_tap(manager):
    """Publish synthetic ``stream`` bus events as ``manager``."""

    def tap(kind, peer, stream_id, side, msg_seq):
        for fn in manager.node.sim.bus.stream:
            fn(manager, kind, peer, stream_id, side, msg_seq)

    return tap


class TestFlips:
    """Each break class planted once; strict mode must catch exactly it."""

    def _watched(self, net):
        manager = StreamManager(net.nodes[1])
        checker = InvariantChecker(net, audit_period_s=AUDIT_S, strict=True).attach()
        return manager, checker

    def test_flip_gap(self):
        net = converged_line()
        manager, checker = self._watched(net)
        tap = stream_tap(manager)
        tap("accept", 0x0001, 3, True, 0)
        tap("deliver", 0x0001, 3, True, 0)
        with pytest.raises(InvariantViolation) as exc:
            tap("deliver", 0x0001, 3, True, 2)  # seq 1 skipped
        assert exc.value.violation.invariant is Invariant.STREAM_ORDERING
        assert "gap" in exc.value.violation.detail

    def test_flip_regression(self):
        net = converged_line()
        manager, checker = self._watched(net)
        tap = stream_tap(manager)
        tap("accept", 0x0001, 3, True, 0)
        tap("deliver", 0x0001, 3, True, 0)
        tap("deliver", 0x0001, 3, True, 1)
        with pytest.raises(InvariantViolation) as exc:
            tap("deliver", 0x0001, 3, True, 0)  # replay
        assert "duplicate/regression" in exc.value.violation.detail

    def test_flip_duplicate_drop_is_a_violation(self):
        """The stream layer dropping a duplicate means the transport
        below delivered twice — that still flags, by design."""
        net = converged_line()
        manager, checker = self._watched(net)
        with pytest.raises(InvariantViolation) as exc:
            stream_tap(manager)("duplicate", 0x0001, 3, True, 4)
        assert exc.value.violation.invariant is Invariant.STREAM_ORDERING

    def test_ledger_resets_on_reuse(self):
        """close/reset frees the id; a successor stream restarts at 0."""
        net = converged_line()
        manager, checker = self._watched(net)
        tap = stream_tap(manager)
        tap("accept", 0x0001, 3, True, 0)
        tap("deliver", 0x0001, 3, True, 0)
        tap("close", 0x0001, 3, True, 1)
        tap("accept", 0x0001, 3, True, 0)
        tap("deliver", 0x0001, 3, True, 0)  # must not flag as regression
        checker.assert_clean()

    def test_sides_are_independent(self):
        net = converged_line()
        manager, checker = self._watched(net)
        tap = stream_tap(manager)
        tap("accept", 0x0001, 3, True, 0)
        tap("open", 0x0001, 3, False, 0)
        tap("deliver", 0x0001, 3, True, 0)
        tap("deliver", 0x0001, 3, False, 0)
        tap("deliver", 0x0001, 3, True, 1)
        checker.assert_clean()

    def test_counted_mode_records_instead_of_raising(self):
        net = converged_line()
        manager = StreamManager(net.nodes[1])
        checker = InvariantChecker(net, strict=False).attach()
        tap = stream_tap(manager)
        tap("accept", 0x0001, 3, True, 0)
        tap("deliver", 0x0001, 3, True, 5)
        assert len(checker.violations) == 1
        assert checker.violations[0].invariant is Invariant.STREAM_ORDERING


class TestDiscovery:
    def test_attach_discovers_existing_manager(self):
        net = converged_line()
        manager = StreamManager(net.nodes[1])
        InvariantChecker(net, strict=True).attach()
        with pytest.raises(InvariantViolation):
            stream_tap(manager)("duplicate", 0x0001, 3, True, 4)

    def test_watch_chains_previous_tap(self):
        """Another ``stream`` subscriber keeps its events next to the
        checker, and a manager created after attach is audited too."""
        net = converged_line()
        seen = []
        net.sim.bus.subscribe("stream", lambda *args: seen.append(args[1:]))
        checker = InvariantChecker(net, strict=True).attach()
        manager = StreamManager(net.nodes[1])
        tap = stream_tap(manager)
        tap("accept", 0x0001, 1, True, 0)
        assert seen == [("accept", 0x0001, 1, True, 0)]
        with pytest.raises(InvariantViolation):
            tap("deliver", 0x0001, 1, True, 3)
        checker.detach()
        assert len(net.sim.bus.stream) == 1


class TestScenarios:
    def test_stream_traffic_line_audits_clean(self):
        """E-series style: streams over a 3-node line, strict checker."""
        net = MeshNetwork.from_positions(line_positions(3), config=FAST, seed=7)
        checker = InvariantChecker(net, audit_period_s=AUDIT_S, strict=True).attach()
        assert net.run_until_converged(timeout_s=1200.0) is not None
        a, c = net.nodes[0], net.nodes[2]
        ma, mc = StreamManager(a), StreamManager(c)
        received = []
        mc.on_accept = lambda s: s.__setattr__(
            "on_message", lambda _s, body: received.append(body)
        )
        stream = ma.open(c.address)
        net.run(for_s=60.0)
        for i in range(6):
            stream.send(f"audit-{i}".encode())
        stream.close()
        net.run(for_s=600.0)
        checker.audit()
        checker.assert_clean()
        assert received == [f"audit-{i}".encode() for i in range(6)]

    def test_stream_workload_under_burst_loss_audits_clean(self):
        """E6-style: flows across a lossy 2-hop path; the transport must
        repair every loss without ever breaking stream ordering."""
        net = MeshNetwork.from_positions(line_positions(3), config=FAST, seed=33)
        checker = InvariantChecker(net, audit_period_s=AUDIT_S, strict=True).attach()
        plan = FaultPlan([BurstLoss(start=300.0, end=900.0, probability=0.4)])
        FaultInjector(net, plan, seed=33).arm()
        assert net.run_until_converged(timeout_s=1200.0) is not None
        engine = FlowEngine(net)
        engine.add_flows(
            build_workload(
                "mixed", net.addresses, 12, seed=3,
                messages=3, payload_bytes=24, window_s=600.0, interval_s=60.0,
            )
        )
        engine.start()
        net.run(for_s=3600.0)
        checker.audit()
        checker.assert_clean()
        summary = engine.summary()
        assert summary.completed > 0
        assert summary.messages_delivered > 0

    def test_churned_grid_stream_workload_audits_clean(self):
        """The acceptance stress case: 3x3 grid under crash/revive churn,
        an asymmetric blackout and burst loss, with a live stream
        workload — strict mode, audits every 20 simulated seconds."""
        net = MeshNetwork.from_positions(
            grid_positions(3, 3, spacing_m=100.0), config=FAST, seed=44
        )
        checker = InvariantChecker(net, audit_period_s=AUDIT_S, strict=True).attach()
        addresses = net.addresses
        plan = FaultPlan(
            random_churn_plan(
                addresses, seed=44, start=900.0, end=2700.0, cycles=3, down_s=360.0
            ).events
            + [
                LinkBlackout(
                    a=addresses[0], b=addresses[1], start=600.0, end=1200.0, symmetric=False
                ),
                BurstLoss(start=1500.0, end=1700.0, probability=0.5),
            ]
        )
        injector = FaultInjector(net, plan, seed=44).arm()
        assert net.run_until_converged(timeout_s=600.0) is not None
        engine = FlowEngine(net)
        engine.add_flows(
            build_workload(
                "mixed", addresses, 18, seed=44,
                messages=2, payload_bytes=24, window_s=2400.0, interval_s=120.0,
            )
        )
        engine.start()
        net.run(until=3600.0)
        checker.audit()
        checker.assert_clean()
        assert injector.dropped_frames > 0
        summary = engine.summary()
        # Churn may kill some flows (that is the point); ordering held
        # for everything that was delivered.
        assert summary.messages_delivered > 0
        assert summary.completed > 0
