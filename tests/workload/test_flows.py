"""Flow workload engine: spec generation, execution, metrics export.

The closing soak is the PR's headline demonstration: one thousand
concurrent stream flows over a 49-node mesh, p50/p95/p99 latency and
goodput exported through the metrics registry, with the strict
STREAM_ORDERING checker watching every delivery.
"""

import pytest

from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.obs.instrument import instrument_flow_engine
from repro.obs.registry import MetricsRegistry
from repro.phy.modulation import Bandwidth, LoRaParams
from repro.phy.regions import UNRESTRICTED
from repro.topology.placement import grid_positions, line_positions
from repro.verify.invariants import InvariantChecker
from repro.workload.flows import (
    WORKLOAD_KINDS,
    FlowEngine,
    FlowSpec,
    build_workload,
)

FAST = MesherConfig(hello_period_s=30.0, route_timeout_s=120.0, purge_period_s=15.0)

#: The high-throughput mesh profile the 1000-flow soak runs on: BW500
#: quadruples channel capacity, slow hellos and long route lifetimes
#: keep the control plane from being starved by data traffic.
SOAK_CONFIG = MesherConfig(
    lora=LoRaParams(bandwidth=Bandwidth.BW500),
    region=UNRESTRICTED,
    hello_period_s=120.0,
    route_timeout_s=7200.0,
    purge_period_s=900.0,
    send_queue_capacity=64,
    stream_window=2,
)


class TestBuildWorkload:
    ADDRESSES = list(range(0x10, 0x10 + 12))

    def test_exact_count_and_ids(self):
        specs = build_workload("bursty", self.ADDRESSES, 25, seed=1)
        assert len(specs) == 25
        assert [s.flow_id for s in specs] == list(range(25))

    def test_mixed_balances_kinds(self):
        specs = build_workload("mixed", self.ADDRESSES, 300, seed=2)
        counts = {kind: sum(1 for s in specs if s.kind == kind) for kind in WORKLOAD_KINDS}
        assert counts["bursty"] == 100
        assert counts["ota"] == 100
        assert counts["chat"] == 100

    def test_deterministic_per_seed(self):
        a = build_workload("mixed", self.ADDRESSES, 50, seed=9)
        b = build_workload("mixed", self.ADDRESSES, 50, seed=9)
        c = build_workload("mixed", self.ADDRESSES, 50, seed=10)
        assert a == b
        assert a != c

    def test_starts_spread_over_window(self):
        specs = build_workload("bursty", self.ADDRESSES, 100, seed=3, window_s=500.0)
        starts = [s.start_s for s in specs]
        assert all(0.0 <= s <= 500.0 for s in starts)
        assert max(starts) - min(starts) > 250.0  # actually spread

    def test_chat_flows_come_in_opposed_pairs(self):
        specs = build_workload("chat", self.ADDRESSES, 20, seed=4)
        pairs = {(s.src, s.dst) for s in specs}
        reversed_count = sum(1 for (a, b) in pairs if (b, a) in pairs)
        assert reversed_count >= len(pairs) // 2

    def test_src_never_equals_dst(self):
        specs = build_workload("mixed", self.ADDRESSES, 120, seed=5)
        assert all(s.src != s.dst for s in specs)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_workload("bursty", [0x10], 5)
        with pytest.raises(ValueError):
            build_workload("bursty", self.ADDRESSES, 0)
        with pytest.raises(ValueError):
            build_workload("nonsense", self.ADDRESSES, 5)
        with pytest.raises(ValueError):
            FlowSpec(flow_id=0, kind="bad", src=1, dst=2, messages=1,
                     payload_bytes=16, start_s=0.0, interval_s=0.0)


def _run_small_workload(flows=12, seed=3):
    net = MeshNetwork.from_positions(
        grid_positions(3, 3, spacing_m=100.0), config=FAST, seed=seed
    )
    assert net.run_until_converged(timeout_s=600.0) is not None
    engine = FlowEngine(net)
    engine.add_flows(
        build_workload(
            "mixed", net.addresses, flows, seed=seed,
            messages=3, payload_bytes=24, window_s=300.0, interval_s=60.0,
        )
    )
    engine.start()
    net.run(for_s=2400.0)
    return net, engine


class TestFlowEngine:
    def test_small_mixed_workload_completes(self):
        _net, engine = _run_small_workload()
        summary = engine.summary()
        assert summary.flows == 12
        assert summary.completed == 12
        assert summary.failed == 0
        assert summary.delivery_ratio == 1.0
        assert summary.latency_p50_s is not None
        assert summary.latency_p50_s <= summary.latency_p95_s <= summary.latency_p99_s
        assert {ks.kind for ks in summary.kinds} == set(WORKLOAD_KINDS)
        assert engine.flows_active == 0

    def test_goodput_and_latency_percentiles(self):
        _net, engine = _run_small_workload()
        assert engine.latency_percentile(50) is not None
        assert engine.goodput_percentile(50) is not None
        assert engine.latency_percentile(50, "chat") is not None

    def test_runs_are_deterministic(self):
        _net_a, engine_a = _run_small_workload()
        _net_b, engine_b = _run_small_workload()
        assert engine_a.summary() == engine_b.summary()

    def test_duplicate_flow_id_rejected(self):
        net = MeshNetwork.from_positions(line_positions(2), config=FAST, seed=1)
        engine = FlowEngine(net)
        spec = FlowSpec(flow_id=0, kind="bursty", src=net.addresses[0],
                        dst=net.addresses[1], messages=1, payload_bytes=16,
                        start_s=0.0, interval_s=0.0)
        engine.add_flows([spec])
        with pytest.raises(ValueError):
            engine.add_flows([spec])

    def test_engine_reuses_existing_manager(self):
        from repro.net.stream import StreamManager

        net = MeshNetwork.from_positions(line_positions(2), config=FAST, seed=1)
        assert net.run_until_converged(timeout_s=600.0) is not None
        pre_existing = StreamManager(net.nodes[0])
        engine = FlowEngine(net)
        assert engine.manager(net.nodes[0].address) is pre_existing

    def test_registry_instruments_track_engine(self):
        _net, engine = _run_small_workload()
        registry = instrument_flow_engine(MetricsRegistry(), engine)
        assert registry.value("repro_workload_flows_total") == 12
        assert registry.value("repro_workload_flows_completed_total") == 12
        assert registry.value("repro_workload_flows_failed_total") == 0
        assert registry.value("repro_workload_messages_delivered_total") == engine.messages_delivered
        p50 = registry.value(
            "repro_workload_latency_seconds", {"kind": "all", "quantile": "50"}
        )
        assert p50 == pytest.approx(engine.latency_percentile(50))
        assert registry.value("repro_workload_streams_opened_total") > 0


class TestThousandFlowSoak:
    def test_sustains_1000_concurrent_flows(self):
        """The acceptance run: 1000 flows over a 7x7 BW500 mesh, strict
        ordering checker attached, percentiles through the registry."""
        net = MeshNetwork.from_positions(
            grid_positions(7, 7, spacing_m=60.0), config=SOAK_CONFIG, seed=9
        )
        assert net.run_until_converged(timeout_s=7200.0) is not None
        checker = InvariantChecker(net, strict=True).attach()
        engine = FlowEngine(net)
        engine.add_flows(
            build_workload(
                "mixed", net.addresses, 1000, seed=9,
                messages=3, payload_bytes=32, window_s=7200.0, interval_s=90.0,
            )
        )
        engine.start()
        registry = instrument_flow_engine(MetricsRegistry(), engine)
        net.run(for_s=14400.0)
        summary = engine.summary()
        assert summary.flows == 1000
        # The mesh must actually sustain the load: overwhelming majority
        # completes, ordering never breaks, queues do not collapse.
        assert summary.completed >= 950
        assert summary.delivery_ratio > 0.99
        assert len(checker.violations) == 0
        for kind in ("all",) + WORKLOAD_KINDS:
            for q in ("50", "95", "99"):
                value = registry.value(
                    "repro_workload_latency_seconds", {"kind": kind, "quantile": q}
                )
                assert value > 0.0
        assert registry.value(
            "repro_workload_goodput_bps", {"kind": "all", "quantile": "50"}
        ) > 0.0
        assert registry.value("repro_workload_flows_completed_total") == summary.completed
