"""Sharded runner: partition plans, ghost exchange, and the fingerprint
identities the conservative-window design guarantees.

The three contracts under test (see repro/sim/shard.py module doc):

1. ``shards=1`` reproduces the serial run bit-exactly;
2. for fixed (shards, window), any worker count gives the identical
   fingerprint;
3. RF-isolated strips reproduce serial per-node results exactly (no
   ghost is ever exchanged).
"""

import random

import pytest

from repro.medium.spatial import ShardPlan, plan_strips
from repro.metrics.collect import FlowRecorder
from repro.net.api import MeshNetwork
from repro.phy.modulation import LoRaParams
from repro.sim.kernel import SchedulingError, Simulator
from repro.sim.shard import (
    ShardedInvariantReport,
    make_plan,
    network_fingerprint,
    run_sharded,
    table_digest,
)
from repro.topology.placement import line_positions, random_positions


# ----------------------------------------------------------------------
# ShardPlan / plan_strips
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_single_shard_owns_everything(self):
        plan = plan_strips([(0.0, 0.0), (500.0, 0.0)], 1, 100.0)
        assert plan.shards == 1
        assert plan.cuts == ()
        assert plan.shard_of((-1e9, 0.0)) == 0
        assert plan.shard_of((1e9, 0.0)) == 0

    def test_cuts_snap_to_cell_edges(self):
        positions = [(float(x), 0.0) for x in range(0, 1000, 10)]
        plan = plan_strips(positions, 4, 135.0)
        assert len(plan.cuts) == 3
        for cut in plan.cuts:
            assert cut % 135.0 == 0.0

    def test_cuts_strictly_ascending_even_when_clustered(self):
        # All nodes in one cell: quantile targets collide, and the
        # collision rule must push each cut one cell up.
        positions = [(5.0 + 0.1 * i, 0.0) for i in range(40)]
        plan = plan_strips(positions, 4, 100.0)
        assert list(plan.cuts) == sorted(set(plan.cuts))

    def test_partition_covers_every_index_once(self):
        rng = random.Random(1)
        positions = random_positions(60, width_m=900, height_m=300, rng=rng)
        plan = plan_strips(positions, 3, 135.0)
        owned = plan.partition(positions)
        flat = sorted(i for shard in owned for i in shard)
        assert flat == list(range(60))
        for indices, shard in ((ix, s) for s, ix in enumerate(owned)):
            for i in indices:
                assert plan.shard_of(positions[i]) == shard

    def test_balanced_on_uniform_placement(self):
        rng = random.Random(2)
        positions = random_positions(90, width_m=2000, height_m=300, rng=rng)
        plan = plan_strips(positions, 3, 135.0)
        counts = [len(s) for s in plan.partition(positions)]
        assert min(counts) >= 15  # quantile cuts keep strips comparable

    def test_shards_overlapping_routes_boundary_disk(self):
        plan = ShardPlan(cuts=(100.0, 200.0), cell_size=100.0)
        # interior disk
        assert list(plan.shards_overlapping((50.0, 0.0), 20.0)) == [0]
        assert plan.is_interior((50.0, 0.0), 20.0)
        # disk spanning the first cut
        assert list(plan.shards_overlapping((95.0, 0.0), 20.0)) == [0, 1]
        assert not plan.is_interior((95.0, 0.0), 20.0)
        # disk spanning everything
        assert list(plan.shards_overlapping((150.0, 0.0), 500.0)) == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_strips([(0.0, 0.0)], 0, 100.0)
        with pytest.raises(ValueError):
            plan_strips([(0.0, 0.0)], 2, 0.0)
        with pytest.raises(ValueError):
            plan_strips([], 2, 100.0)

    def test_make_plan_uses_radio_range(self):
        positions = [(float(x), 0.0) for x in range(0, 2000, 100)]
        plan = make_plan(positions, 2)
        assert plan.shards == 2
        assert plan.cell_size > 0


# ----------------------------------------------------------------------
# Simulator.advance_to
# ----------------------------------------------------------------------
class TestAdvanceTo:
    def test_lands_exactly_on_barrier(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        events = sim.advance_to(10.0)
        assert sim.now == 10.0
        assert fired == [5.0]
        assert events == 1

    def test_counts_only_window_events(self):
        sim = Simulator()
        for t in (1.0, 2.0, 12.0):
            sim.schedule(t, lambda: None)
        assert sim.advance_to(10.0) == 2
        assert sim.advance_to(20.0) == 1

    def test_rewind_rejected(self):
        sim = Simulator()
        sim.advance_to(10.0)
        with pytest.raises(SchedulingError):
            sim.advance_to(5.0)

    def test_barrier_equal_to_now_is_noop(self):
        sim = Simulator()
        sim.advance_to(10.0)
        assert sim.advance_to(10.0) == 0
        assert sim.now == 10.0


# ----------------------------------------------------------------------
# Medium boundary hooks
# ----------------------------------------------------------------------
class TestMediumBoundaryHooks:
    def _net(self):
        return MeshNetwork.from_positions(
            line_positions(2), seed=1, trace_enabled=False
        )

    def test_on_transmit_start_fires_for_local_frames(self):
        net = self._net()
        seen = []
        net.sim.bus.subscribe("transmit_start", lambda medium, tx: seen.append(tx.sender_id))
        net.run(for_s=300.0)
        assert seen  # hellos were aired
        assert set(seen) <= {node.radio.node_id for node in net.nodes}

    def test_inject_external_occupies_channel_without_hook(self):
        net = self._net()
        seen = []
        net.sim.bus.subscribe("transmit_start", lambda medium, tx: seen.append(tx.sender_id))
        params = net.nodes[0].radio.params
        tx = net.medium.inject_external(
            999_999, (60.0, 0.0), params, b"ghost", 0.05
        )
        assert tx.sender_id == 999_999
        assert not seen  # ghosts must not re-export
        assert net.medium.channel_busy((60.0, 0.0), params)

    def test_inject_external_delivers_to_listeners(self):
        net = self._net()
        node = net.nodes[0]
        heard = []
        original = node.radio.on_receive

        def tap(frame):
            heard.append(bytes(frame.payload))
            if original is not None:
                original(frame)

        node.radio.on_receive = tap
        params = node.radio.params
        net.medium.inject_external(999_999, (0.0, 1.0), params, b"ghost", 0.05)
        net.run(for_s=1.0)
        assert b"ghost" in heard

    def test_inject_external_interns_unpickled_params(self):
        import pickle

        net = self._net()
        params = net.nodes[0].radio.params
        clone = pickle.loads(pickle.dumps(params))
        assert clone is not params
        tx = net.medium.inject_external(999_999, (0.0, 1.0), clone, b"g", 0.05)
        # The interning table must map the equal-but-distinct params back
        # to one canonical object so id()-keyed range caches stay warm.
        tx2 = net.medium.inject_external(
            999_998, (0.0, 2.0), pickle.loads(pickle.dumps(params)), b"g", 0.05
        )
        assert tx.params is tx2.params

    def test_inject_external_rejects_nonpositive_airtime(self):
        net = self._net()
        params = net.nodes[0].radio.params
        with pytest.raises(ValueError):
            net.medium.inject_external(1, (0.0, 0.0), params, b"g", 0.0)

    def test_max_range_alias(self):
        net = self._net()
        params = net.nodes[0].radio.params
        assert net.medium.max_range_m(params) == net.medium._max_range_for(params)


# ----------------------------------------------------------------------
# Fingerprint identities
# ----------------------------------------------------------------------
def _serial_fingerprint(positions, seed, *, timeout_s=3600.0, check_period_s=10.0):
    net = MeshNetwork.from_positions(positions, seed=seed, trace_enabled=False)
    convergence = net.run_until_converged(
        timeout_s=timeout_s, check_period_s=check_period_s
    )
    return network_fingerprint(net, convergence)


class TestFingerprintIdentity:
    def test_shards_1_equals_serial(self):
        # window == check period makes the kernel run() call sequence
        # literally identical to run_until_converged's, so this identity
        # is bit-exact, convergence time included.
        positions = line_positions(8)
        serial = _serial_fingerprint(positions, seed=11)
        sharded = run_sharded(
            positions, shards=1, seed=11, window_s=10.0, check_period_s=10.0
        )
        assert serial == sharded.fingerprint
        assert sharded.convergence_s == serial["convergence_s"]
        assert sharded.boundary_exports == 0

    def test_worker_count_invariance(self):
        rng = random.Random(8)
        positions = random_positions(24, width_m=700, height_m=250, rng=rng)
        results = [
            run_sharded(
                positions, shards=3, workers=w, seed=5,
                window_s=5.0, check_period_s=10.0,
            )
            for w in (1, 2, 3)
        ]
        assert results[0].fingerprint == results[1].fingerprint
        assert results[1].fingerprint == results[2].fingerprint
        assert results[0].convergence_s == results[2].convergence_s

    def test_isolated_strips_equal_serial(self):
        # Two clusters farther apart than any audible disk: the plan
        # cuts between them, no ghost is ever exchanged, and a fixed-
        # duration sharded run must reproduce the serial per-node tables
        # and frame counts exactly.
        cluster_a = [(x * 100.0, 0.0) for x in range(4)]
        cluster_b = [(10_000.0 + x * 100.0, 0.0) for x in range(4)]
        positions = cluster_a + cluster_b
        duration = 900.0

        net = MeshNetwork.from_positions(positions, seed=3, trace_enabled=False)
        net.run(for_s=duration)
        serial = network_fingerprint(net)

        # Cut mid-gap so neither cluster's audible disk crosses it (the
        # quantile planner would hug cluster B and export inaudible —
        # harmless but nonzero — ghosts).
        sharded = run_sharded(
            positions, shards=2, seed=3, window_s=10.0,
            converge=False, extend_to_s=duration,
            plan=ShardPlan(cuts=(5_000.0,), cell_size=137.0),
        )
        assert sharded.boundary_exports == 0
        serial_no_conv = dict(serial, convergence_s=None)
        assert sharded.fingerprint == serial_no_conv

    def test_connected_multi_shard_is_deterministic(self):
        # With real boundary traffic the sharded result is its own
        # (windowed) semantics — but it must be a *deterministic* one:
        # same inputs, same fingerprint, run after run.
        positions = line_positions(10)
        a = run_sharded(positions, shards=2, seed=4, window_s=5.0, check_period_s=10.0)
        b = run_sharded(positions, shards=2, seed=4, window_s=5.0, check_period_s=10.0)
        assert a.boundary_exports > 0  # the line really crosses the cut
        assert a.fingerprint == b.fingerprint
        assert a.convergence_s == b.convergence_s
        assert a.convergence_s is not None

    def test_table_digest_tracks_structure_not_timestamps(self):
        net = MeshNetwork.from_positions(line_positions(3), seed=2, trace_enabled=False)
        net.run_until_converged(timeout_s=3600.0)
        node = net.nodes[0]
        before = table_digest(node.table)
        # A refresh-only change (timestamps move, structure does not)
        # must not alter the digest.
        net.run(for_s=65.0)
        assert node.table.size and table_digest(node.table) == before


# ----------------------------------------------------------------------
# Traffic, verify and stats on the sharded runner
# ----------------------------------------------------------------------
class TestShardedTrafficAndVerify:
    def test_traffic_flows_across_shards(self):
        from repro.experiments.runner import TrafficSpec

        positions = line_positions(6)
        result = run_sharded(
            positions, shards=2, seed=6, window_s=5.0, check_period_s=10.0,
            duration_s=600.0, drain_s=120.0,
            traffic=[TrafficSpec(src_index=0, dst_index=5, period_s=60.0)],
            verify=True,
        )
        assert result.convergence_s is not None
        assert result.recorder.total_sent() > 0
        # End-to-end deliveries must cross the cut (src and dst live in
        # different strips) via ghost re-airing.
        assert result.recorder.total_delivered() > 0
        assert result.checker is not None
        assert result.checker.audits_run > 0
        result.checker.assert_clean()

    def test_stats_shape(self):
        positions = line_positions(8)
        result = run_sharded(
            positions, shards=2, workers=2, seed=1, window_s=10.0, check_period_s=10.0
        )
        assert [s.shard for s in result.stats] == [0, 1]
        assert sum(s.nodes for s in result.stats) == 8
        assert all(s.windows > 0 for s in result.stats)
        assert sum(s.frames_sent for s in result.stats) == result.frames
        assert result.load_imbalance() >= 1.0
        assert result.sim_time_s > 0
        assert result.wall_s > 0

    def test_validation(self):
        positions = line_positions(4)
        with pytest.raises(ValueError):
            run_sharded(positions, shards=0)
        with pytest.raises(ValueError):
            run_sharded(positions, shards=1, window_s=0.0)
        with pytest.raises(ValueError):  # window does not divide check
            run_sharded(positions, shards=1, window_s=3.0, check_period_s=10.0)


class TestShardedInvariantReport:
    def test_aggregation(self):
        report = ShardedInvariantReport()
        report.absorb(
            {
                "audits": 3,
                "violations": {"loop": 1},
                "violation_details": ["loop at n1"],
                "observations": {"routes": 5},
            }
        )
        report.absorb(
            {
                "audits": 2,
                "violations": {"loop": 1, "dup": 2},
                "violation_details": ["loop at n2"],
                "observations": {"routes": 7},
            }
        )
        assert report.audits_run == 5
        assert report.violation_counts() == {"loop": 2, "dup": 2}
        assert report.observations == {"routes": 12}
        with pytest.raises(AssertionError):
            report.assert_clean()

    def test_clean_report_passes(self):
        report = ShardedInvariantReport()
        report.absorb({"audits": 1, "violations": {}, "violation_details": [],
                       "observations": {}})
        report.assert_clean()
        assert report.summary()["audits"] == 1


# ----------------------------------------------------------------------
# run_protocol integration
# ----------------------------------------------------------------------
class TestRunProtocolSharded:
    def test_mesh_sharded_run(self):
        from repro.experiments.runner import Protocol, TrafficSpec, run_protocol

        positions = line_positions(6)
        result = run_protocol(
            Protocol.MESH,
            positions,
            [TrafficSpec(src_index=0, dst_index=5, period_s=60.0)],
            duration_s=600.0,
            seed=9,
            drain_s=120.0,
            shards=2,
        )
        assert result.sharded is not None
        assert result.network is None
        assert result.sharded.shards == 2
        assert result.convergence_time_s is not None
        assert result.overhead.frames_sent == result.sharded.frames
        assert result.recorder.total_sent() > 0

    def test_non_mesh_rejected(self):
        from repro.experiments.runner import Protocol, run_protocol

        with pytest.raises(ValueError):
            run_protocol(
                Protocol.FLOODING, line_positions(4), [], duration_s=60.0, shards=2
            )

    def test_store_and_sampler_rejected(self):
        from repro.experiments.runner import Protocol, run_protocol

        with pytest.raises(ValueError):
            run_protocol(
                Protocol.MESH, line_positions(4), [], duration_s=60.0,
                shards=2, sample_period_s=10.0,
            )
        with pytest.raises(ValueError):
            run_protocol(
                Protocol.MESH, line_positions(4), [], duration_s=60.0,
                shards=2, store="/tmp/nope.db",
            )


# ----------------------------------------------------------------------
# FlowRecorder.merge_from
# ----------------------------------------------------------------------
class TestFlowRecorderMerge:
    def test_merge_disjoint_flows(self):
        a, b = FlowRecorder(), FlowRecorder()
        a.sent(1, 2, 0, 10.0, 24)
        b.sent(3, 4, 0, 12.0, 24)
        a.merge_from(b)
        assert a.total_sent() == 2
        assert {(f.src, f.dst) for f in a.flows()} == {(1, 2), (3, 4)}

    def test_merge_send_and_delivery_halves(self):
        from repro.net.mesher import AppMessage
        from repro.workload.probes import make_probe

        send_side, recv_side = FlowRecorder(), FlowRecorder()
        payload = make_probe(1, 0, 10.0, size=24)
        send_side.sent(1, 2, 0, 10.0, 24)
        recv_side.delivered(
            2, AppMessage(src=1, payload=payload, received_at=14.0, reliable=False)
        )
        merged = FlowRecorder()
        merged.merge_from(send_side)
        merged.merge_from(recv_side)
        flow = merged.flow(1, 2)
        assert flow.sent == 1 and flow.delivered == 1
        assert flow.pdr == 1.0
        assert merged.delivered_bytes() == 24
        assert merged.all_latencies() == [4.0]

    def test_merge_adds_duplicates_and_non_probes(self):
        a, b = FlowRecorder(), FlowRecorder()
        b._duplicates[(1, 2)] = 3
        b.non_probe_messages = 2
        a.merge_from(b)
        assert a.total_duplicates() == 3
        assert a.non_probe_messages == 2
