"""The benchmark's four workloads: inputs, timed span, outcome, checks.

Every workload is split the same way:

``setup(seed)``
    Builds the inputs from the seed alone (placement, scenario, flow
    specs).  Runs before the timed span and counts towards ``setup_s``.
``run(inputs)``
    The timed span.  Both convergence workloads time the same span:
    network construction, then the cold start to a fixed simulated
    horizon (``run_sharded`` cannot split construction from running, so
    the serial one does not either).  Convergence is detected at the
    usual checks on the way; the horizon makes the simulated work nearly
    independent of the seed, where stopping at convergence moves it by
    up to 30 % (convergence lands on different checks).
``outcome(inputs, result)``
    The simulated outcome: a fingerprint that must repeat exactly for a
    seed, the end-to-end simulated metrics, and a list of failed output
    checks (empty when the outputs are correct).
``counters(inputs, result)``
    Per-layer counters read from the finished network (traced run only).

Nothing here changes the simulator; it only calls its public API.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.phy.link import LinkBudget
from repro.phy.modulation import Bandwidth, LoRaParams
from repro.phy.pathloss import LogDistancePathLoss
from repro.phy.regions import UNRESTRICTED
from repro.topology.graphs import connectivity_graph, graph_stats
from repro.topology.placement import grid_positions, random_positions

#: The E4 large-N profile (BW500, no duty-cycle limit, 64-hop metric).
LARGE_N_CONFIG = MesherConfig(
    lora=LoRaParams(bandwidth=Bandwidth.BW500),
    region=UNRESTRICTED,
    hello_period_s=120.0,
    route_timeout_s=7200.0,
    purge_period_s=900.0,
    max_metric=64,
    send_queue_capacity=64,
)

#: The default BW125 / EU868 1 % duty-cycle profile, with the faster
#: hello cadence the repository's protocol benches use.
SENSOR_CONFIG = MesherConfig(
    hello_period_s=60.0,
    route_timeout_s=300.0,
    purge_period_s=30.0,
)

#: The BW500 high-throughput profile of the 1000-flow soak.
FLOWS_CONFIG = MesherConfig(
    lora=LoRaParams(bandwidth=Bandwidth.BW500),
    region=UNRESTRICTED,
    hello_period_s=120.0,
    route_timeout_s=7200.0,
    purge_period_s=900.0,
    send_queue_capacity=64,
    stream_window=2,
)

#: The 300-node placement is part of the workload's definition, like the
#: 8x8 grid of the sensor workload: ``--seed`` drives the simulation's
#: random streams (beacon jitter, backoff, CAD) on a fixed placement.
#: Re-drawing the placement per seed moves ``run_s`` by up to 30 %
#: (diameter changes), which would swamp any layer-level gain.
PLACEMENT_SEED = 1
CONVERGE_NODES = 300
CONVERGE_TIMEOUT_S = 86400.0
#: Convergence is checked every 30 simulated seconds (the checks do not
#: perturb the simulation; a finer check only sharpens convergence_s).
CONVERGE_CHECK_S = 30.0
#: 12 hello periods: past the latest convergence seen over seeds 1-10
#: (1290 s).  A later convergence extends the span to it.
CONVERGE_HORIZON_S = 1440.0
SHARDS = 2
SHARD_WORKERS = 2
SHARD_WINDOW_S = 5.0

SENSOR_ROWS = SENSOR_COLS = 8
SENSOR_PERIOD_S = 300.0
SENSOR_DURATION_S = 7200.0

#: Like the placement above, the flow set (pairs, kinds, start times) is
#: fixed; ``--seed`` drives the simulation.  Re-drawing the flows per
#: seed moves the aired frames by about 10 % between seeds.
FLOW_SPEC_SEED = 1
FLOWS = 500
FLOW_GRID = 7
FLOW_SPACING_M = 60.0
FLOW_MESSAGES = 3
FLOW_PAYLOAD = 32
FLOW_START_WINDOW_S = 1800.0
FLOW_INTERVAL_S = 60.0
FLOW_DURATION_S = 3600.0

#: Route walks checked after convergence (seeded sample of pairs).
ROUTE_WALKS = 2000


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def connected_placement(n: int, seed: int, config: MesherConfig, side_scale: float):
    """Rejection-sample uniform placements until one is radio-connected
    (the E4 large-N generator: mean degree near the connectivity
    threshold)."""
    budget = LinkBudget(LogDistancePathLoss())
    rng = random.Random(seed)
    side = side_scale * max(2.0, (n / 2.0) ** 0.5)
    for _ in range(50):
        positions = random_positions(
            n, width_m=side, height_m=side, rng=rng,
            min_separation_m=30.0, max_attempts=max(10_000, 20 * n),
        )
        if graph_stats(connectivity_graph(positions, budget, config.lora)).connected:
            return positions
    raise RuntimeError(f"no connected {n}-node placement found")


def _timed_placement(inputs: Dict, fn: Callable[[], List]) -> None:
    t0 = perf_counter()
    inputs["positions"] = fn()
    inputs["placement_s"] = perf_counter() - t0


def _route_walk_failures(net: MeshNetwork, seed: int, max_hops: int) -> List[str]:
    """Follow next hops for a seeded sample of pairs; every walk must
    reach its destination without a loop."""
    nodes = {node.address: node for node in net.nodes}
    addresses = sorted(nodes)
    rng = random.Random(seed)
    failures = []
    for _ in range(ROUTE_WALKS):
        src, dst = rng.sample(addresses, 2)
        at, hops = src, 0
        while at != dst and hops <= max_hops:
            nxt = nodes[at].table.next_hop(dst)
            if nxt is None or nxt not in nodes:
                break
            at, hops = nxt, hops + 1
        if at != dst:
            failures.append(f"route walk {src:#06x}->{dst:#06x} stopped at {at:#06x} after {hops} hops")
            if len(failures) >= 5:
                break
    return failures


def net_counters(nets) -> Dict[str, float]:
    """Per-layer counters summed over finished networks (NodeStats,
    queues, transports, media)."""
    out: Dict[str, float] = {
        "medium.transmissions": 0, "net.forwarding.forwarded": 0,
        "net.queues.drops": 0, "net.queues.duty_deferrals": 0,
        "net.queues.cad_deferrals": 0, "net.reliable.retransmits": 0,
        "net.hello.frames": 0, "net.stream.messages_received": 0,
    }
    outcomes: Dict[str, int] = {}
    for net in nets:
        medium = net.medium
        out["medium.transmissions"] += medium.transmissions_total
        for reason, count in medium.outcome_counts().items():
            outcomes[reason.value] = outcomes.get(reason.value, 0) + count
        for node in net.nodes:
            stats = node.stats
            out["net.forwarding.forwarded"] += stats.data_forwarded
            out["net.queues.duty_deferrals"] += stats.duty_deferrals
            out["net.queues.cad_deferrals"] += stats.cad_deferrals
            out["net.queues.drops"] += node.send_queue.dropped
            out["net.reliable.retransmits"] += node.reliable.retransmissions
            out["net.hello.frames"] += node.hello.hellos_sent
            manager = getattr(node, "stream_manager", None)
            if manager is not None:
                out["net.stream.messages_received"] += manager.messages_received
    for reason, count in outcomes.items():
        out[f"medium.outcomes.{reason}"] = count
    return out


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path], Dict]
    run: Callable[[Dict], object]
    outcome: Callable[[Dict, object], Dict]
    counters: Callable[[Dict, object], Dict[str, float]]


# ----------------------------------------------------------------------
# converge-n300 / converge-n300-shard2
# ----------------------------------------------------------------------
def _converge_setup(seed: int, workdir: Path) -> Dict:
    inputs: Dict = {"seed": seed}
    _timed_placement(
        inputs,
        lambda: connected_placement(CONVERGE_NODES, PLACEMENT_SEED, LARGE_N_CONFIG, 66.0),
    )
    return inputs


def _converge_run(inputs: Dict):
    net = MeshNetwork.from_positions(
        inputs["positions"], config=LARGE_N_CONFIG, seed=inputs["seed"], trace_enabled=False
    )
    convergence = net.run_until_converged(
        timeout_s=CONVERGE_TIMEOUT_S, check_period_s=CONVERGE_CHECK_S
    )
    if net.sim.now < CONVERGE_HORIZON_S:
        net.run(until=CONVERGE_HORIZON_S)
    return net, convergence


def _converge_outcome(inputs: Dict, result) -> Dict:
    from repro.sim.shard import network_fingerprint

    net, convergence = result
    fp = network_fingerprint(net, convergence)
    checks = []
    if convergence is None:
        checks.append("mesh did not converge before the timeout")
    elif not net.converged():
        checks.append("converged() is false after convergence was reported")
    else:
        checks.extend(_route_walk_failures(net, inputs["seed"], LARGE_N_CONFIG.max_metric))
    if len(fp["tables"]) != CONVERGE_NODES:
        checks.append(f"{len(fp['tables'])} routing tables, expected {CONVERGE_NODES}")
    return {
        "fingerprint": {
            "convergence_s": convergence, "frames": fp["frames"], "bytes": fp["bytes"],
            "nodes": len(fp["tables"]), "tables_digest": fp["digest"],
        },
        "ops_attempted": 1,
        "ops_ok": int(convergence is not None),
        "messages": None,
        "checks": checks,
    }


def _converge_counters(inputs: Dict, result) -> Dict[str, float]:
    return net_counters([result[0]])


def _shard_run(inputs: Dict):
    from repro.sim.shard import run_sharded

    return run_sharded(
        inputs["positions"],
        shards=SHARDS,
        workers=SHARD_WORKERS,
        config=LARGE_N_CONFIG,
        seed=inputs["seed"],
        window_s=SHARD_WINDOW_S,
        converge_timeout_s=CONVERGE_TIMEOUT_S,
        check_period_s=CONVERGE_CHECK_S,
        extend_to_s=CONVERGE_HORIZON_S,
    )


def _shard_outcome(inputs: Dict, result) -> Dict:
    fp = result.fingerprint
    checks = []
    if result.convergence_s is None:
        checks.append("sharded mesh did not converge before the timeout")
    if len(fp["tables"]) != CONVERGE_NODES:
        checks.append(f"{len(fp['tables'])} routing tables, expected {CONVERGE_NODES}")
    if result.workers != SHARD_WORKERS:
        checks.append(f"ran on {result.workers} worker processes, expected {SHARD_WORKERS}")
    if sum(s.nodes for s in result.stats) != CONVERGE_NODES:
        checks.append("shard plan does not own every node exactly once")
    return {
        "fingerprint": {
            "convergence_s": result.convergence_s, "frames": fp["frames"], "bytes": fp["bytes"],
            "nodes": len(fp["tables"]), "tables_digest": fp["digest"],
        },
        "ops_attempted": 1,
        "ops_ok": int(result.convergence_s is not None),
        "messages": None,
        "shard": {
            "windows": max(s.windows for s in result.stats),
            "busy_s": [s.busy_s for s in result.stats],
            "barrier_wait_s": [s.barrier_wait_s for s in result.stats],
            "exports": result.boundary_exports,
            "ghosts": result.ghosts_injected,
            "load_imbalance": result.load_imbalance(),
        },
        "checks": checks,
    }


def _shard_counters(inputs: Dict, result) -> Dict[str, float]:
    # The networks live in the worker processes; their counters come
    # back through the tracer (see tracing.install_shard_hooks).
    return {}


# ----------------------------------------------------------------------
# sensor-grid-8x8
# ----------------------------------------------------------------------
def _sensor_setup(seed: int, workdir: Path) -> Dict:
    from repro.workload.scenarios import sensor_grid

    inputs: Dict = {"seed": seed}
    t0 = perf_counter()
    scenario = sensor_grid(SENSOR_ROWS, SENSOR_COLS, period_s=SENSOR_PERIOD_S)
    inputs["placement_s"] = perf_counter() - t0
    inputs["positions"] = scenario.positions
    inputs["flows"] = scenario.flows
    inputs["store"] = workdir / "sensor.db"
    return inputs


def _sensor_run(inputs: Dict):
    from repro.experiments.runner import Protocol, run_protocol

    return run_protocol(
        Protocol.MESH,
        inputs["positions"],
        inputs["flows"],
        duration_s=SENSOR_DURATION_S,
        seed=inputs["seed"],
        config=SENSOR_CONFIG,
        store=inputs["store"],
    )


def _latency_summary(latencies: List[float]) -> Dict:
    from repro.metrics.stats import percentile

    return {
        "samples": len(latencies),
        "p50_s": percentile(latencies, 50) if latencies else None,
        "p99_s": percentile(latencies, 99) if latencies else None,
        "digest": _digest(sorted(latencies)),
    }


def _sensor_outcome(inputs: Dict, result) -> Dict:
    from repro.obs.store import KIND_FRAME, EventStore

    net = result.network
    recorder = result.recorder
    sent, delivered = recorder.total_sent(), recorder.total_delivered()
    frames = net.total_frames_sent()
    store = EventStore(inputs["store"], mode="r")
    try:
        store_events = store.count()
        store_frames = store.count(kind=KIND_FRAME)
    finally:
        store.close()
    checks = []
    if result.convergence_time_s is None:
        checks.append("mesh did not converge before traffic started")
    if not 0 < delivered <= sent:
        checks.append(f"delivered {delivered} of {sent} readings")
    if recorder.total_duplicates():
        checks.append(f"{recorder.total_duplicates()} duplicate deliveries")
    # The store records a frame when its transmission completes.
    completed_frames = frames - net.medium.active_count()
    if store_frames != completed_frames:
        checks.append(f"store holds {store_frames} frame rows for {completed_frames} completed frames")
    latency = _latency_summary(recorder.all_latencies())
    if latency["samples"] != delivered:
        checks.append("latency samples differ from delivered readings")
    return {
        "fingerprint": {
            "convergence_s": result.convergence_time_s, "frames": frames,
            "bytes": net.total_bytes_sent(), "sent": sent, "delivered": delivered,
            "store_events": store_events, "latency_digest": latency["digest"],
        },
        "ops_attempted": sent,
        "ops_ok": delivered,
        "messages": {"sent": sent, "delivered": delivered, **latency},
        "store_events": store_events,
        "checks": checks,
    }


def _sensor_counters(inputs: Dict, result) -> Dict[str, float]:
    return net_counters([result.network])


# ----------------------------------------------------------------------
# flows-mixed-500
# ----------------------------------------------------------------------
def _flows_setup(seed: int, workdir: Path) -> Dict:
    from repro.workload.flows import build_workload

    inputs: Dict = {"seed": seed}
    _timed_placement(inputs, lambda: grid_positions(FLOW_GRID, FLOW_GRID, spacing_m=FLOW_SPACING_M))
    # MeshNetwork.from_positions numbers nodes 0x0001, 0x0002, ...
    inputs["addresses"] = [0x0001 + i for i in range(len(inputs["positions"]))]
    inputs["specs"] = build_workload(
        "mixed", inputs["addresses"], FLOWS, seed=FLOW_SPEC_SEED,
        messages=FLOW_MESSAGES, payload_bytes=FLOW_PAYLOAD,
        window_s=FLOW_START_WINDOW_S, interval_s=FLOW_INTERVAL_S,
    )
    return inputs


def _flows_run(inputs: Dict):
    from repro.workload.flows import FlowEngine

    net = MeshNetwork.from_positions(
        inputs["positions"], config=FLOWS_CONFIG, seed=inputs["seed"], trace_enabled=False
    )
    convergence = net.run_until_converged(timeout_s=7200.0)
    engine = FlowEngine(net)
    engine.add_flows(inputs["specs"])
    engine.start()
    net.run(for_s=FLOW_DURATION_S)
    return net, convergence, engine


def _flows_outcome(inputs: Dict, result) -> Dict:
    net, convergence, engine = result
    states = list(engine.flows.values())
    completed = sum(1 for s in states if s.closed and s.failed is None)
    failed = sum(1 for s in states if s.failed is not None)
    unresolved = len(states) - completed - failed
    sent = sum(s.sent for s in states)
    delivered = sum(s.delivered for s in states)
    checks = []
    if net.addresses != inputs["addresses"]:
        checks.append("network addresses differ from the generated flow endpoints")
    if convergence is None:
        checks.append("mesh did not converge before the flows started")
    if len(states) != FLOWS:
        checks.append(f"{len(states)} flows, expected {FLOWS}")
    over = [s.spec.flow_id for s in states if s.delivered > s.spec.messages]
    if over:
        checks.append(f"flows delivered more messages than sent: {over[:5]}")
    short = [s.spec.flow_id for s in states if s.closed and s.failed is None and s.delivered != s.spec.messages]
    if short:
        checks.append(f"completed flows missing messages: {short[:5]}")
    if engine.flows_completed != completed or engine.flows_failed != failed:
        checks.append("engine counters disagree with per-flow states")
    latencies = [lat for s in states for lat in s.latencies_s]
    latency = _latency_summary(latencies)
    outcomes = [(s.spec.flow_id, s.delivered, s.failed or ("fin" if s.closed else "open")) for s in states]
    return {
        "fingerprint": {
            "convergence_s": convergence, "frames": net.total_frames_sent(),
            "bytes": net.total_bytes_sent(), "completed": completed, "failed": failed,
            "unresolved": unresolved, "sent": sent, "delivered": delivered,
            "flows_digest": _digest(outcomes), "latency_digest": latency["digest"],
        },
        # A flow that failed or never resolved is a failed operation.
        "ops_attempted": len(states),
        "ops_ok": completed,
        "messages": {"sent": sent, "delivered": delivered, **latency},
        "flows": {"failed": failed, "unresolved": unresolved},
        "checks": checks,
    }


def _flows_counters(inputs: Dict, result) -> Dict[str, float]:
    return net_counters([result[0]])


#: Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    "converge-n300": Workload(_converge_setup, _converge_run, _converge_outcome, _converge_counters),
    "converge-n300-shard2": Workload(_converge_setup, _shard_run, _shard_outcome, _shard_counters),
    "sensor-grid-8x8": Workload(_sensor_setup, _sensor_run, _sensor_outcome, _sensor_counters),
    "flows-mixed-500": Workload(_flows_setup, _flows_run, _flows_outcome, _flows_counters),
}
