"""Metric definitions and their computation from repetition results.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json``
carries (name, unit, direction, and for end-to-end metrics the bound:
the share of the parent's median by which a change may worsen it).
Host times are medians over the cold repetitions; simulated metrics are
identical in every repetition of a seed.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

from tracing import LAYERS, merge_snapshots

#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("convergence_s", "sim_s", "lower", 0.25),
    ("frames_sent", "count", "lower", 0.1),
    ("ops_ok_ratio", "ratio", "higher", 0.1),
)

_OUTCOMES = ("delivered", "not_listening", "wrong_params", "below_sensitivity",
             "collision", "injected_loss")

#: (name, unit, better)
PER_LAYER = (
    ("sim.kernel.events", "count", "lower"),
    ("sim.kernel.handler_s", "s", "lower"),
    ("sim.kernel.dispatch_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("sim.shard.windows", "count", "lower"),
    ("sim.shard.busy_s.max", "s", "lower"),
    ("sim.shard.busy_s.sum", "s", "lower"),
    ("sim.shard.barrier_wait_s", "s", "lower"),
    ("sim.shard.coordinator_s", "s", "lower"),
    ("sim.shard.exports", "count", "lower"),
    ("sim.shard.ghosts", "count", "lower"),
    ("sim.shard.load_imbalance", "ratio", "lower"),
    ("phy.link_evaluate.calls", "count", "lower"),
    ("phy.link_evaluate.self_s", "s", "lower"),
    ("phy.batch.calls", "count", "lower"),
    ("phy.batch.self_s", "s", "lower"),
    ("medium.transmissions", "count", "lower"),
    *((f"medium.outcomes.{o}", "count", "higher" if o == "delivered" else "lower") for o in _OUTCOMES),
    ("medium.delivered_ratio", "ratio", "higher"),
    ("radio.deliver.calls", "count", "lower"),
    ("radio.deliver.self_s", "s", "lower"),
    ("radio.transmit.calls", "count", "lower"),
    ("radio.transmit.self_s", "s", "lower"),
    ("net.serialization.decode.calls", "count", "lower"),
    ("net.serialization.decode.self_s", "s", "lower"),
    ("net.serialization.encode.calls", "count", "lower"),
    ("net.serialization.encode.self_s", "s", "lower"),
    ("net.routing.merge.calls", "count", "lower"),
    ("net.routing.merge.rows", "count", "lower"),
    ("net.routing.merge.self_s", "s", "lower"),
    ("net.routing.merge_changed_ratio", "ratio", "higher"),
    ("net.routing.purge.calls", "count", "lower"),
    ("net.routing.purge.self_s", "s", "lower"),
    ("net.hello.send.calls", "count", "lower"),
    ("net.hello.send.self_s", "s", "lower"),
    ("net.hello.frames", "count", "lower"),
    ("net.forwarding.classify.calls", "count", "lower"),
    ("net.forwarding.classify.self_s", "s", "lower"),
    ("net.forwarding.forwarded", "count", "lower"),
    ("net.queues.drops", "count", "lower"),
    ("net.queues.duty_deferrals", "count", "lower"),
    ("net.queues.cad_deferrals", "count", "lower"),
    ("net.reliable.send.calls", "count", "lower"),
    ("net.reliable.handle.calls", "count", "lower"),
    ("net.reliable.handle.self_s", "s", "lower"),
    ("net.reliable.retransmits", "count", "lower"),
    ("net.stream.send.calls", "count", "lower"),
    ("net.stream.send.self_s", "s", "lower"),
    ("net.stream.messages_received", "count", "higher"),
    ("workload.flows.failed", "count", "lower"),
    ("workload.flows.unresolved", "count", "lower"),
    ("obs.store.events", "count", "lower"),
    ("topology.placement_s", "s", "lower"),
    ("app.messages_sent", "count", "higher"),
    ("app.delivery_ratio", "ratio", "higher"),
    ("app.frames_per_delivered", "ratio", "lower"),
    ("app.latency_p50_s", "sim_s", "lower"),
    ("app.latency_p99_s", "sim_s", "lower"),
    ("app.latency_samples", "count", "higher"),
    ("app.ops_failed_ratio", "ratio", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.residual_s", "s", "lower"),
    ("trace.residual_ratio", "ratio", "lower"),
    ("host.probe_s", "s", "lower"),
)

_UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _median(values) -> float:
    return statistics.median(values)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def _line(name: str, value, note: str = "") -> str:
    unit = _UNITS.get(name, "")
    return f"{name:34s} {_fmt(value):>14s} {unit:6s} {note}".rstrip()


def _message_metrics(rep: Dict) -> Dict[str, Optional[float]]:
    """Application-message outcome (sensor readings, flow messages);
    ``None`` on the convergence workloads, which carry no messages."""
    fp = rep["fingerprint"]
    msgs = rep.get("messages")
    failed_ops = rep["ops_attempted"] - rep["ops_ok"]
    out = {
        "ops_failed_ratio": failed_ops / rep["ops_attempted"],
        "delivery_ratio": None, "frames_per_delivered": None,
        "latency_p50_s": None, "latency_p99_s": None, "latency_samples": 0,
        "messages_sent": 0,
    }
    if msgs:
        out.update(
            delivery_ratio=msgs["delivered"] / msgs["sent"],
            frames_per_delivered=fp["frames"] / msgs["delivered"] if msgs["delivered"] else None,
            latency_p50_s=msgs["p50_s"], latency_p99_s=msgs["p99_s"],
            latency_samples=msgs["samples"], messages_sent=msgs["sent"],
        )
    return out


def end_to_end_metrics(reps: List[Dict], setups: List[float]) -> Tuple[Dict, List[str]]:
    rep = reps[0]
    samples = {name: [r[name] for r in reps] for name in ("run_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    host = {name: _median(samples[name]) for name in ("setup_s", "run_s", "cpu_s", "peak_rss_mb")}
    values = dict(host)
    values["convergence_s"] = rep["fingerprint"]["convergence_s"]
    values["frames_sent"] = rep["fingerprint"]["frames"]
    values["ops_ok_ratio"] = rep["ops_ok"] / rep["ops_attempted"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}

    lines = []
    for name, _, _, _ in END_TO_END:
        note = ""
        if name in host:
            note = "median of " + " ".join(f"{x:.4g}" for x in samples[name])
        lines.append(_line(name, values[name], note))
    probes = [r["host_probe_s"] for r in reps]
    lines.append(_line("host.probe_s", _median(probes),
                       "median of " + " ".join(f"{x:.4g}" for x in probes)))
    msg = _message_metrics(rep)
    lines.append(_line("ops_failed_ratio", msg["ops_failed_ratio"],
                       f"{rep['ops_attempted'] - rep['ops_ok']} of {rep['ops_attempted']} "
                       "operations failed or never resolved"))
    for name in ("delivery_ratio", "frames_per_delivered", "latency_p50_s", "latency_p99_s"):
        note = "no application messages on this workload" if msg[name] is None else ""
        if name == "latency_p99_s" and msg[name] is not None:
            note = f"latency_samples {msg['latency_samples']}"
        lines.append(_line(name, msg[name], note))
    return metrics, lines


def _span(merged: Dict, name: str) -> Tuple[int, float]:
    layer_calls_total_self = merged["spans"].get(name)
    if layer_calls_total_self is None:
        return 0, 0.0
    return layer_calls_total_self[1], layer_calls_total_self[3]


def per_layer_metrics(reps: List[Dict], traced: Dict, tolerance: float):
    """Per-layer metrics of the traced repetition, with the host
    figures it is reconciled against taken from the untraced ones."""
    trace = traced["trace"]
    workers = trace["workers"]
    merged = merge_snapshots(workers + [trace["parent"]] if workers else [trace["parent"]])
    counters = dict(merged["counters"])
    counters.update(trace["counters"])
    v: Dict[str, float] = {}
    v["sim.kernel.events"] = merged["events"]
    v["sim.kernel.handler_s"] = merged["handler_s"]
    v["sim.kernel.dispatch_s"] = merged["dispatch_s"]
    for layer in LAYERS:
        v[f"{layer}.self_s"] = merged["layer_self"].get(layer, 0.0)

    untraced_run = _median([r["run_s"] for r in reps])
    median_rep = min(reps, key=lambda r: abs(r["run_s"] - untraced_run))
    shard = median_rep.get("shard")
    if shard:
        busy, barrier = shard["busy_s"], shard["barrier_wait_s"]
        v.update({
            "sim.shard.windows": shard["windows"],
            "sim.shard.busy_s.max": max(busy),
            "sim.shard.busy_s.sum": sum(busy),
            "sim.shard.barrier_wait_s": sum(barrier),
            "sim.shard.coordinator_s": median_rep["run_s"] - max(b + w for b, w in zip(busy, barrier)),
            "sim.shard.exports": shard["exports"],
            "sim.shard.ghosts": shard["ghosts"],
            "sim.shard.load_imbalance": shard["load_imbalance"],
        })
    else:
        for name in ("windows", "busy_s.max", "busy_s.sum", "barrier_wait_s", "coordinator_s",
                     "exports", "ghosts", "load_imbalance"):
            v[f"sim.shard.{name}"] = 0

    for metric, span in (("phy.link_evaluate", "phy.link_evaluate"),
                         ("radio.deliver", "radio.deliver"), ("radio.transmit", "radio.transmit"),
                         ("net.serialization.decode", "net.serialization.decode"),
                         ("net.serialization.encode", "net.serialization.encode"),
                         ("net.routing.merge", "net.routing.merge"),
                         ("net.routing.purge", "net.routing.purge"),
                         ("net.hello.send", "net.hello.send"),
                         ("net.forwarding.classify", "net.forwarding.classify"),
                         ("net.reliable.handle", "net.reliable.handle"),
                         ("net.stream.send", "net.stream.send")):
        v[f"{metric}.calls"], v[f"{metric}.self_s"] = _span(merged, span)
    v["net.reliable.send.calls"] = _span(merged, "net.reliable.send")[0]
    batch = [_span(merged, n) for n in merged["spans"] if n.startswith("phy.batch.")]
    v["phy.batch.calls"] = sum(c for c, _ in batch)
    v["phy.batch.self_s"] = sum(s for _, s in batch)
    v["net.routing.merge.rows"] = merged["extra"].get("net.routing.merge.rows", 0)
    merges = v["net.routing.merge.calls"]
    v["net.routing.merge_changed_ratio"] = (
        merged["extra"].get("net.routing.merge.changed", 0) / merges if merges else 0.0)

    outcomes = {o: counters.get(f"medium.outcomes.{o}", 0) for o in _OUTCOMES}
    for o, count in outcomes.items():
        v[f"medium.outcomes.{o}"] = count
    classified = sum(outcomes.values())
    v["medium.delivered_ratio"] = outcomes["delivered"] / classified if classified else 0.0
    for name in ("medium.transmissions", "net.hello.frames",
                 "net.forwarding.forwarded", "net.queues.drops", "net.queues.duty_deferrals",
                 "net.queues.cad_deferrals", "net.reliable.retransmits",
                 "net.stream.messages_received"):
        v[name] = counters.get(name, 0)
    flows = traced.get("flows") or {}
    v["workload.flows.failed"] = flows.get("failed", 0)
    v["workload.flows.unresolved"] = flows.get("unresolved", 0)
    v["obs.store.events"] = traced.get("store_events", 0)
    v["topology.placement_s"] = _median([r["placement_s"] for r in reps])

    msg = _message_metrics(traced)
    v["app.messages_sent"] = msg["messages_sent"]
    v["app.delivery_ratio"] = msg["delivery_ratio"] or 0.0
    v["app.frames_per_delivered"] = msg["frames_per_delivered"] or 0.0
    v["app.latency_p50_s"] = msg["latency_p50_s"] or 0.0
    v["app.latency_p99_s"] = msg["latency_p99_s"] or 0.0
    v["app.latency_samples"] = msg["latency_samples"]
    v["app.ops_failed_ratio"] = msg["ops_failed_ratio"]

    # Reconciliation: layer self times + dispatch (+ barrier waits in
    # shard workers) must cover the traced span.
    attributed = sum(merged["layer_self"].values()) + merged["dispatch_s"]
    barrier_s = 0.0
    if workers:
        span_s = sum(w["root_s"] for w in workers)
        barrier = traced["shard"]["barrier_wait_s"]
        barrier_s = sum(barrier[i] for w in workers for i in w["shards"])
        # The coordinator's own spans are not inside any worker's span.
        attributed += barrier_s - sum(trace["parent"]["layer_self"].values())
    else:
        span_s = trace["parent"]["root_s"]
    v["trace.run_s"] = traced["run_s"]
    v["trace.untraced_run_s"] = untraced_run
    v["trace.overhead_s"] = traced["run_s"] - untraced_run
    v["trace.residual_s"] = span_s - attributed
    v["trace.residual_ratio"] = v["trace.residual_s"] / span_s
    v["host.probe_s"] = _median([r["host_probe_s"] for r in reps])

    problems = []
    if abs(v["trace.residual_ratio"]) > tolerance:
        problems.append(f"layer self times leave {v['trace.residual_ratio']:.1%} of the traced "
                        f"span unattributed (tolerance {tolerance:.0%})")
    metrics = {name: {"value": v[name], "unit": unit} for name, unit, _ in PER_LAYER}

    lines = [f"traced span {span_s:.4g} s ({'sum over shard workers' if workers else 'serial'}); "
             f"untraced median run_s {untraced_run:.4g} s; tracing overhead "
             f"{v['trace.overhead_s']:+.4g} s; residual {v['trace.residual_ratio']:+.2%} "
             f"(tolerance {tolerance:.0%})"]
    lines.append("layer self time (share of attributed):")
    total = attributed or 1.0
    rows = sorted(((layer, v[f"{layer}.self_s"]) for layer in LAYERS), key=lambda x: -x[1])
    rows.insert(0, ("sim.kernel dispatch", merged["dispatch_s"]))
    if barrier_s:
        rows.insert(1, ("shard barrier wait", barrier_s))
    for layer, seconds in rows:
        if seconds:
            lines.append(f"  {layer:24s} {seconds:9.4f} s {seconds / total:7.1%}")
    if shard:
        lines.append("shards (untraced median repetition):")
        for i, (b, w) in enumerate(zip(shard["busy_s"], shard["barrier_wait_s"])):
            lines.append(f"  shard {i}: busy {b:.4f} s, barrier wait {w:.4f} s")
        lines.append(f"  coordinator {v['sim.shard.coordinator_s']:.4f} s "
                     f"(run_s - max(busy + barrier))")
    for name, _, _ in PER_LAYER:
        lines.append(_line(name, v[name]))
    return metrics, lines, problems
