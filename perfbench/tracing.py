"""Layer tracing for the benchmark's traced run.

Everything here lives outside the simulator: :func:`install` replaces
public entry points of each layer with timing wrappers, and sets every
``Simulator.profiler`` to a :class:`Tracer`, so each kernel event
handler becomes the parent span of the layer calls it makes.

Spans are aggregated in memory (per span name: calls, total time, self
time) and written out when the run ends.  A span's self time is its duration minus the time its child
spans cover.  A handler's self time is charged to the layer of the
module that defines the callback, so code between wrapped calls is not
lost: self times over all layers, plus kernel dispatch (the
``Simulator.run`` loop minus handler time), account for the traced span,
and the remainder is reported as the residual.

Sharded runs fork their workers after the wrappers are installed, so
the workers trace too; each worker writes its aggregates to a file
before it reports its results (see :func:`install_shard_hooks`).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Longest-prefix map from module to layer name.
MODULE_LAYERS = (
    ("repro.sim.shard", "sim.shard"),
    ("repro.sim", "sim.kernel"),
    ("repro.phy", "phy"),
    ("repro.medium", "medium"),
    ("repro.radio", "radio"),
    ("repro.net.serialization", "net.serialization"),
    ("repro.net.packets", "net.serialization"),
    ("repro.net.routing_table", "net.routing"),
    ("repro.net.routing_store", "net.routing"),
    ("repro.net.hello", "net.hello"),
    ("repro.net.forwarding", "net.forwarding"),
    ("repro.net.queues", "net.queues"),
    ("repro.net.reliable", "net.reliable"),
    ("repro.net.stream", "net.stream"),
    ("repro.net.api", "net.api"),
    ("repro.net", "net.mesher"),
    ("repro.workload.flows", "workload.flows"),
    ("repro.workload", "workload.traffic"),
    ("repro.obs.store", "obs.store"),
    ("repro.obs", "obs"),
    ("repro.topology", "topology"),
    ("repro.experiments", "experiments"),
    ("repro.metrics", "metrics"),
)

#: Every layer a self time is reported for ("other": outside ``repro``).
LAYERS = tuple(dict.fromkeys(layer for _, layer in MODULE_LAYERS)) + ("other",)


def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class Tracer:
    """In-memory span aggregates; doubles as the kernel profiler."""

    def __init__(self) -> None:
        self.spans: Dict[str, list] = {}  # name -> [layer, calls, total_s, self_s]
        self.extra: Dict[str, float] = defaultdict(float)
        self._module_layer: Dict[str, str] = {}
        self.clear()

    def clear(self) -> None:
        """Zero every aggregate (in place: wrappers hold their span's
        stats list)."""
        for stats in self.spans.values():
            stats[1:] = [0, 0.0, 0.0]
        # Frames are [name, child_s, is_kernel_run].
        self.stack: List[list] = []
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.extra.clear()
        self.counters: Dict[str, float] = {}
        self.shards: List[int] = []  # shard indices this process ran
        self.events = 0
        self.handler_s = 0.0
        self.dispatch_s = 0.0
        self._handler_child_s = 0.0
        self.root_s = 0.0
        self.root_start: Optional[float] = None

    # -- spans -----------------------------------------------------------
    def span_stats(self, name: str, layer: str) -> list:
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = [layer, 0, 0.0, 0.0]
        return stats

    def close_child(self, duration: float) -> None:
        stack = self.stack
        if not stack:
            return
        parent = stack[-1]
        if parent[2]:
            # Inside a kernel handler: the handler's record() call
            # settles the parent once its own duration is known.
            self._handler_child_s += duration
        else:
            parent[1] += duration

    def wrap(self, fn: Callable, name: str, layer: str, *, kernel_run: bool = False,
             on_result: Optional[Callable] = None) -> Callable:
        stats = self.span_stats(name, layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0, kernel_run]
            tracer.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                tracer.stack.pop()
                own = duration - frame[1]
                stats[1] += 1
                stats[2] += duration
                stats[3] += own
                if kernel_run:
                    tracer.dispatch_s += own
                else:
                    tracer.layer_self[layer] += own
                tracer.close_child(duration)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # -- kernel profiler hook ---------------------------------------------
    def handler_layer(self, callback) -> str:
        owner = getattr(callback, "__self__", None)
        if owner is not None and type(owner).__name__ == "PeriodicTimer":
            callback = owner._callback
        # Bound methods report their function's module, and
        # functools.wraps gives wrappers their original's.
        module = getattr(callback, "__module__", None) or ""
        layer = self._module_layer.get(module)
        if layer is None:
            layer = self._module_layer[module] = layer_of_module(module)
        return layer

    def record(self, label, callback, elapsed_s: float) -> None:
        """``Simulator.profiler`` protocol: one executed event."""
        layer = self.handler_layer(callback)
        self.events += 1
        self.handler_s += elapsed_s
        self.layer_self[layer] += elapsed_s - self._handler_child_s
        self._handler_child_s = 0.0
        if self.stack:
            self.stack[-1][1] += elapsed_s

    # -- root span ---------------------------------------------------------
    def start_root(self) -> None:
        """Open the traced span; aggregates recorded before it (input
        generation, fork-inherited state) are dropped."""
        self.clear()
        self.stack.append(["root", 0.0, False])
        self.root_start = perf_counter()

    def root_elapsed(self) -> float:
        return perf_counter() - self.root_start

    def stop_root(self) -> None:
        self.root_s = self.root_elapsed()
        self.stack.pop()

    # -- output ------------------------------------------------------------
    def snapshot(self, root_s: Optional[float] = None) -> Dict:
        return {
            "root_s": self.root_s if root_s is None else root_s,
            "events": self.events,
            "handler_s": self.handler_s,
            "dispatch_s": self.dispatch_s,
            "spans": {name: list(v) for name, v in self.spans.items() if v[1]},
            "layer_self": dict(self.layer_self),
            "extra": dict(self.extra),
            "counters": dict(self.counters),
            "shards": list(self.shards),
        }


def merge_snapshots(snapshots: List[Dict]) -> Dict:
    """Sum aggregates over processes (root_s is kept per process)."""
    out = {"root_s": [s["root_s"] for s in snapshots], "events": 0, "handler_s": 0.0,
           "dispatch_s": 0.0, "spans": {}, "layer_self": defaultdict(float),
           "extra": defaultdict(float), "counters": defaultdict(float)}
    for snap in snapshots:
        for key in ("events", "handler_s", "dispatch_s"):
            out[key] += snap[key]
        for name, (layer, calls, total, own) in snap["spans"].items():
            acc = out["spans"].setdefault(name, [layer, 0, 0.0, 0.0])
            acc[1] += calls
            acc[2] += total
            acc[3] += own
        for key in ("layer_self", "extra", "counters"):
            for name, value in snap[key].items():
                out[key][name] += value
    return out


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _patch(tracer: Tracer, owner, attr: str, name: str, layer: str, **kw) -> None:
    """Wrap ``owner.attr`` (a class or module attribute) in place."""
    raw = inspect.getattr_static(owner, attr) if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, layer, **kw)))
    else:
        setattr(owner, attr, tracer.wrap(raw, name, layer, **kw))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points and route every new
    ``Simulator``'s profiler hook to ``tracer``.  Call before the
    network is built, so timers and hooks bind to the wrappers."""
    from repro.medium.channel import Medium
    from repro.net import mesher, serialization
    from repro.net.api import MeshNetwork
    from repro.net.hello import HelloService
    from repro.net.reliable import ReliableTransport
    from repro.net.routing_store import ColumnarRoutingTable
    from repro.net.routing_table import RoutingTable
    from repro.net.stream import Stream
    from repro.obs.store import EventStore, StoreRecorder
    from repro.phy import batch
    from repro.phy.link import LinkBudget
    from repro.radio.driver import Radio
    from repro.sim.kernel import Simulator

    def merged(args, changed) -> None:
        entries = args[2] if len(args) > 2 else ()
        if isinstance(entries, (tuple, list)):
            tracer.extra["net.routing.merge.rows"] += len(entries)
        if changed:
            tracer.extra["net.routing.merge.changed"] += 1

    _patch(tracer, Simulator, "run", "sim.kernel.run", "sim.kernel", kernel_run=True)
    original_init = Simulator.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.profiler = tracer

    Simulator.__init__ = init

    _patch(tracer, Medium, "begin_transmission", "medium.begin_transmission", "medium")
    _patch(tracer, Medium, "inject_external", "medium.inject_external", "medium")
    _patch(tracer, LinkBudget, "evaluate", "phy.link_evaluate", "phy")
    for fn in ("rssi_matrix", "link_matrices", "above_sensitivity_matrix"):
        _patch(tracer, batch, fn, f"phy.batch.{fn}", "phy")
    _patch(tracer, Radio, "deliver", "radio.deliver", "radio")
    _patch(tracer, Radio, "transmit", "radio.transmit", "radio")
    _patch(tracer, serialization, "encode", "net.serialization.encode", "net.serialization")
    _patch(tracer, serialization, "decode", "net.serialization.decode", "net.serialization")
    for table in (RoutingTable, ColumnarRoutingTable):
        _patch(tracer, table, "process_hello", "net.routing.merge", "net.routing", on_result=merged)
        _patch(tracer, table, "purge", "net.routing.purge", "net.routing")
    _patch(tracer, HelloService, "send_hello", "net.hello.send", "net.hello")
    # mesher imports classify by name, so the wrapper goes on mesher.
    _patch(tracer, mesher, "classify", "net.forwarding.classify", "net.forwarding")
    _patch(tracer, ReliableTransport, "send", "net.reliable.send", "net.reliable")
    for handler in ("handle_need_ack", "handle_sync", "handle_xl_data", "handle_ack", "handle_lost"):
        _patch(tracer, ReliableTransport, handler, "net.reliable.handle", "net.reliable")
    _patch(tracer, Stream, "send", "net.stream.send", "net.stream")
    for tap in ("attach", "detach", "mark", "_on_route_event", "_on_forward_decision",
                "_on_app_delivery", "_on_frame", "_on_transmission", "_on_trace_event",
                "_on_sample", "_on_violation"):
        _patch(tracer, StoreRecorder, tap, "obs.store.tap", "obs.store")
    for write in ("flush", "close"):
        _patch(tracer, EventStore, write, "obs.store.write", "obs.store")
    _patch(tracer, MeshNetwork, "from_positions", "net.api.build", "net.api")
    _patch(tracer, MeshNetwork, "converged", "net.api.converged", "net.api")


def install_shard_hooks(tracer: Tracer, dump_dir: Path,
                        counters: Callable[[list], Dict[str, float]]) -> None:
    """Trace inside sharded-run workers.

    Wraps four private pieces of :mod:`repro.sim.shard`: the worker's
    entry point (the worker's root span, with the fork-inherited
    aggregates cleared), the window step (``sim.shard.step``), the
    convergence check, and the shard's final report, which also writes
    the worker's aggregates and network counters to ``dump_dir`` before
    the worker replies.  ``Connection.send`` is wrapped as well.
    """
    from multiprocessing.connection import Connection

    from repro.sim import shard

    original_main = shard._worker_main

    def worker_main(conn, spec):
        tracer.start_root()
        return original_main(conn, spec)

    shard._worker_main = worker_main
    # Replies to the coordinator are pickled in the worker outside both
    # the window step and the barrier wait: that is the IPC cost.
    _patch(tracer, Connection, "send", "sim.shard.ipc_send", "sim.shard")
    _patch(tracer, shard._ShardSim, "step", "sim.shard.step", "sim.shard")
    _patch(tracer, shard._ShardSim, "converged_global", "sim.shard.converged", "sim.shard")
    original_finish = shard._ShardSim.finish

    def finish(self):
        result = original_finish(self)
        if self.net is not None:
            for key, value in counters([self.net]).items():
                tracer.counters[key] = tracer.counters.get(key, 0) + value
        tracer.shards.append(self.index)
        snap = tracer.snapshot(root_s=tracer.root_elapsed())
        path = dump_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(snap))
        return result

    shard._ShardSim.finish = finish
