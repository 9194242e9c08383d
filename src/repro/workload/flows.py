"""The heavy-traffic workload engine: thousands of concurrent flows.

Every workload before this module was probe-shaped — one datagram at a
time, one flow per sender.  :class:`FlowEngine` drives *flows* instead:
connection-oriented streams (:mod:`repro.net.stream`) carrying many
messages each, thousands of them concurrently, in the three shapes real
LoRa mesh deployments produce:

``bursty``
    Sensor uplink: a device wakes, pushes a burst of readings to its
    collector, closes.
``ota``
    Firmware/config fan-out: one distributor opens a stream to each
    subscriber and pushes the same update — many flows sharing one
    sender.
``chat``
    Bidirectional messaging: both endpoints open a stream to the other
    and trade paced messages.

Each DATA message embeds ``(flow id, send sim-time)`` so the receiving
endpoint computes end-to-end latency without global state; per-flow
latency percentiles (p50/p95/p99) and goodput land in the metrics
registry via :func:`instrument_flow_engine
<repro.obs.instrument.instrument_flow_engine>`.  Flow placement and
start jitter come from named RNG streams
(:class:`~repro.sim.rng.RngRegistry`), so a workload is reproducible
from its seed alone.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.stats import percentile
from repro.net.stream import Stream, StreamManager
from repro.sim.rng import RngRegistry

__all__ = [
    "FlowSpec",
    "FlowState",
    "FlowEngine",
    "FlowKindSummary",
    "WorkloadSummary",
    "build_workload",
    "WORKLOAD_KINDS",
]

WORKLOAD_KINDS = ("bursty", "ota", "chat")

#: DATA body prefix: flow id (u32), send sim-time (f64).
_MSG_HEADER = struct.Struct(">Id")
MSG_OVERHEAD = _MSG_HEADER.size


@dataclass(frozen=True)
class FlowSpec:
    """One flow of the workload (one direction of a chat pair)."""

    flow_id: int
    kind: str  # "bursty" | "ota" | "chat"
    src: int  # sender address
    dst: int  # receiver address
    messages: int
    payload_bytes: int
    start_s: float
    #: Inter-message pacing; 0 hands the whole burst to the window.
    interval_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(f"unknown flow kind {self.kind!r}")
        if self.src == self.dst:
            raise ValueError("a flow needs distinct endpoints")
        if self.messages < 1:
            raise ValueError("a flow sends at least one message")
        if self.payload_bytes < MSG_OVERHEAD:
            raise ValueError(f"payload_bytes must be >= {MSG_OVERHEAD}")


@dataclass
class FlowState:
    """Live accounting for one flow."""

    spec: FlowSpec
    stream: Optional[Stream] = None
    sent: int = 0
    delivered: int = 0
    bytes_delivered: int = 0
    latencies_s: List[float] = field(default_factory=list)
    first_send_at: Optional[float] = None
    last_delivery_at: Optional[float] = None
    closed: bool = False
    failed: Optional[str] = None

    @property
    def complete(self) -> bool:
        return self.delivered >= self.spec.messages

    @property
    def goodput_bps(self) -> Optional[float]:
        """Delivered application bytes per second, send-to-last-delivery."""
        if self.first_send_at is None or self.last_delivery_at is None:
            return None
        elapsed = self.last_delivery_at - self.first_send_at
        if elapsed <= 0:
            return None
        return self.bytes_delivered / elapsed


@dataclass(frozen=True)
class FlowKindSummary:
    """Aggregated percentiles for one workload kind."""

    kind: str
    flows: int
    completed: int
    failed: int
    messages_sent: int
    messages_delivered: int
    latency_p50_s: Optional[float]
    latency_p95_s: Optional[float]
    latency_p99_s: Optional[float]
    goodput_p50_bps: Optional[float]


@dataclass(frozen=True)
class WorkloadSummary:
    """Whole-workload outcome, one row per kind plus totals."""

    flows: int
    completed: int
    failed: int
    messages_sent: int
    messages_delivered: int
    delivery_ratio: float
    latency_p50_s: Optional[float]
    latency_p95_s: Optional[float]
    latency_p99_s: Optional[float]
    kinds: Tuple[FlowKindSummary, ...]


def build_workload(
    kind: str,
    addresses: Sequence[int],
    flows: int,
    *,
    seed: int = 0,
    messages: int = 4,
    payload_bytes: int = 48,
    window_s: float = 600.0,
    interval_s: float = 30.0,
) -> List[FlowSpec]:
    """Deterministically place ``flows`` flow specs over ``addresses``.

    ``kind`` is one of ``bursty``/``ota``/``chat`` or ``mixed`` (equal
    thirds).  Starts are spread uniformly over ``window_s`` so thousands
    of flows ramp up instead of stampeding one instant.  ``chat``
    counts each *pair* as two flows (one per direction).
    """
    if len(addresses) < 2:
        raise ValueError("a workload needs at least two nodes")
    if flows < 1:
        raise ValueError("flows must be >= 1")
    if kind != "mixed" and kind not in WORKLOAD_KINDS:
        raise ValueError(f"unknown workload kind {kind!r}")
    rng = RngRegistry(seed).stream(f"workload.{kind}")
    specs: List[FlowSpec] = []

    def pick_pair() -> Tuple[int, int]:
        src = rng.choice(addresses)
        dst = rng.choice(addresses)
        while dst == src:
            dst = rng.choice(addresses)
        return src, dst

    def add(flow_kind: str, src: int, dst: int, interval: float) -> None:
        specs.append(
            FlowSpec(
                flow_id=len(specs),
                kind=flow_kind,
                src=src,
                dst=dst,
                messages=messages,
                payload_bytes=payload_bytes,
                start_s=rng.uniform(0.0, window_s),
                interval_s=interval,
            )
        )

    if kind == "mixed":
        third = flows // len(WORKLOAD_KINDS)
        targets = {
            "bursty": third,
            "ota": third,
            "chat": flows - 2 * third,
        }
    else:
        targets = {kind: flows}

    for flow_kind, target in targets.items():
        goal = len(specs) + target
        while len(specs) < goal:
            if flow_kind == "bursty":
                src, dst = pick_pair()
                add("bursty", src, dst, 0.0)
            elif flow_kind == "ota":
                # One distributor fans out to a handful of subscribers.
                src = rng.choice(addresses)
                fanout = min(max(2, len(addresses) // 4), goal - len(specs))
                receivers = [a for a in addresses if a != src]
                rng.shuffle(receivers)
                for dst in receivers[:fanout]:
                    add("ota", src, dst, 0.0)
            else:  # chat: one spec per direction
                src, dst = pick_pair()
                add("chat", src, dst, interval_s)
                if len(specs) < goal:
                    add("chat", dst, src, interval_s)
    return specs


class FlowEngine:
    """Drives a list of :class:`FlowSpec` over a live mesh network.

    One :class:`~repro.net.stream.StreamManager` is attached per
    participating node (reusing any manager already attached).  Call
    :meth:`start` before running the simulation; read :meth:`summary`
    (or the registry instruments) afterwards.
    """

    def __init__(self, net, *, window: Optional[int] = None) -> None:
        self._net = net
        self._sim = net.sim
        self._window = window
        self._managers: Dict[int, StreamManager] = {}
        self.flows: Dict[int, FlowState] = {}
        self._started = False

        # Engine-level counters (callback targets for the registry).
        self.flows_started = 0
        self.flows_completed = 0
        self.flows_failed = 0
        self.messages_sent = 0
        self.messages_delivered = 0
        self.bytes_delivered = 0

    # -- wiring --------------------------------------------------------
    def manager(self, address: int) -> StreamManager:
        mgr = self._managers.get(address)
        if mgr is None:
            node = self._net.node(address)
            mgr = getattr(node, "stream_manager", None)
            if mgr is None:
                mgr = StreamManager(node, window=self._window)
            mgr.on_accept = self._accept
            self._managers[address] = mgr
        return mgr

    def add_flows(self, specs: Sequence[FlowSpec]) -> None:
        for spec in specs:
            if spec.flow_id in self.flows:
                raise ValueError(f"duplicate flow id {spec.flow_id}")
            self.flows[spec.flow_id] = FlowState(spec=spec)

    def start(self) -> None:
        """Schedule every flow's launch at its start time."""
        if self._started:
            raise RuntimeError("engine already started")
        self._started = True
        # Receivers need their manager hook installed before the first
        # SYN arrives.
        for state in self.flows.values():
            self.manager(state.spec.dst)
        for state in self.flows.values():
            self._sim.schedule(
                state.spec.start_s,
                lambda s=state: self._launch(s),
                label=f"flow#{state.spec.flow_id} start",
            )

    # -- flow lifecycle ------------------------------------------------
    def _launch(self, state: FlowState) -> None:
        spec = state.spec
        self.flows_started += 1
        stream = self.manager(spec.src).open(
            spec.dst,
            on_open=lambda s, st=state: self._feed(st),
            on_close=lambda s, why, st=state: self._closed(st, why),
        )
        state.stream = stream

    def _feed(self, state: FlowState) -> None:
        """Queue messages on the (now open) stream."""
        spec = state.spec
        if spec.interval_s <= 0:
            for _ in range(spec.messages):
                self._send_one(state)
            state.stream.close()
        else:
            self._paced_send(state)

    def _paced_send(self, state: FlowState) -> None:
        if state.closed or state.stream is None or not state.stream.is_open:
            return
        self._send_one(state)
        if state.sent < state.spec.messages:
            self._sim.schedule(
                state.spec.interval_s,
                lambda: self._paced_send(state),
                label=f"flow#{state.spec.flow_id} pace",
            )
        else:
            state.stream.close()

    def _send_one(self, state: FlowState) -> None:
        spec = state.spec
        now = self._sim.now
        if state.first_send_at is None:
            state.first_send_at = now
        body = _MSG_HEADER.pack(spec.flow_id, now)
        body += b"\x00" * (spec.payload_bytes - len(body))
        state.stream.send(body)
        state.sent += 1
        self.messages_sent += 1

    def _accept(self, stream: Stream) -> None:
        stream.on_message = self._delivered

    def _delivered(self, stream: Stream, body: bytes) -> None:
        if len(body) < MSG_OVERHEAD:
            return
        flow_id, sent_at = _MSG_HEADER.unpack_from(body)
        state = self.flows.get(flow_id)
        if state is None:
            return
        now = self._sim.now
        state.delivered += 1
        state.bytes_delivered += len(body)
        state.latencies_s.append(now - sent_at)
        state.last_delivery_at = now
        self.messages_delivered += 1
        self.bytes_delivered += len(body)

    def _closed(self, state: FlowState, reason: str) -> None:
        if state.closed:
            return
        state.closed = True
        if reason == "fin":
            self.flows_completed += 1
        else:
            state.failed = reason
            self.flows_failed += 1

    # -- reporting -----------------------------------------------------
    @property
    def flows_active(self) -> int:
        return self.flows_started - self.flows_completed - self.flows_failed

    def stream_counter_total(self, name: str) -> int:
        """Sum a :class:`StreamManager` counter across every node the
        engine has wired (``streams_opened``, ``messages_received``, …)."""
        return sum(getattr(mgr, name, 0) for mgr in self._managers.values())

    def max_concurrent_window(self) -> int:
        """Flows whose [start, close] interval is still open *now* is not
        knowable post-hoc; this returns flows that had been started and
        were not yet closed at any point — a lower bound used by tests."""
        return self.flows_active

    def _all_latencies(self, kind: Optional[str] = None) -> List[float]:
        out: List[float] = []
        for state in self.flows.values():
            if kind is None or state.spec.kind == kind:
                out.extend(state.latencies_s)
        return out

    def latency_percentile(self, q: float, kind: Optional[str] = None) -> Optional[float]:
        values = self._all_latencies(kind)
        return percentile(values, q) if values else None

    def goodput_percentile(self, q: float, kind: Optional[str] = None) -> Optional[float]:
        values = [
            g
            for state in self.flows.values()
            if (kind is None or state.spec.kind == kind)
            and (g := state.goodput_bps) is not None
        ]
        return percentile(values, q) if values else None

    def summary(self) -> WorkloadSummary:
        kinds: List[FlowKindSummary] = []
        for kind in WORKLOAD_KINDS:
            states = [s for s in self.flows.values() if s.spec.kind == kind]
            if not states:
                continue
            latencies = self._all_latencies(kind)
            kinds.append(
                FlowKindSummary(
                    kind=kind,
                    flows=len(states),
                    completed=sum(1 for s in states if s.closed and s.failed is None),
                    failed=sum(1 for s in states if s.failed is not None),
                    messages_sent=sum(s.sent for s in states),
                    messages_delivered=sum(s.delivered for s in states),
                    latency_p50_s=percentile(latencies, 50) if latencies else None,
                    latency_p95_s=percentile(latencies, 95) if latencies else None,
                    latency_p99_s=percentile(latencies, 99) if latencies else None,
                    goodput_p50_bps=self.goodput_percentile(50, kind),
                )
            )
        latencies = self._all_latencies()
        sent = sum(s.sent for s in self.flows.values())
        delivered = sum(s.delivered for s in self.flows.values())
        return WorkloadSummary(
            flows=len(self.flows),
            completed=self.flows_completed,
            failed=self.flows_failed,
            messages_sent=sent,
            messages_delivered=delivered,
            delivery_ratio=(delivered / sent) if sent else 0.0,
            latency_p50_s=percentile(latencies, 50) if latencies else None,
            latency_p95_s=percentile(latencies, 95) if latencies else None,
            latency_p99_s=percentile(latencies, 99) if latencies else None,
            kinds=tuple(kinds),
        )
