"""The observer bus, and readers composing on it in any order.

The store, the invariant checker and the air capture each subscribe on
their own: attaching or detaching one must never change what another
records, nor what the simulation does.
"""

import itertools

import pytest

from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.obs.store import KIND_FRAME, KIND_ROUTE, EventStore, StoreRecorder
from repro.sim.bus import TOPICS, ObserverBus
from repro.sim.kernel import Simulator
from repro.topology.placement import line_positions
from repro.trace.capture import AirCapture
from repro.verify import InvariantChecker

FAST = MesherConfig(hello_period_s=30.0, route_timeout_s=120.0, purge_period_s=15.0)
#: Readers attach at t=0 and detach, in some order, at these instants.
DETACH_AT = (150.0, 300.0, 450.0)
END_S = 600.0


def topics_empty(bus):
    return all(getattr(bus, topic) == () for topic in TOPICS)


class TestObserverBus:
    def test_simulator_owns_an_empty_bus(self):
        bus = Simulator().bus
        assert isinstance(bus, ObserverBus)
        assert topics_empty(bus)

    def test_unknown_topic_raises(self):
        bus = ObserverBus()
        with pytest.raises(ValueError, match="routes"):
            bus.subscribe("routes", print)
        with pytest.raises(ValueError):
            bus.unsubscribe("frames", print)
        with pytest.raises(AttributeError):
            bus.routes = ()

    def test_subscribers_run_in_subscription_order(self):
        bus = ObserverBus()
        calls = []
        first = lambda *args: calls.append(("first", args))  # noqa: E731
        second = lambda *args: calls.append(("second", args))  # noqa: E731
        bus.subscribe("frame", first)
        bus.subscribe("frame", second)
        for fn in bus.frame:
            fn("medium", "tx")
        assert calls == [("first", ("medium", "tx")), ("second", ("medium", "tx"))]

    def test_unsubscribe_matches_identity(self):
        class Reader:
            def on_frame(self, medium, tx):
                pass

        reader = Reader()
        bus = ObserverBus()
        tap = reader.on_frame
        bus.subscribe("frame", tap)
        with pytest.raises(ValueError):
            bus.unsubscribe("frame", reader.on_frame)  # an equal, new bound method
        bus.unsubscribe("frame", tap)
        assert bus.frame == ()
        with pytest.raises(ValueError):
            bus.unsubscribe("frame", tap)

    def test_same_subscriber_twice_needs_two_unsubscribes(self):
        bus = ObserverBus()
        bus.subscribe("route", print)
        bus.subscribe("route", print)
        bus.unsubscribe("route", print)
        assert bus.route == (print,)

    def test_unsubscribe_during_emit_applies_from_next_event(self):
        bus = ObserverBus()
        calls = []

        def leaver(*args):
            calls.append("leaver")
            bus.unsubscribe("route", leaver)

        bus.subscribe("route", leaver)
        bus.subscribe("route", lambda *args: calls.append("stayer"))
        for _ in range(2):
            for fn in bus.route:
                fn("node", "added", None)
        assert calls == ["leaver", "stayer", "stayer"]


# ----------------------------------------------------------------------
# Composition of the real readers
# ----------------------------------------------------------------------
def _traffic(net):
    first, last = net.nodes[0], net.nodes[-1]
    for t in (200.0, 350.0, 500.0):
        net.sim.schedule_at(t, lambda: first.send_datagram(last.address, b"ping"))
        net.sim.schedule_at(t + 5.0, lambda: last.send_reliable(first.address, b"pong" * 30))


def _run(tmp_path, attach, detach_at, *, frames=True, name="run"):
    """Run a 6-node line with the readers named in ``attach`` (attached
    in that order at t=0), each detached at its ``detach_at`` instant."""
    net = MeshNetwork.from_positions(line_positions(6), config=FAST, seed=3)
    _traffic(net)
    store = EventStore(tmp_path / f"{name}.db") if "store" in attach else None
    readers = {}
    for reader in attach:
        if reader == "store":
            readers[reader] = StoreRecorder(store, net, frames=frames).attach()
            net.sim.schedule_at(detach_at[reader], readers[reader].detach)
        elif reader == "checker":
            readers[reader] = InvariantChecker(net, strict=True).attach()
            net.sim.schedule_at(detach_at[reader], readers[reader].detach)
        else:
            readers[reader] = AirCapture(net.medium)
            net.sim.schedule_at(detach_at[reader], readers[reader].stop)
    net.run(for_s=END_S)
    assert topics_empty(net.sim.bus)
    fingerprint = (
        net.total_frames_sent(),
        net.total_bytes_sent(),
        [tuple((e.address, e.via, e.metric) for e in n.table) for n in net.nodes],
    )
    counts = store.counts_by_kind() if store is not None else None
    if store is not None:
        store.close()
    capture = readers.get("capture")
    return fingerprint, counts, capture.total_seen if capture is not None else None


def test_checker_detached_first_keeps_store_route_rows(tmp_path):
    """Checker attached before the store (as run_protocol does) and
    detached first: the store still records every route change."""
    net = MeshNetwork.from_positions(line_positions(6), config=FAST, seed=3)
    checker = InvariantChecker(net, strict=True).attach()
    store = EventStore(tmp_path / "run.db")
    recorder = StoreRecorder(store, net).attach()
    net.sim.schedule_at(5.0, checker.detach)
    net.run(for_s=END_S)
    recorder.detach()
    assert topics_empty(net.sim.bus)

    alone = MeshNetwork.from_positions(line_positions(6), config=FAST, seed=3)
    alone_store = EventStore(tmp_path / "alone.db")
    alone_recorder = StoreRecorder(alone_store, alone).attach()
    alone.run(for_s=END_S)
    alone_recorder.detach()

    routes = store.count(kind=KIND_ROUTE)
    assert routes == alone_store.count(kind=KIND_ROUTE) > 0
    assert store.counts_by_kind() == alone_store.counts_by_kind()
    store.close()
    alone_store.close()


@pytest.mark.parametrize("frames", [True, "full"])
def test_attach_detach_order_matrix(tmp_path, frames):
    """Every attach order x detach order of store + checker + capture
    records what each reader records alone, and simulates what a run
    with no reader simulates."""
    readers = ("store", "checker", "capture")
    bare, _, _ = _run(tmp_path, (), {}, name="bare")
    alone = {}
    for i, (attach, detach) in enumerate(
        itertools.product(itertools.permutations(readers), repeat=2)
    ):
        detach_at = {reader: DETACH_AT[detach.index(reader)] for reader in readers}
        key = (detach_at["store"], detach_at["capture"])
        if key not in alone:
            # The same detach instants, one reader at a time.
            alone[key] = (
                _run(tmp_path, ("store",), detach_at, frames=frames, name=f"store{i}")[1],
                _run(tmp_path, ("capture",), detach_at, name=f"capture{i}")[2],
            )
        fingerprint, counts, seen = _run(
            tmp_path, attach, detach_at, frames=frames, name=f"all{i}"
        )
        assert fingerprint == bare
        assert (counts, seen) == alone[key], (attach, detach)
        assert counts[KIND_FRAME] > 0 and seen > 0


def test_capture_beside_full_frame_store(tmp_path):
    net = MeshNetwork.from_positions(line_positions(6), config=FAST, seed=3)
    store = EventStore(tmp_path / "run.db")
    recorder = StoreRecorder(store, net, frames="full").attach()
    capture = AirCapture(net.medium)
    net.run(for_s=END_S)
    capture.stop()
    recorder.detach()
    completed = net.total_frames_sent() - net.medium.active_count()
    assert capture.total_seen == store.count(kind=KIND_FRAME) == completed > 0
    stored = store.events(kind=KIND_FRAME)
    assert [(e.t, e.node) for e in stored] == [(f.time, f.sender) for f in capture.frames]
    assert [e.data["outcomes"] for e in stored] == [
        {str(n): r.value for n, r in f.outcomes.items()} for f in capture.frames
    ]
    store.close()
