"""Tests for the kernel profiler."""

import pytest

from repro.baselines.aodv import AodvNetwork
from repro.obs.profiler import KernelProfiler, callback_name, normalize_label
from repro.sim.kernel import Simulator
from repro.topology.placement import line_positions


class TestNormalisation:
    def test_digits_collapse(self):
        assert normalize_label("0001 pump") == "N pump"
        assert normalize_label("tx#123 end") == "tx#N end"
        assert normalize_label("radio7 txdone") == "radioN txdone"

    def test_hex_addresses_share_one_bin(self):
        labels = ("000F pump", "00AF pump", "1234 pump", "ABCD pump")
        assert {normalize_label(label) for label in labels} == {"N pump"}
        assert normalize_label("hello 0x000f") == normalize_label("hello 0x00af") == "hello N"
        assert normalize_label("stream(0x00af,12) gap") == "stream(N,N) gap"

    def test_aodv_pump_labels_share_one_bin(self):
        # Addresses 0x0001..0x0012: decimal-only, letter and mixed hex.
        net = AodvNetwork(line_positions(18), seed=1)
        profiler = KernelProfiler().attach(net.sim)
        first, last = net.addresses[0], net.addresses[-1]
        for node in net.nodes:  # every node originates a discovery
            node.send(last if node.address == first else first, b"x")
        net.run(for_s=60.0)
        pumps = {spot.name for spot in profiler.table() if spot.name.endswith("pump")}
        assert pumps == {"aodv N pump"}

    def test_callback_name_for_functions(self):
        def handler():
            pass

        assert "handler" in callback_name(handler)


class TestAttachment:
    def test_attach_and_detach(self):
        sim = Simulator()
        profiler = KernelProfiler().attach(sim)
        assert sim.profiler is profiler
        profiler.detach()
        assert sim.profiler is None

    def test_double_attach_rejected(self):
        sim = Simulator()
        KernelProfiler().attach(sim)
        with pytest.raises(RuntimeError):
            KernelProfiler().attach(sim)

    def test_reattach_same_profiler_is_fine(self):
        sim = Simulator()
        profiler = KernelProfiler().attach(sim)
        profiler.attach(sim)
        assert sim.profiler is profiler


class TestRecording:
    def test_events_grouped_by_normalised_label(self):
        sim = Simulator()
        profiler = KernelProfiler().attach(sim)
        for i in range(4):
            sim.schedule(float(i), lambda: None, label=f"{i:04d} pump")
        sim.schedule(5.0, lambda: None, label="hello 0x0001")
        sim.run()
        groups = {spot.name: spot for spot in profiler.table()}
        assert groups["N pump"].events == 4
        assert groups["hello N"].events == 1
        assert profiler.total_events == 5

    def test_unlabelled_events_use_callback_name(self):
        sim = Simulator()
        profiler = KernelProfiler().attach(sim)

        def my_handler():
            pass

        sim.schedule(1.0, my_handler)
        sim.run()
        assert any("my_handler" in spot.name for spot in profiler.table())

    def test_time_accumulates_and_sorts(self):
        sim = Simulator()
        profiler = KernelProfiler().attach(sim)

        def busy():
            sum(range(20_000))

        for i in range(3):
            sim.schedule(float(i), busy, label="busy")
            sim.schedule(float(i), lambda: None, label="idle")
        sim.run()
        spots = profiler.table()
        assert spots[0].name == "busy"
        assert spots[0].total_s > 0
        assert spots[0].max_s <= spots[0].total_s
        assert profiler.total_s == pytest.approx(sum(s.total_s for s in spots))

    def test_detached_kernel_records_nothing(self):
        sim = Simulator()
        profiler = KernelProfiler().attach(sim)
        profiler.detach()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert profiler.total_events == 0

    def test_reset(self):
        sim = Simulator()
        profiler = KernelProfiler().attach(sim)
        sim.schedule(1.0, lambda: None, label="x")
        sim.run()
        assert profiler.total_events == 1
        profiler.reset()
        assert profiler.total_events == 0
        assert profiler.table() == []


class TestFormatting:
    def test_format_renders_table(self):
        sim = Simulator()
        profiler = KernelProfiler().attach(sim)
        sim.schedule(1.0, lambda: None, label="pump 3")
        sim.run()
        text = profiler.format()
        assert "Kernel hot spots" in text
        assert "pump N" in text
        assert "share" in text

    def test_format_limit_note(self):
        sim = Simulator()
        profiler = KernelProfiler().attach(sim)
        for i, label in enumerate(("alpha", "beta", "gamma", "delta")):
            sim.schedule(float(i), lambda: None, label=label)
        sim.run()
        text = profiler.format(limit=2)
        assert "2 more handler groups" in text
