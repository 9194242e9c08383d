"""E3 — Packet formats and their airtime cost.

Paper artifact: the library's packet-structure table.  For each packet
type we report the on-air size and time-on-air across spreading factors,
quantifying what the protocol's control plane costs — the numbers that
justify the default hello period and the fragment size.

Expected shape: airtime roughly doubles per SF step; a full hello (with
many routes) still costs well under a second at SF7.
"""

from benchmarks.conftest import BENCH_CONFIG
from repro.experiments.report import print_table
from repro.net import serialization
from repro.net.packets import (
    AckPacket,
    DataPacket,
    NeedAckPacket,
    RoutingEntry,
    RoutingPacket,
    SyncPacket,
    XLDataPacket,
)
from repro.phy.airtime import time_on_air
from repro.phy.modulation import LoRaParams, SpreadingFactor


def sample_packets():
    routes10 = tuple(RoutingEntry(address=i + 2, metric=i % 5) for i in range(10))
    return [
        ("HELLO (empty table)", RoutingPacket(src=1, rows=())),
        ("HELLO (10 routes)", RoutingPacket(src=1, rows=routes10)),
        ("DATA (24 B payload)", DataPacket(dst=1, src=2, via=3, payload=bytes(24))),
        ("DATA (180 B payload)", DataPacket(dst=1, src=2, via=3, payload=bytes(180))),
        ("NEED_ACK (24 B)", NeedAckPacket(dst=1, src=2, via=3, seq_id=0, number=0, payload=bytes(24))),
        ("ACK", AckPacket(dst=1, src=2, via=3, seq_id=0, number=0)),
        ("SYNC", SyncPacket(dst=1, src=2, via=3, seq_id=0, number=40, total_bytes=7200)),
        ("XL_DATA (180 B frag)", XLDataPacket(dst=1, src=2, via=3, seq_id=0, number=0, payload=bytes(180))),
    ]


def airtime_table():
    rows = []
    for name, packet in sample_packets():
        frame = serialization.encode(packet)
        cells = [name, len(frame)]
        for sf in SpreadingFactor:
            params = LoRaParams(spreading_factor=sf)
            cells.append(round(time_on_air(len(frame), params) * 1000, 1))
        rows.append(tuple(cells))
    return rows


def test_e3_airtime_per_packet_type(benchmark):
    rows = benchmark(airtime_table)
    print_table(
        ["packet", "bytes"] + [f"{sf.name} (ms)" for sf in SpreadingFactor],
        rows,
        title="E3: wire size and time-on-air per packet type (BW125, CR4/5)",
    )

    by_name = {row[0]: row for row in rows}
    # Shape: each SF step roughly doubles airtime (x1.6-2.4).
    hello = by_name["HELLO (10 routes)"]
    for i in range(2, len(hello) - 1):
        ratio = hello[i + 1] / hello[i]
        assert 1.5 < ratio < 2.5
    # A full-ish hello at SF7 costs under 200 ms: cheap enough for the
    # 60-120 s beacon period to stay far below the duty-cycle budget.
    assert by_name["HELLO (10 routes)"][2] < 200
    # The ACK is the smallest of the via-carrying (routed) packets.
    routed = [row for row in rows if not row[0].startswith("HELLO")]
    assert by_name["ACK"][1] == min(row[1] for row in routed)


def test_e3_hello_cost_vs_network_size(benchmark):
    def build():
        rows = []
        for n_routes in (0, 5, 10, 20, 40, 62):
            entries = tuple(RoutingEntry(address=i + 2, metric=1) for i in range(n_routes))
            frame = serialization.encode(RoutingPacket(src=1, rows=entries))
            toa = time_on_air(len(frame), BENCH_CONFIG.lora)
            duty_share = toa / BENCH_CONFIG.hello_period_s
            rows.append((n_routes, len(frame), round(toa * 1000, 1), f"{duty_share * 100:.3f}%"))
        return rows

    rows = benchmark(build)
    print_table(
        ["routes advertised", "bytes", "ToA at SF7 (ms)", "share of duty budget"],
        rows,
        title="E3b: hello cost vs routing-table size (hello every 60 s)",
    )
    # Even the largest single-frame hello stays well under the 1% budget.
    assert all(float(r[3].rstrip("%")) < 1.0 for r in rows)
