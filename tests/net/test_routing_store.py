"""Columnar routing-store specifics.

The behavioural contract (identical observables to the scalar table) is
covered by ``tests/properties/test_routing_equivalence.py`` and by
``tests/net/test_routing_table.py`` running its whole suite against both
implementations.  This module tests what is *unique* to the columnar
store: the implementation factory, the dense-slot storage mechanics,
and the vectorized convergence probe.
"""

import pytest

from repro.net.config import MesherConfig
from repro.net.packets import RoutingEntry
from repro.net.routing_table import ROUTING_IMPLS, RoutingTable, make_routing_table
from repro.net.routing_store import ColumnarRoutingTable, as_address_array

ME = 0x0001


def entries(*rows):
    return tuple(RoutingEntry.from_row(row) for row in rows)


class TestFactory:
    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        # These tests exercise the argument/env precedence itself, so an
        # ambient REPRO_ROUTING_IMPL (e.g. a scalar-forced CI lane) must
        # not leak in.
        monkeypatch.delenv("REPRO_ROUTING_IMPL", raising=False)

    def test_auto_resolves_to_scalar(self):
        table = make_routing_table(ME)
        assert type(table) is RoutingTable
        assert type(make_routing_table(ME, impl="auto")) is RoutingTable

    def test_explicit_scalar(self):
        assert isinstance(make_routing_table(ME, impl="scalar"), RoutingTable)

    def test_explicit_columnar(self):
        assert isinstance(make_routing_table(ME, impl="columnar"), ColumnarRoutingTable)

    def test_unknown_impl_rejected(self):
        with pytest.raises(ValueError):
            make_routing_table(ME, impl="quantum")

    def test_env_overrides_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_ROUTING_IMPL", "scalar")
        assert isinstance(make_routing_table(ME, impl="columnar"), RoutingTable)

    def test_impl_names_exported(self):
        assert set(ROUTING_IMPLS) == {"auto", "scalar", "columnar"}

    def test_config_carries_choice(self):
        assert MesherConfig(routing_impl="scalar").routing_impl == "scalar"
        with pytest.raises(ValueError):
            MesherConfig(routing_impl="nope")

    def test_kwargs_forwarded(self):
        t = make_routing_table(
            ME, route_timeout=42.0, max_metric=9, snr_tiebreak_db=2.0, impl="columnar"
        )
        assert t.route_timeout == 42.0
        assert t.max_metric == 9
        assert t.snr_tiebreak_db == 2.0


class TestValidation:
    def test_mirrors_scalar_constructor_checks(self):
        with pytest.raises(ValueError):
            ColumnarRoutingTable(ME, route_timeout=0.0)
        with pytest.raises(ValueError):
            ColumnarRoutingTable(ME, max_metric=0)
        with pytest.raises(ValueError):
            ColumnarRoutingTable(ME, max_metric=256)
        with pytest.raises(ValueError):
            ColumnarRoutingTable(ME, snr_tiebreak_db=-1.0)


class TestSlotStorage:
    def test_columns_stay_dense_after_removal(self):
        t = ColumnarRoutingTable(ME, route_timeout=100.0)
        for address in (0x10, 0x20, 0x30):
            t.heard_from(address, now=0.0)
        t.heard_from(0x40, now=50.0)
        # 0x10..0x30 expire; 0x40 must survive in a compacted column.
        removed = t.purge(now=120.0)
        assert [e.address for e in removed] == [0x10, 0x20, 0x30]
        assert t._count == 1
        assert t.destinations() == [0x40]
        assert t.metric(0x40) == 1

    def test_slot_map_grows_for_high_addresses(self):
        t = ColumnarRoutingTable(ME)
        t.heard_from(0xFFFE, now=0.0)
        assert t.has_route(0xFFFE)
        assert t._slots.shape[0] >= 0xFFFF

    def test_column_capacity_doubles(self):
        t = ColumnarRoutingTable(ME)
        rows = entries(*[(0x100 + i, 2, 0) for i in range(40)])
        t.process_hello(0x99, rows, now=0.0)
        assert t.size == 41  # 40 advertised + the neighbour itself
        assert t._addr.shape[0] >= 41

    def test_lookups_return_materialized_copies(self):
        t = ColumnarRoutingTable(ME)
        t.heard_from(0x10, now=0.0)
        entry = t.get(0x10)
        entry.metric = 99  # documented: does NOT write back
        assert t.metric(0x10) == 1
        t.set_route(0x10, 0x10, 3, 0, 1.0)
        assert t.metric(0x10) == 3


class TestVectorMergePath:
    def test_small_packets_take_scalar_loop(self, monkeypatch):
        t = ColumnarRoutingTable(ME)
        calls = []
        monkeypatch.setattr(
            t,
            "_merge_rows_vector",
            lambda *a, **k: calls.append(1) or (0, routing_store._EMPTY_SLOTS),
        )
        t.process_hello(0x99, entries((0x10, 1, 0)), now=0.0)
        assert not calls  # 1 row < VECTOR_MIN_ROWS
        assert t.metric(0x10) == 2

    def test_large_packets_take_vector_path(self):
        t = ColumnarRoutingTable(ME)
        rows = entries(*[(0x100 + i, 2, 0) for i in range(ColumnarRoutingTable.VECTOR_MIN_ROWS)])
        changed = t.process_hello(0x99, rows, now=0.0)
        assert changed == len(rows)

    def test_duplicate_addresses_fall_back_to_scalar_order(self):
        t = ColumnarRoutingTable(ME)
        t.VECTOR_MIN_ROWS = 1
        # Second occurrence wins the follow-the-via update, like the
        # scalar loop processes rows in order.
        rows = entries((0x10, 5, 0), (0x10, 2, 0))
        t.process_hello(0x99, rows, now=0.0)
        assert t.metric(0x10) == 3

    def test_memo_replay_refreshes_slots_after_other_merges_are_isolated(self):
        t = ColumnarRoutingTable(ME, route_timeout=100.0)
        t.VECTOR_MIN_ROWS = 1
        rows = entries((0x10, 1, 0), (0x11, 1, 0))
        assert t.process_hello(0x99, rows, now=0.0) == 2
        assert t.process_hello(0x99, rows, now=10.0) == 0  # memoized no-op
        # The replayed refresh must keep the taught routes alive.
        assert t.purge(now=105.0) == []
        assert t.has_route(0x10) and t.has_route(0x11)


class TestCoversAll:
    def test_true_when_all_routed(self):
        t = ColumnarRoutingTable(ME)
        for address in (0x10, 0x20):
            t.heard_from(address, now=0.0)
        assert t.covers_all(as_address_array([ME, 0x10, 0x20]))

    def test_false_on_any_gap(self):
        t = ColumnarRoutingTable(ME)
        t.heard_from(0x10, now=0.0)
        assert not t.covers_all(as_address_array([ME, 0x10, 0x20]))

    def test_addresses_beyond_slot_map(self):
        t = ColumnarRoutingTable(ME)
        t.heard_from(0x10, now=0.0)
        assert not t.covers_all(as_address_array([ME, 0x10, 0xFFF0]))

    def test_own_address_counts_as_covered(self):
        t = ColumnarRoutingTable(ME)
        assert t.covers_all(as_address_array([ME]))


class TestMeshFingerprint:
    def test_whole_mesh_run_identical_scalar_vs_columnar(self):
        """End-to-end determinism: a full mesh run (placement, hellos,
        merges, convergence) produces bit-identical observables under
        either implementation — the integration-level guarantee behind
        the per-table equivalence suite."""
        from repro.net.api import MeshNetwork
        from repro.topology.placement import grid_positions

        def fingerprint(impl):
            config = MesherConfig(hello_period_s=60.0, routing_impl=impl)
            positions = grid_positions(4, 4, spacing_m=120.0)
            net = MeshNetwork.from_positions(
                positions, config=config, seed=7, trace_enabled=False
            )
            convergence = net.run_until_converged(timeout_s=3600.0, check_period_s=10.0)
            tables = tuple(
                tuple(
                    (d, node.table.next_hop(d), node.table.metric(d))
                    for d in sorted(node.table.destinations())
                )
                for node in net.nodes
            )
            return (convergence, net.total_frames_sent(), net.total_bytes_sent(), tables)

        assert fingerprint("scalar") == fingerprint("columnar")


class TestSnapshotMemo:
    def test_snapshot_memoized_until_version_changes(self):
        t = ColumnarRoutingTable(ME)
        t.heard_from(0x10, now=0.0)
        a = t.snapshot()
        b = t.snapshot()
        assert a == b and a is not b  # fresh list, cached rows
        t.heard_from(0x20, now=1.0)
        assert len(t.snapshot()) == 3

    def test_scalar_snapshot_also_memoized(self):
        t = RoutingTable(ME)
        t.heard_from(0x10, now=0.0)
        assert t.snapshot() == t.snapshot()
