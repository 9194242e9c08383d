"""Tests for the distance-vector routing table.

The whole module runs twice: once against the scalar reference and once
against the columnar (numpy) store, which must be observationally
identical.  ``VECTOR_MIN_ROWS`` is dropped to 1 so even the small
packets used here exercise the vectorized merge path.
"""

import pytest

from repro.net.packets import NodeRole, RoutingEntry
from repro.net.routing_table import RoutingTable

try:
    from repro.net.routing_store import ColumnarRoutingTable

    IMPLS = {"scalar": RoutingTable, "columnar": ColumnarRoutingTable}
except ImportError:  # numpy unavailable: scalar only
    IMPLS = {"scalar": RoutingTable}

_CLS = RoutingTable

ME = 0x0001
N1 = 0x0002  # neighbour 1
N2 = 0x0003  # neighbour 2
FAR = 0x0004  # two hops away


@pytest.fixture(params=sorted(IMPLS), autouse=True)
def _table_impl(request):
    global _CLS
    _CLS = IMPLS[request.param]
    yield
    _CLS = RoutingTable


def make(self_address, **kwargs):
    t = _CLS(self_address, **kwargs)
    if hasattr(t, "VECTOR_MIN_ROWS"):
        t.VECTOR_MIN_ROWS = 1
    return t


def table(**kwargs):
    return make(ME, **kwargs)


class TestHeardFrom:
    def test_neighbour_added_at_metric_one(self):
        t = table()
        t.heard_from(N1, now=0.0)
        entry = t.get(N1)
        assert entry is not None
        assert entry.metric == 1
        assert entry.via == N1
        assert entry.is_neighbour

    def test_self_never_added(self):
        t = table()
        t.heard_from(ME, now=0.0)
        assert t.size == 0

    def test_broadcast_never_added(self):
        t = table()
        t.heard_from(0xFFFF, now=0.0)
        assert t.size == 0

    def test_direct_route_replaces_multihop(self):
        t = table()
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=1)], now=0.0)
        assert t.metric(FAR) == 2
        t.heard_from(FAR, now=1.0)
        assert t.metric(FAR) == 1
        assert t.next_hop(FAR) == FAR

    def test_refresh_updates_timestamp(self):
        t = table(route_timeout=100.0)
        t.heard_from(N1, now=0.0)
        t.heard_from(N1, now=90.0)
        t.purge(now=150.0)  # 60 s since refresh: still alive
        assert t.has_route(N1)


class TestHelloMerge:
    def test_learns_distant_nodes_with_incremented_metric(self):
        t = table()
        changed = t.process_hello(N1, [RoutingEntry(address=FAR, metric=2)], now=0.0)
        assert changed >= 1
        assert t.metric(FAR) == 3
        assert t.next_hop(FAR) == N1

    def test_hello_source_becomes_neighbour(self):
        t = table()
        t.process_hello(N1, [], now=0.0)
        assert t.metric(N1) == 1

    def test_better_metric_wins(self):
        t = table()
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=3)], now=0.0)
        t.process_hello(N2, [RoutingEntry(address=FAR, metric=1)], now=1.0)
        assert t.metric(FAR) == 2
        assert t.next_hop(FAR) == N2

    def test_worse_metric_from_other_via_ignored(self):
        t = table()
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=1)], now=0.0)
        t.process_hello(N2, [RoutingEntry(address=FAR, metric=5)], now=1.0)
        assert t.metric(FAR) == 2
        assert t.next_hop(FAR) == N1

    def test_same_via_follows_metric_increase(self):
        # The current next hop's view worsened: follow it (RIP behaviour).
        t = table()
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=1)], now=0.0)
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=4)], now=1.0)
        assert t.metric(FAR) == 5
        assert t.next_hop(FAR) == N1

    def test_own_address_in_hello_skipped(self):
        t = table()
        t.process_hello(N1, [RoutingEntry(address=ME, metric=0)], now=0.0)
        assert not t.has_route(ME)

    def test_metric_cap_blocks_count_to_infinity(self):
        t = table(max_metric=4)
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=4)], now=0.0)
        assert not t.has_route(FAR)

    def test_snr_recorded_for_neighbour(self):
        t = table()
        t.process_hello(N1, [], now=0.0, snr_db=-3.5)
        assert t.get(N1).received_snr_db == -3.5

    def test_role_propagated(self):
        t = table()
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=1, role=int(NodeRole.GATEWAY))], now=0.0)
        assert t.get(FAR).role == int(NodeRole.GATEWAY)


class TestExpiry:
    def test_stale_routes_purged(self):
        t = table(route_timeout=100.0)
        t.heard_from(N1, now=0.0)
        removed = t.purge(now=101.0)
        assert [e.address for e in removed] == [N1]
        assert not t.has_route(N1)

    def test_fresh_routes_survive_purge(self):
        t = table(route_timeout=100.0)
        t.heard_from(N1, now=0.0)
        assert t.purge(now=99.0) == []
        assert t.has_route(N1)

    def test_remove_via_drops_all_dependent_routes(self):
        t = table()
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=1)], now=0.0)
        t.process_hello(N2, [], now=0.0)
        dropped = t.remove_via(N1)
        assert {e.address for e in dropped} == {N1, FAR}
        assert t.has_route(N2)


class TestLookupAndIteration:
    def test_next_hop_unknown_destination(self):
        assert table().next_hop(FAR) is None

    def test_contains_and_size(self):
        t = table()
        t.heard_from(N1, now=0.0)
        assert N1 in t
        assert FAR not in t
        assert t.size == 1

    def test_iteration_sorted_by_address(self):
        t = table()
        t.heard_from(N2, now=0.0)
        t.heard_from(N1, now=0.0)
        assert [e.address for e in t] == [N1, N2]

    def test_neighbours_listed(self):
        t = table()
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=1)], now=0.0)
        assert t.neighbours() == [N1]
        assert t.destinations() == [N1, FAR]


class TestCoversAll:
    """The one question ``MeshNetwork.converged()`` asks every table."""

    def test_true_when_all_routed(self):
        t = table()
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=1)], now=0.0)
        assert t.covers_all([ME, N1, FAR])

    def test_false_on_any_gap(self):
        t = table()
        t.heard_from(N1, now=0.0)
        assert not t.covers_all([ME, N1, FAR])
        assert not t.covers_all([0xFFF0])

    def test_own_address_counts_as_covered(self):
        assert table().covers_all([ME])


class TestSnapshot:
    def test_snapshot_advertises_self_at_metric_zero(self):
        t = table()
        rows = t.snapshot()
        assert rows[0] == RoutingEntry(address=ME, metric=0, role=0)

    def test_snapshot_includes_all_routes(self):
        t = table()
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=1)], now=0.0)
        rows = t.snapshot()
        advertised = {address: metric for address, metric, _role in rows}
        assert advertised == {ME: 0, N1: 1, FAR: 2}

    def test_snapshot_role_flag(self):
        rows = table().snapshot(self_role=int(NodeRole.GATEWAY))
        assert rows[0].role == int(NodeRole.GATEWAY)

    def test_two_tables_converge_via_snapshots(self):
        # A miniature two-node exchange: tables teach each other.
        ta = make(0x000A)
        tb = make(0x000B)
        tb.heard_from(0x000C, now=0.0)  # B knows C
        ta.process_hello(0x000B, tb.snapshot()[1:], now=1.0)
        assert ta.metric(0x000B) == 1
        assert ta.metric(0x000C) == 2


class TestChangeHook:
    def test_hook_sees_adds_updates_removes(self):
        events = []
        t = make(ME, route_timeout=100.0, on_change=lambda k, e: events.append((k, e.address)))
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=3)], now=0.0)
        t.process_hello(N2, [RoutingEntry(address=FAR, metric=1)], now=1.0)
        t.purge(now=500.0)
        kinds = [k for k, _ in events]
        assert "added" in kinds
        assert "updated" in kinds
        assert "removed" in kinds


class TestValidation:
    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError):
            make(ME, route_timeout=0.0)

    def test_bad_max_metric_rejected(self):
        with pytest.raises(ValueError):
            make(ME, max_metric=0)
        with pytest.raises(ValueError):
            make(ME, max_metric=256)

    def test_format_renders_all_routes(self):
        t = table()
        t.heard_from(N1, now=0.0)
        text = t.format()
        assert "0002" in text
        assert "metric=1" in text


class TestMergeMemoEviction:
    """Regression: the no-op merge memo must not grow without bound in
    mobile scenarios (ISSUE 5 satellite)."""

    def _noop_hello(self, t, src, now):
        """Two identical merges: the second is a no-op and lands a memo."""
        entries = (RoutingEntry(address=FAR, metric=1),)
        t.process_hello(src, entries, now=now)
        t.process_hello(src, entries, now=now)
        return entries

    def test_memo_evicted_when_neighbour_route_expires(self):
        t = make(ME, route_timeout=100.0)
        self._noop_hello(t, N1, now=0.0)
        assert N1 in t._merge_memo
        t.purge(now=500.0)
        assert N1 not in t._merge_memo

    def test_memo_evicted_on_remove_via(self):
        t = table()
        self._noop_hello(t, N1, now=0.0)
        assert N1 in t._merge_memo
        t.remove_via(N1)
        assert N1 not in t._merge_memo

    def test_memo_capped_under_neighbour_churn(self):
        from repro.net.routing_table import _MERGE_MEMO_MAX

        t = RoutingTable(ME, route_timeout=10_000.0)
        # A long parade of transient neighbours, each leaving a no-op
        # memo behind and never expiring within the run.
        for i in range(4 * _MERGE_MEMO_MAX):
            src = 0x1000 + i
            entries = (RoutingEntry(address=FAR, metric=1),)
            t.process_hello(src, entries, now=float(i))
            t.process_hello(src, entries, now=float(i))
        assert len(t._merge_memo) <= _MERGE_MEMO_MAX

    def test_memo_still_correct_after_eviction(self):
        # Eviction must only cost performance, never change merge results.
        t = table()
        entries = (RoutingEntry(address=FAR, metric=1),)
        t.process_hello(N1, entries, now=0.0)
        t.process_hello(N1, entries, now=1.0)  # memoized no-op
        t._merge_memo.clear()  # simulate eviction
        assert t.process_hello(N1, entries, now=2.0) == 0
        assert t.get(FAR).updated_at == 2.0
