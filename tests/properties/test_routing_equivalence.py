"""Scalar/columnar routing-table equivalence (hypothesis).

The columnar store must be observationally identical to the scalar
reference: same return values, same version counters, same change events
in the same order, same table contents.  Random operation streams —
hello merges (with and without duplicate addresses), direct sightings,
purges and neighbour withdrawals — are replayed against both
implementations and every observable compared after each step.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.net.packets import RoutingEntry
from repro.net.routing_table import RoutingTable
from repro.net.routing_store import ColumnarRoutingTable

SELF = 0x0050

addresses = st.integers(min_value=1, max_value=0x00FF)
roles = st.integers(min_value=0, max_value=3)
metrics = st.integers(min_value=0, max_value=20)
snrs = st.one_of(st.none(), st.integers(min_value=-20, max_value=12).map(float))

entry_rows = st.tuples(addresses, metrics, roles)


def _entries(rows):
    return tuple(RoutingEntry.from_row(row) for row in rows)


hello_ops = st.tuples(
    st.just("hello"),
    addresses,
    st.lists(entry_rows, min_size=0, max_size=20).map(_entries),
    snrs,
)
heard_ops = st.tuples(st.just("heard"), addresses, roles, snrs)
purge_ops = st.tuples(st.just("purge"), st.just(0), st.just(0), st.just(0))
remove_ops = st.tuples(st.just("remove_via"), addresses, st.just(0), st.just(0))
set_ops = st.tuples(st.just("set_route"), addresses, addresses, metrics)

op_streams = st.lists(
    st.one_of(hello_ops, heard_ops, purge_ops, remove_ops, set_ops),
    min_size=1,
    max_size=40,
)


def _norm_snr(value):
    if value is None:
        return None
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _event_key(kind, entry):
    return (
        kind,
        entry.address,
        entry.via,
        entry.metric,
        entry.role,
        entry.updated_at,
        _norm_snr(entry.received_snr_db),
    )


def _dump(table):
    rows = []
    for entry in (table.get(address) for address in table.destinations()):
        rows.append(
            (
                entry.address,
                entry.via,
                entry.metric,
                entry.role,
                entry.updated_at,
                _norm_snr(entry.received_snr_db),
            )
        )
    return rows


def _run_pair(ops, *, snr_tiebreak_db=None, route_timeout=50.0):
    scalar_events, columnar_events = [], []
    scalar = RoutingTable(
        SELF,
        route_timeout=route_timeout,
        max_metric=16,
        snr_tiebreak_db=snr_tiebreak_db,
        on_change=lambda kind, entry: scalar_events.append(_event_key(kind, entry)),
    )
    columnar = ColumnarRoutingTable(
        SELF,
        route_timeout=route_timeout,
        max_metric=16,
        snr_tiebreak_db=snr_tiebreak_db,
        on_change=lambda kind, entry: columnar_events.append(_event_key(kind, entry)),
    )
    # Force the vector path for every unique-address packet, however small.
    columnar.VECTOR_MIN_ROWS = 1
    now = 0.0
    for op, a, b, c in ops:
        now += 3.0
        if op == "hello":
            # The same entries tuple goes to both tables so the identity
            # -keyed merge memo sees identical stimuli.
            assert scalar.process_hello(a, b, now, snr_db=c) == columnar.process_hello(
                a, b, now, snr_db=c
            )
        elif op == "heard":
            scalar.heard_from(a, now, role=b, snr_db=c)
            columnar.heard_from(a, now, role=b, snr_db=c)
        elif op == "purge":
            assert scalar.purge(now) == columnar.purge(now)
        elif op == "remove_via":
            assert scalar.remove_via(a) == columnar.remove_via(a)
        elif op == "set_route":
            scalar.set_route(a, b, max(1, c), 0, now)
            columnar.set_route(a, b, max(1, c), 0, now)
        assert scalar.version == columnar.version
        assert scalar.size == columnar.size
        assert scalar.snapshot() == columnar.snapshot()
    assert scalar_events == columnar_events
    assert _dump(scalar) == _dump(columnar)
    # The advertised rows mirror the live table.
    live = [(address, metric, role) for address, _via, metric, role, _at, _snr in _dump(scalar)]
    assert scalar.snapshot(self_role=1) == [(SELF, 0, 1)] + live
    assert list(scalar.destinations()) == list(columnar.destinations())
    assert sorted(scalar.neighbours()) == sorted(columnar.neighbours())
    for address in scalar.destinations():
        assert scalar.next_hop(address) == columnar.next_hop(address)
        assert scalar.metric(address) == columnar.metric(address)


@settings(max_examples=120, deadline=None)
@given(op_streams)
def test_equivalent_without_tiebreak(ops):
    _run_pair(ops)


@settings(max_examples=80, deadline=None)
@given(op_streams)
def test_equivalent_with_snr_tiebreak(ops):
    _run_pair(ops, snr_tiebreak_db=3.0)


@settings(max_examples=60, deadline=None)
@given(op_streams)
def test_equivalent_with_fast_expiry(ops):
    _run_pair(ops, route_timeout=7.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(addresses, st.lists(entry_rows, min_size=2, max_size=12)),
        min_size=1,
        max_size=12,
    )
)
def test_equivalent_with_duplicate_addresses(batches):
    """Packets carrying the same destination twice take the scalar
    fallback inside the columnar store; outcomes must still match."""
    ops = []
    for src, rows in batches:
        doubled = rows + rows[:1]  # guarantee at least one duplicate
        ops.append(("hello", src, _entries(doubled), None))
    _run_pair(ops)


def test_replaying_same_packet_is_memoized_identically():
    scalar = RoutingTable(SELF, route_timeout=100.0)
    columnar = ColumnarRoutingTable(SELF, route_timeout=100.0)
    columnar.VECTOR_MIN_ROWS = 1
    entries = _entries([(2, 1, 0), (3, 2, 0), (4, 3, 1)])
    for table in (scalar, columnar):
        assert table.process_hello(9, entries, 10.0) == 3
        assert table.process_hello(9, entries, 20.0) == 0  # memo replay
    assert _dump(scalar) == _dump(columnar)
    # The replay must still refresh timestamps (routes survive past the
    # original expiry).
    assert scalar.purge(105.0) == columnar.purge(105.0) == []
