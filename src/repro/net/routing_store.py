"""Columnar (numpy-backed) distance-vector routing store.

The scalar :class:`repro.net.routing_table.RoutingTable` keeps one
Python ``RouteEntry`` object per destination and merges received hellos
row by row.  That loop is the protocol plane's hot spot at scale: a
converging n=1000 mesh performs tens of millions of per-row merge
visits, each a dict probe plus a handful of attribute loads.

:class:`ColumnarRoutingTable` keeps the same table as aligned dense
numpy columns over slots ``[0, count)``::

    _addr     int64    destination address
    _via      int64    next hop
    _metric   int64    hop count
    _role     int64    advertised role bits
    _updated  float64  last refresh time
    _snr      float64  hello SNR of the teaching packet (NaN = unknown)
    _order    int64    monotonic insertion stamp (dict-order replay)

plus ``_slots``, a direct-map address -> slot index (-1 absent, -2 the
node's own address, which is never stored).  Deletion swaps the last
row into the freed slot, so the columns stay dense; ``_order`` lets
``purge``/``remove_via`` report removals in the insertion order the
scalar dict produced.

Merging a received hello becomes one vectorized compare-and-update over
the packet's column view (:class:`PacketColumns`):
candidate metric = advertised + 1; adopt where new, strictly better, or
current-via == sender; the ``max_metric`` cap and broadcast-row masks
are applied once per (packet, cap) pair.  Two cases fall back to a
per-row loop because the scalar semantics are order-dependent inside a
single packet: payloads carrying duplicate addresses, and tables with
the SNR tie-break enabled (an early row can replace the via-entry whose
SNR a later row's tie-break reads).

Every observable semantic of the scalar table is preserved exactly —
``version``/``_snr_version`` bump rules, the per-neighbour no-op merge
memo (here remembering *slot indices*, valid because slots cannot move
without a version bump), change-hook event kinds/values/order, purge
expiry, and ``snapshot()`` row order.  The equivalence suite in
``tests/properties/test_routing_equivalence.py`` asserts this over
random operation streams; ``make_routing_table`` selects the
implementation (config ``routing_impl`` / env ``REPRO_ROUTING_IMPL``).

One observable difference is documented and deliberate: entries
returned by lookups are *materialized copies* of the column row, so
mutating them does not write back to the table (use ``set_route``).
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.net.addresses import BROADCAST_ADDRESS, format_address
from repro.net.packets import Row, RoutingEntry
from repro.net.routing_table import _DEFAULT_ROLE, _MERGE_MEMO_MAX, ChangeHook, RouteEntry

logger = logging.getLogger(__name__)

#: NaN encodes "no measured SNR" (the scalar table's ``None``).
_NAN = float("nan")

_EMPTY_SLOTS = np.empty(0, dtype=np.int64)


#: Id-keyed memo of the column view of a hello's rows tuple.  Rows
#: tuples are shared by every receiver of a frame (decode memo) and
#: across beacons while the sender's table is stable (hello build
#: cache), so the columns are built once per distinct packet.  Each
#: value pins the rows tuple so its id cannot be recycled while the
#: memo entry lives.
_COLUMNS_CACHE: dict = {}
_COLUMNS_CACHE_MAX = 65_536


class PacketColumns:
    """Column view of a ROUTING payload for the vectorized DV merge.

    ``addr``/``cand``/``role`` are aligned int64 arrays over the packet
    rows, with ``cand`` already the candidate metric (advertised + 1);
    ``role_of`` maps each address to the role of its first row.
    ``filtered(max_metric)`` applies the broadcast-address and metric-cap
    masks once per (packet, max_metric) pair — every receiver with the
    same cap shares the result.  Row order is preserved so notification
    order matches the scalar per-row loop.
    """

    __slots__ = ("addr", "cand", "role", "role_of", "has_dups", "_filtered")

    def __init__(self, addr, cand, role, role_of: dict, has_dups: bool) -> None:
        self.addr = addr
        self.cand = cand
        self.role = role
        self.role_of = role_of
        self.has_dups = has_dups
        self._filtered: dict = {}

    @classmethod
    def from_rows(cls, rows) -> "PacketColumns":
        n = len(rows)
        mat = np.array(rows, dtype=np.int64).reshape(n, 3)
        addr = np.ascontiguousarray(mat[:, 0])
        cand = mat[:, 1] + 1
        role = np.ascontiguousarray(mat[:, 2])
        role_of: dict = {}
        setdefault = role_of.setdefault
        for address, _metric, row_role in rows:
            setdefault(address, row_role)
        return cls(addr, cand, role, role_of, len(role_of) != n)

    def filtered(self, max_metric: int, src: int) -> tuple:
        """``(addr, cand, role, max_addr, nsrc)`` with rows beyond
        ``max_metric`` or addressed to broadcast masked out, plus the
        ``addr != src`` mask; memoized per (cap, sender).  A broadcast
        hello is decoded once and merged by every receiver with the same
        cap and sender, so the masks are computed once per transmission."""
        key = (max_metric, src)
        hit = self._filtered.get(key)
        if hit is None:
            keep = (self.cand <= max_metric) & (self.addr != BROADCAST_ADDRESS)
            if keep.all():
                addr, cand, role = self.addr, self.cand, self.role
            else:
                addr = self.addr[keep]
                cand = self.cand[keep]
                role = self.role[keep]
            max_addr = int(addr.max()) if addr.shape[0] else 0
            hit = (addr, cand, role, max_addr, addr != src)
            self._filtered[key] = hit
        return hit


def columns_of(rows) -> PacketColumns:
    """The :class:`PacketColumns` view of a hello's rows, built on first
    use and memoized for tuples (lists may be mutated between merges)."""
    if type(rows) is not tuple:
        return PacketColumns.from_rows(rows)
    hit = _COLUMNS_CACHE.get(id(rows))
    if hit is not None and hit[0] is rows:
        return hit[1]
    columns = PacketColumns.from_rows(rows)
    if len(_COLUMNS_CACHE) >= _COLUMNS_CACHE_MAX:
        _COLUMNS_CACHE.clear()
    _COLUMNS_CACHE[id(rows)] = (rows, columns)
    return columns


def as_address_array(addresses):
    """Int64 array view of an address sequence (for ``covers_all``)."""
    return np.asarray(addresses, dtype=np.int64)


class ColumnarRoutingTable:
    """Drop-in columnar replacement for ``RoutingTable`` (see module doc)."""

    #: Packets with fewer (post-mask) rows than this merge via the
    #: per-row loop: numpy call overhead beats the loop only once a
    #: packet carries a dozen or so rows.  Measured on the steady-state
    #: no-op merge: scalar wins through 12 rows (33 vs 36 us/packet),
    #: vector wins from 16 (36 vs 41) out to the 62-row full hello
    #: payload (74 vs 101) — the crossover sits at ~14.  Tests lower it
    #: to force the vector path on small payloads.
    VECTOR_MIN_ROWS = 14

    def __init__(
        self,
        self_address: int,
        *,
        route_timeout: float = 600.0,
        max_metric: int = 16,
        snr_tiebreak_db: Optional[float] = None,
        on_change: Optional[ChangeHook] = None,
    ) -> None:
        if route_timeout <= 0:
            raise ValueError("route_timeout must be positive")
        if not 1 <= max_metric <= 255:
            raise ValueError("max_metric must be in [1, 255]")
        if snr_tiebreak_db is not None and snr_tiebreak_db < 0:
            raise ValueError("snr_tiebreak_db must be >= 0")
        self.self_address = self_address
        self.route_timeout = route_timeout
        self.max_metric = max_metric
        self.snr_tiebreak_db = snr_tiebreak_db
        self._on_change = on_change
        self._version: int = 0
        self._snr_version: int = 0
        self._merge_memo: Dict[int, tuple] = {}
        # neighbour -> (version, snr_version, slot, role, snr): the
        # steady-state heard_from refresh validated against both version
        # counters, so a hit needs zero numpy scalar reads.  Any via/
        # metric/role change bumps _version and any SNR change bumps
        # _snr_version, so a stale slot can never validate.  Bounded by
        # the neighbour degree (one entry per heard address).
        self._direct_memo: Dict[int, tuple] = {}
        cap = 8
        self._addr = np.empty(cap, dtype=np.int64)
        self._via = np.empty(cap, dtype=np.int64)
        self._metric = np.empty(cap, dtype=np.int64)
        self._role = np.empty(cap, dtype=np.int64)
        self._updated = np.empty(cap, dtype=np.float64)
        self._snr = np.empty(cap, dtype=np.float64)
        self._order = np.empty(cap, dtype=np.int64)
        self._count: int = 0
        self._next_order: int = 0
        slots_len = max(64, self_address + 1)
        self._slots = np.full(slots_len, -1, dtype=np.int64)
        self._slots[self_address] = -2  # own address is never stored
        # Memos: sorted-slot order keyed on the address set revision,
        # snapshot keyed on (version, self_role).
        self._addr_revision: int = 0
        self._sorted_cache: Optional[tuple] = None
        self._snapshot_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Storage plumbing
    # ------------------------------------------------------------------
    def _grow_columns(self, needed: int) -> None:
        cap = self._addr.shape[0]
        while cap < needed:
            cap *= 2
        count = self._count
        for name in ("_addr", "_via", "_metric", "_role", "_updated", "_snr", "_order"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[:count] = old[:count]
            setattr(self, name, new)

    def _grow_slots(self, max_addr: int) -> None:
        size = self._slots.shape[0]
        new_size = min(0x10000, max(size * 2, max_addr + 1))
        new = np.full(new_size, -1, dtype=np.int64)
        new[:size] = self._slots
        self._slots = new

    def _slot_of(self, address: int) -> int:
        if 0 <= address < self._slots.shape[0]:
            return self._slots.item(address)
        return -1

    def _append_row(
        self, address: int, via: int, metric: int, role: int, now: float, snr: float
    ) -> int:
        slot = self._count
        if slot >= self._addr.shape[0]:
            self._grow_columns(slot + 1)
        if address >= self._slots.shape[0]:
            self._grow_slots(address)
        self._addr[slot] = address
        self._via[slot] = via
        self._metric[slot] = metric
        self._role[slot] = role
        self._updated[slot] = now
        self._snr[slot] = snr
        self._order[slot] = self._next_order
        self._next_order += 1
        self._slots[address] = slot
        self._count = slot + 1
        self._addr_revision += 1
        return slot

    def _remove_address(self, address: int) -> None:
        slot = int(self._slots[address])
        last = self._count - 1
        if slot != last:
            for col in (self._addr, self._via, self._metric, self._role, self._updated, self._snr, self._order):
                col[slot] = col[last]
            self._slots[self._addr[slot]] = slot
        self._slots[address] = -1
        self._count = last
        self._addr_revision += 1

    def _materialize(self, slot: int) -> RouteEntry:
        snr = self._snr.item(slot)
        return RouteEntry(
            address=self._addr.item(slot),
            via=self._via.item(slot),
            metric=self._metric.item(slot),
            role=self._role.item(slot),
            updated_at=self._updated.item(slot),
            received_snr_db=None if snr != snr else snr,
        )

    def _materialize_many(self, slots) -> List[RouteEntry]:
        """Materialize several slots with batched column gathers —
        one ``tolist`` per column instead of six scalar reads per row."""
        addr = self._addr[slots].tolist()
        via = self._via[slots].tolist()
        metric = self._metric[slots].tolist()
        role = self._role[slots].tolist()
        updated = self._updated[slots].tolist()
        snr = self._snr[slots].tolist()
        return [
            RouteEntry(addr[i], via[i], metric[i], role[i], updated[i], None if s != s else s)
            for i, s in enumerate(snr)
        ]

    def _notify(self, kind: str, entry: RouteEntry) -> None:
        self._version += 1
        if self._on_change is not None:
            self._on_change(kind, entry)

    def _notify_slot(self, kind: str, slot: int) -> None:
        """Version bump + hook for a live slot, materializing the entry
        copy only when someone is listening."""
        self._version += 1
        hook = self._on_change
        if hook is not None:
            hook(kind, self._materialize(slot))

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def heard_from(
        self, neighbour: int, now: float, *, role: int = _DEFAULT_ROLE, snr_db: Optional[float] = None
    ) -> None:
        """Refresh the direct route to a neighbour we just heard."""
        if neighbour == self.self_address or neighbour == BROADCAST_ADDRESS:
            return
        memo = self._direct_memo.get(neighbour)
        if memo is not None and memo[0] == self._version and memo[1] == self._snr_version:
            # Steady state: the slot is still the direct route (any
            # via/metric change would have bumped a version), and the
            # cached role/SNR mirror the row, so the refresh needs only
            # the _updated write — no numpy scalar reads at all.
            slot, cur_role, cur_snr = memo[2], memo[3], memo[4]
            if role and role != cur_role:
                self._role[slot] = role
                self._version += 1
                cur_role = role
            self._updated[slot] = now
            if snr_db is None:
                if cur_snr == cur_snr:  # had a value, now unknown
                    self._snr_version += 1
                    self._snr[slot] = _NAN
                    cur_snr = _NAN
            elif cur_snr != snr_db:  # NaN != value is also a change
                self._snr_version += 1
                self._snr[slot] = snr_db
                cur_snr = snr_db
            self._direct_memo[neighbour] = (
                self._version, self._snr_version, slot, cur_role, cur_snr
            )
            return
        slots = self._slots
        slot = slots.item(neighbour) if neighbour < slots.shape[0] else -1
        if slot >= 0 and self._via.item(slot) == neighbour and self._metric.item(slot) == 1:
            # Already the direct route but the memo went stale (another
            # table change bumped a version): refresh in place and
            # re-prime the memo for the next packet.
            cur_role = self._role.item(slot)
            if role and role != cur_role:
                self._role[slot] = role
                self._version += 1
                cur_role = role
            self._updated[slot] = now
            cur_snr = self._snr.item(slot)
            if snr_db is None:
                if cur_snr == cur_snr:  # had a value, now unknown
                    self._snr_version += 1
                    self._snr[slot] = _NAN
                    cur_snr = _NAN
            elif cur_snr != snr_db:  # NaN != value is also a change
                self._snr_version += 1
                self._snr[slot] = snr_db
                cur_snr = snr_db
            self._direct_memo[neighbour] = (
                self._version, self._snr_version, slot, cur_role, cur_snr
            )
            return
        snr = _NAN if snr_db is None else snr_db
        if slot < 0:
            slot = self._append_row(neighbour, neighbour, 1, role, now, snr)
            self._notify_slot("added", slot)
            self._direct_memo[neighbour] = (
                self._version, self._snr_version, slot, role, snr
            )
            return
        # Existing multi-hop route becomes direct: overwrite in place
        # (keeps the insertion stamp, matching dict key-overwrite order).
        self._via[slot] = neighbour
        self._metric[slot] = 1
        new_role = role or int(self._role[slot])
        self._role[slot] = new_role
        self._updated[slot] = now
        self._snr[slot] = snr
        self._notify_slot("updated", slot)
        self._direct_memo[neighbour] = (
            self._version, self._snr_version, slot, new_role, snr
        )

    def process_hello(
        self,
        src: int,
        rows,
        now: float,
        *,
        snr_db: Optional[float] = None,
    ) -> int:
        """Merge a neighbour's ROUTING rows. Returns routes changed."""
        if src == self.self_address or src == BROADCAST_ADDRESS:
            return 0
        if not isinstance(rows, (tuple, list)):
            rows = list(rows)
        columns = columns_of(rows)
        self.heard_from(src, now, role=columns.role_of.get(src, _DEFAULT_ROLE), snr_db=snr_db)
        memo = self._merge_memo.get(src)
        if (
            memo is not None
            and memo[0] is rows
            and memo[1] == self._version
            and memo[2] == self._snr_version
        ):
            # Same packet object against an unchanged table: replay the
            # recorded no-op.  The memo holds slot indices, which cannot
            # have moved while the version stayed put (every add/remove
            # bumps it).
            self._updated[memo[3]] = now
            return 0
        if self.snr_tiebreak_db is not None or columns.has_dups:
            # Order-dependent inside a single packet; keep the exact
            # scalar row loop.
            changed, refreshed = self._merge_rows_scalar(src, rows, now)
        else:
            addr, cand, role, max_addr, nsrc = columns.filtered(self.max_metric, src)
            if addr.shape[0] < self.VECTOR_MIN_ROWS:
                changed, refreshed = self._merge_rows_scalar(src, rows, now)
            else:
                changed, refreshed = self._merge_rows_vector(
                    src, addr, cand, role, nsrc, max_addr, now
                )
        if changed == 0:
            memo_table = self._merge_memo
            if src not in memo_table and len(memo_table) >= _MERGE_MEMO_MAX:
                for key in list(memo_table)[: _MERGE_MEMO_MAX // 2]:
                    del memo_table[key]
            memo_table[src] = (rows, self._version, self._snr_version, refreshed)
        return changed

    #: Below this many changed rows a merge applies them with the scalar
    #: per-row path: the bulk masked writes + batched event emission have
    #: ~20 numpy calls of fixed overhead, which only pays off once enough
    #: rows amortize it.
    SMALL_CHANGE_ROWS = 4

    def _merge_rows_vector(self, src: int, addr, cand, role, nsrc, max_addr: int, now: float):
        """One vectorized compare-and-update over unique-address rows.

        Only called when the tie-break is off and the packet has no
        duplicate addresses, so rows are independent and masks decide
        everything the scalar loop decided row by row.
        """
        slot_map = self._slots
        if max_addr >= slot_map.shape[0]:
            self._grow_slots(max_addr)
            slot_map = self._slots
        metric_col = self._metric
        role_col = self._role
        slots = slot_map.take(addr)
        # Clipped gathers: negative slots (missing rows at -1, the own
        # address at -2) read row 0; the ``ex`` mask decides validity.
        cur_metric = metric_col.take(slots, mode="clip")
        cur_via = self._via.take(slots, mode="clip")
        cur_role = role_col.take(slots, mode="clip")
        ex = slots >= 0
        ex &= nsrc
        better = cand < cur_metric
        better &= ex
        follow = cur_via == src
        follow &= ex
        follow &= ~better
        follow_slots = slots[follow]
        # Follow-the-via rows always refresh their timestamp.
        self._updated[follow_slots] = now
        diff = cur_metric != cand
        diff |= cur_role != role
        meaningful = follow & diff
        changed_mask = better | meaningful
        new = slots == -1
        # count_nonzero is ~3x cheaper than .any() at packet sizes, and
        # the change path needs both counts anyway.
        n_changed_rows = int(np.count_nonzero(changed_mask))
        n_new = int(np.count_nonzero(new))
        if n_changed_rows + n_new == 0:
            return 0, follow_slots
        changed_positions = np.nonzero(changed_mask)[0]
        new_positions = np.nonzero(new)[0]
        if n_changed_rows + n_new <= self.SMALL_CHANGE_ROWS:
            return (
                self._apply_small_change(
                    src,
                    addr,
                    cand,
                    role,
                    slots,
                    better,
                    changed_positions.tolist(),
                    new_positions.tolist(),
                    now,
                ),
                follow_slots,
            )
        # --- apply column writes -------------------------------------
        # Non-meaningful follow rows carry identical metric/role values,
        # so only the meaningful subset needs the value writes.
        meaningful_slots = slots[meaningful]
        metric_col[meaningful_slots] = cand[meaningful]
        role_col[meaningful_slots] = role[meaningful]
        better_slots = slots[better]
        if better_slots.shape[0]:
            self._via[better_slots] = src
            metric_col[better_slots] = cand[better]
            role_col[better_slots] = role[better]
            self._updated[better_slots] = now
            self._snr[better_slots] = _NAN
        if n_new:
            base = self._count
            if base + n_new > self._addr.shape[0]:
                self._grow_columns(base + n_new)
            new_slots = np.arange(base, base + n_new, dtype=np.int64)
            new_addr = addr[new]
            self._addr[new_slots] = new_addr
            self._via[new_slots] = src
            self._metric[new_slots] = cand[new]
            self._role[new_slots] = role[new]
            self._updated[new_slots] = now
            self._snr[new_slots] = _NAN
            self._order[new_slots] = np.arange(
                self._next_order, self._next_order + n_new, dtype=np.int64
            )
            self._next_order += n_new
            self._slots[new_addr] = new_slots
            self._count = base + n_new
            self._addr_revision += 1
        # --- emit change events in packet-row order ------------------
        # The entries carry final values either way (addresses are
        # unique, so later rows never touch an earlier row's entry).
        changed_slots = slots[changed_mask]
        if n_new:
            all_positions = np.concatenate([changed_positions, new_positions])
            all_slots = np.concatenate([changed_slots, new_slots])
            added = np.concatenate(
                [np.zeros(changed_positions.shape[0], dtype=bool), np.ones(n_new, dtype=bool)]
            )
            order = np.argsort(all_positions, kind="stable")
            all_slots = all_slots[order]
            added = added[order].tolist()
        else:
            all_slots = changed_slots
            added = None
        hook = self._on_change
        n_changed = all_slots.shape[0]
        if hook is None:
            # No observer: the per-change version bumps are the only
            # observable effect, so skip materializing entry copies.
            self._version += n_changed
            return n_changed, follow_slots
        entries = self._materialize_many(all_slots)
        if added is None:
            for entry in entries:
                self._version += 1
                hook("updated", entry)
        else:
            for i, entry in enumerate(entries):
                self._version += 1
                hook("added" if added[i] else "updated", entry)
        return n_changed, follow_slots

    def _apply_small_change(
        self, src, addr, cand, role, slots, better, changed_positions, new_positions, now
    ):
        """Row-at-a-time application for merges that changed only a few
        rows — the common steady-state case, where per-row ``.item()``
        reads beat another ~20 fixed-cost array operations.

        ``changed_positions``/``new_positions`` are ascending; the merge
        walks them in packet-row order so notification order matches the
        bulk path and the scalar loop exactly."""
        changed = 0
        ci = ni = 0
        n_c, n_n = len(changed_positions), len(new_positions)
        while ci < n_c or ni < n_n:
            if ni >= n_n or (ci < n_c and changed_positions[ci] < new_positions[ni]):
                pos = changed_positions[ci]
                ci += 1
                slot = slots.item(pos)
                self._metric[slot] = cand.item(pos)
                self._role[slot] = role.item(pos)
                if better.item(pos):
                    self._via[slot] = src
                    self._updated[slot] = now
                    self._snr[slot] = _NAN
                self._notify_slot("updated", slot)
            else:
                pos = new_positions[ni]
                ni += 1
                slot = self._append_row(
                    addr.item(pos), src, cand.item(pos), role.item(pos), now, _NAN
                )
                self._notify_slot("added", slot)
            changed += 1
        return changed

    def _merge_rows_scalar(self, src: int, rows, now: float):
        """Exact port of the scalar per-row merge loop (order-sensitive
        fallback; also used below the vector row threshold)."""
        changed = 0
        refreshed: List[int] = []
        self_addr = self.self_address
        max_metric = self.max_metric
        tiebreak = self.snr_tiebreak_db is not None
        for address, adv_metric, role in rows:
            if address == self_addr or address == BROADCAST_ADDRESS or address == src:
                continue
            metric = adv_metric + 1
            if metric > max_metric:
                continue
            slot = self._slot_of(address)
            if slot < 0:
                slot = self._append_row(address, src, metric, role, now, _NAN)
                self._notify_slot("added", slot)
                changed += 1
            elif metric < self._metric[slot]:
                self._via[slot] = src
                self._metric[slot] = metric
                self._role[slot] = role
                self._updated[slot] = now
                self._snr[slot] = _NAN
                self._notify_slot("updated", slot)
                changed += 1
            elif self._via[slot] == src:
                meaningful = self._metric[slot] != metric or self._role[slot] != role
                self._metric[slot] = metric
                self._role[slot] = role
                self._updated[slot] = now
                refreshed.append(slot)
                if meaningful:
                    self._notify_slot("updated", slot)
                    changed += 1
            elif tiebreak and metric == self._metric[slot] and self._stronger_first_hop(src, int(self._via[slot])):
                self._via[slot] = src
                self._metric[slot] = metric
                self._role[slot] = role
                self._updated[slot] = now
                self._snr[slot] = _NAN
                self._notify_slot("updated", slot)
                changed += 1
        return changed, np.array(refreshed, dtype=np.int64) if refreshed else _EMPTY_SLOTS

    def _merge_candidate(self, address: int, via: int, metric: int, role: int, now: float) -> bool:
        """Single-candidate merge, API parity with the scalar table."""
        slot = self._slot_of(address)
        if slot < 0:
            slot = self._append_row(address, via, metric, role, now, _NAN)
            self._notify_slot("added", slot)
            return True
        if metric < self._metric[slot]:
            self._via[slot] = via
            self._metric[slot] = metric
            self._role[slot] = role
            self._updated[slot] = now
            self._snr[slot] = _NAN
            self._notify_slot("updated", slot)
            return True
        if self._via[slot] == via:
            meaningful = self._metric[slot] != metric or self._role[slot] != role
            self._metric[slot] = metric
            self._role[slot] = role
            self._updated[slot] = now
            if meaningful:
                self._notify_slot("updated", slot)
            return meaningful
        if metric == self._metric[slot] and self._stronger_first_hop(via, int(self._via[slot])):
            self._via[slot] = via
            self._metric[slot] = metric
            self._role[slot] = role
            self._updated[slot] = now
            self._snr[slot] = _NAN
            self._notify_slot("updated", slot)
            return True
        return False

    def set_route(
        self,
        address: int,
        via: int,
        metric: int,
        role: int = _DEFAULT_ROLE,
        now: float = 0.0,
    ) -> None:
        """Install or overwrite a route unconditionally.

        The oracle baselines use this to force their precomputed
        shortest paths into the table; notifies only on actual change.
        """
        slot = self._slot_of(address)
        if slot < 0:
            slot = self._append_row(address, via, metric, role, now, _NAN)
            self._notify_slot("added", slot)
            return
        changed = (
            self._via[slot] != via or self._metric[slot] != metric or self._role[slot] != role
        )
        self._via[slot] = via
        self._metric[slot] = metric
        self._role[slot] = role
        self._updated[slot] = now
        if changed:
            self._notify_slot("updated", slot)

    def _stronger_first_hop(self, candidate_via: int, current_via: int) -> bool:
        if self.snr_tiebreak_db is None:
            return False
        cand_slot = self._slot_of(candidate_via)
        if cand_slot < 0:
            return False
        cand_snr = float(self._snr[cand_slot])
        if cand_snr != cand_snr:  # NaN: no measured SNR
            return False
        cur_slot = self._slot_of(current_via)
        if cur_slot < 0:
            return True
        cur_snr = float(self._snr[cur_slot])
        if cur_snr != cur_snr:
            return True  # any measured link beats a vanished/unmeasured one
        return cand_snr - cur_snr >= self.snr_tiebreak_db

    # ------------------------------------------------------------------
    # Ageing
    # ------------------------------------------------------------------
    def purge(self, now: float) -> List[RouteEntry]:
        """Drop entries not refreshed within ``route_timeout``."""
        n = self._count
        if n == 0:
            return []
        stale = (now - self._updated[:n]) > self.route_timeout
        if not stale.any():
            return []
        idx = np.nonzero(stale)[0]
        idx = idx[np.argsort(self._order[idx], kind="stable")]
        expired = self._materialize_many(idx)
        for entry in expired:
            self._remove_address(entry.address)
            self._merge_memo.pop(entry.address, None)
            self._notify("removed", entry)
        return expired

    def remove_via(self, neighbour: int) -> List[RouteEntry]:
        """Immediately drop every route through ``neighbour``."""
        n = self._count
        dropped: List[RouteEntry] = []
        if n:
            idx = np.nonzero(self._via[:n] == neighbour)[0]
            if idx.shape[0]:
                idx = idx[np.argsort(self._order[idx], kind="stable")]
                dropped = self._materialize_many(idx)
        for entry in dropped:
            self._remove_address(entry.address)
            self._notify("removed", entry)
        self._merge_memo.pop(neighbour, None)
        return dropped

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def next_hop(self, destination: int) -> Optional[int]:
        slot = self._slot_of(destination)
        return self._via.item(slot) if slot >= 0 else None

    def get(self, destination: int) -> Optional[RouteEntry]:
        """The entry for ``destination`` (a materialized copy), or None."""
        slot = self._slot_of(destination)
        return self._materialize(slot) if slot >= 0 else None

    def has_route(self, destination: int) -> bool:
        return self._slot_of(destination) >= 0

    def metric(self, destination: int) -> Optional[int]:
        slot = self._slot_of(destination)
        return self._metric.item(slot) if slot >= 0 else None

    def covers_all(self, addresses) -> bool:
        """Whether every address in the array is routable (own excluded).

        One vectorized probe replacing a per-destination ``has_route``
        scan — the convergence check is O(n^2) pair lookups without it.
        """
        arr = as_address_array(addresses)
        slots = self._slots
        if arr.shape[0] and int(arr.max()) >= slots.shape[0]:
            return False
        return bool(((slots[arr] >= 0) | (arr == self.self_address)).all())

    @property
    def size(self) -> int:
        return self._count

    @property
    def version(self) -> int:
        return self._version

    def _sorted_slots(self):
        cache = self._sorted_cache
        if cache is not None and cache[0] == self._addr_revision:
            return cache[1]
        n = self._count
        order = np.argsort(self._addr[:n])  # addresses are unique
        self._sorted_cache = (self._addr_revision, order)
        return order

    def destinations(self) -> List[int]:
        return self._addr[: self._count][self._sorted_slots()].tolist()

    def neighbours(self) -> List[int]:
        n = self._count
        addr = self._addr[:n]
        direct = (self._metric[:n] == 1) & (self._via[:n] == addr)
        return sorted(addr[direct].tolist())

    def __iter__(self) -> Iterator[RouteEntry]:
        for slot in self._sorted_slots().tolist():
            yield self._materialize(slot)

    def __contains__(self, destination: int) -> bool:
        return self._slot_of(destination) >= 0

    # ------------------------------------------------------------------
    # Advertising
    # ------------------------------------------------------------------
    def snapshot(self, *, self_role: int = _DEFAULT_ROLE) -> List[Row]:
        """The advertised ``(address, metric, role)`` rows; memoized on
        (version, self_role)."""
        cache = self._snapshot_cache
        if cache is not None and cache[0] == self._version and cache[1] == self_role:
            return list(cache[2])
        rows = [RoutingEntry(self.self_address, 0, self_role)]
        n = self._count
        order = self._sorted_slots()
        addr = self._addr[:n][order].tolist()
        metric = self._metric[:n][order].tolist()
        role = self._role[:n][order].tolist()
        rows.extend(zip(addr, metric, role))
        self._snapshot_cache = (self._version, self_role, tuple(rows))
        return rows

    def format(self) -> str:
        """Multi-line rendering like the demo's serial-console dump."""
        lines = [f"Routing table of {format_address(self.self_address)} ({self.size} routes)"]
        for entry in self:
            lines.append(
                f"  dst={format_address(entry.address)} via={format_address(entry.via)} "
                f"metric={entry.metric} role={entry.role}"
            )
        return "\n".join(lines)
