"""Persistent array-native flow ledger for the simmpi engine.

:class:`FlowLedger` is the storage backend behind the vectorized
:class:`~repro.simmpi.engine.VirtualMpi` event loop.  The differential
oracle (``tests/oracles/simmpi_flows.py``) keeps one Python ``_Flow``
object per in-flight message and rebuilds a list of path arrays for
every fairness solve; the ledger instead keeps all flow state in
preallocated numpy planes:

* an **append-only CSR path arena** (``links``/``offsets``) — paths
  already arrive as int64 arrays from :mod:`repro.netsim.batchroute`
  via the engine's route cache.  The engine queues the flows a drain
  of ready ranks starts and admits them when it next reads the ledger
  (:meth:`FlowLedger.add_many`): one ``np.concatenate`` into the arena,
  a cumsum for the offsets and slice writes for the slot planes, with
  the same slot ids and order keys one :meth:`FlowLedger.add` per flow
  would give;
* per-slot ``remaining`` / ``group_id`` / ``src`` / ``dst`` /
  ``order_key`` / ``active`` planes, so per-event progress is
  ``remaining[act] -= rates * dt`` instead of a Python loop;
* an incrementally maintained per-link **load plane** (flows currently
  crossing each link), updated on add/retire rather than recounted; the
  engine's per-event solve diffs it into a (capacity, load) histogram
  that decides the first water-fill round, so its invariant — it equals
  ``np.bincount`` over the active slots' entries — is what keeps the
  rates exact;
* a cached read-only :class:`~repro.netsim.batchroute.PathMatrix`
  *view* of the live arena (invalidated by appends, never copied), so
  the fairness solver's active-subset indexing consumes ledger state
  directly.

Slots are never moved while the engine holds indices to them: flows
retire by flipping ``active`` off, and reroutes append a fresh slot
that inherits the retired slot's ``order_key`` (the oracle's
flow-creation order, which fault reports and restore scans must
reproduce).  The arena therefore grows monotonically within an event
window; :meth:`maybe_compact` squeezes retired entries out at owner-
chosen safe points, past a retired-entry floor (:data:`COMPACT_MIN`)
so steady-state runs amortize the rebuild.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .. import observability
from ..netsim.batchroute import PathMatrix

__all__ = ["FlowLedger"]

#: Default retired-entry floor before :meth:`FlowLedger.maybe_compact`
#: rebuilds the arena.
COMPACT_MIN = 65536

#: Batches smaller than this take :meth:`FlowLedger.add` per flow in
#: :meth:`FlowLedger.add_many`: below it the bulk path's fixed numpy
#: cost outweighs the per-flow scalar writes it saves.
BULK_MIN = 4


class FlowLedger:
    """Array-native store of in-flight flows (paths + progress planes).

    Parameters
    ----------
    num_links:
        Size of the directed-link space (length of the network's
        capacity plane); fixes the load-plane shape.
    slot_capacity, entry_capacity:
        Initial sizes of the slot planes and the path arena; both grow
        geometrically on demand.
    compact_min:
        Retired-entry floor before :meth:`maybe_compact` rebuilds the
        arena.
    """

    __slots__ = (
        "_num_links",
        "_links",
        "_offsets",
        "_remaining",
        "_group",
        "_src",
        "_dst",
        "_order",
        "_active",
        "_link_load",
        "_n_slots",
        "_n_active",
        "_used",
        "_live_entries",
        "_next_order",
        "_view",
        "_compact_min",
        "compactions",
    )

    def __init__(
        self,
        num_links: int,
        *,
        slot_capacity: int = 64,
        entry_capacity: int = 1024,
        compact_min: int = COMPACT_MIN,
    ):
        if num_links < 0:
            raise ValueError("num_links must be non-negative")
        if slot_capacity < 1 or entry_capacity < 1:
            raise ValueError("capacities must be positive")
        self._num_links = int(num_links)
        self._links = np.empty(entry_capacity, dtype=np.int64)
        self._offsets = np.zeros(slot_capacity + 1, dtype=np.int64)
        self._remaining = np.empty(slot_capacity, dtype=np.float64)
        self._group = np.empty(slot_capacity, dtype=np.int64)
        self._src = np.empty(slot_capacity, dtype=np.int64)
        self._dst = np.empty(slot_capacity, dtype=np.int64)
        self._order = np.empty(slot_capacity, dtype=np.int64)
        self._active = np.zeros(slot_capacity, dtype=bool)
        self._link_load = np.zeros(self._num_links, dtype=np.int64)
        self._n_slots = 0
        self._n_active = 0
        self._used = 0
        self._live_entries = 0
        self._next_order = 0
        self._view: PathMatrix | None = None
        self._compact_min = int(compact_min)
        self.compactions = 0

    # ------------------------------------------------------------------ #
    # Introspection                                                        #
    # ------------------------------------------------------------------ #

    @property
    def num_links(self) -> int:
        """Size of the directed-link space."""
        return self._num_links

    @property
    def num_slots(self) -> int:
        """Slots ever allocated (retired slots included, pre-compact)."""
        return self._n_slots

    @property
    def num_active(self) -> int:
        """Flows currently in flight."""
        return self._n_active

    @property
    def arena_used(self) -> int:
        """Path-arena entries written (live + retired)."""
        return self._used

    @property
    def retired_entries(self) -> int:
        """Arena entries belonging to retired slots."""
        return self._used - self._live_entries

    @property
    def remaining(self) -> np.ndarray:
        """Per-slot remaining GB plane (writable; owner-managed)."""
        return self._remaining

    @property
    def group_ids(self) -> np.ndarray:
        """Per-slot completion-group id plane."""
        return self._group

    @property
    def src_nodes(self) -> np.ndarray:
        """Per-slot source node plane."""
        return self._src

    @property
    def dst_nodes(self) -> np.ndarray:
        """Per-slot destination node plane."""
        return self._dst

    @property
    def order_keys(self) -> np.ndarray:
        """Per-slot flow-creation order keys (inherited by reroutes)."""
        return self._order

    @property
    def link_load(self) -> np.ndarray:
        """Read-only snapshot of flows crossing each link."""
        load = self._link_load.view()
        load.flags.writeable = False
        return load

    def active_slots(self) -> np.ndarray:
        """Active slot ids, ascending."""
        return np.flatnonzero(self._active[: self._n_slots])

    def active_slots_by_order(self) -> np.ndarray:
        """Active slot ids in flow-creation (oracle iteration) order."""
        act = self.active_slots()
        return act[np.argsort(self._order[act], kind="stable")]

    def path(self, slot: int) -> np.ndarray:
        """The path entries of one slot (a view — do not mutate)."""
        return self._links[self._offsets[slot] : self._offsets[slot + 1]]

    def view(self) -> PathMatrix:
        """Live :class:`PathMatrix` over the arena (cached until append)."""
        if self._view is None:
            self._view = PathMatrix.unchecked(
                self._links[: self._used],
                self._offsets[: self._n_slots + 1],
            )
        return self._view

    def subset_entries(
        self, slots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR entries of *slots* (any order, repeats allowed).

        Returns ``(entry_links, entry_rows, lengths)``: the selected
        slots' link entries in *slots* order, each entry's position in
        *slots*, and the per-slot entry counts.
        """
        slots = np.ascontiguousarray(slots, dtype=np.int64).ravel()
        starts = self._offsets[slots]
        lengths = self._offsets[slots + 1] - starts
        entry_rows = np.repeat(np.arange(len(slots), dtype=np.int64), lengths)
        # Gathered entry j of row r is arena entry starts[r] + j - (the
        # gather position of row r's first entry).
        shift = starts - (np.cumsum(lengths) - lengths)
        flat = np.arange(len(entry_rows), dtype=np.int64) + shift[entry_rows]
        return self._links[flat], entry_rows, lengths

    def crossing_count(self, link_mask: np.ndarray, slots: np.ndarray) -> int:
        """How many of *slots* cross at least one masked link."""
        entry_links, entry_rows, _ = self.subset_entries(slots)
        if entry_links.size == 0:
            return 0
        hit_rows = entry_rows[link_mask[entry_links]]
        if hit_rows.size == 0:
            return 0
        return int((np.bincount(hit_rows, minlength=len(slots)) > 0).sum())

    def crossing_slots(self, link_mask: np.ndarray) -> np.ndarray:
        """Active slots crossing a masked link, in flow-creation order.

        The fault path uses this with ``capacities <= eps`` to find
        severed flows; creation order matches the oracle's flow-list
        iteration, which :class:`~repro.faults.FaultReport` contents
        depend on.
        """
        act = self.active_slots()
        entry_links, entry_rows, _ = self.subset_entries(act)
        if entry_links.size == 0:
            return act[:0]
        hit_rows = entry_rows[link_mask[entry_links]]
        if hit_rows.size == 0:
            return act[:0]
        hit = act[np.bincount(hit_rows, minlength=len(act)) > 0]
        return hit[np.argsort(self._order[hit], kind="stable")]

    # ------------------------------------------------------------------ #
    # Mutation                                                             #
    # ------------------------------------------------------------------ #

    def add(
        self,
        path: np.ndarray,
        remaining: float,
        group_id: int,
        src_node: int,
        dst_node: int,
        *,
        order_key: int | None = None,
    ) -> int:
        """Append a flow; returns its slot id.

        *order_key* is assigned monotonically when omitted; reroutes
        pass the retired slot's key so creation order survives.
        """
        path = np.ascontiguousarray(path, dtype=np.int64).ravel()
        n = self._n_slots
        if n + 2 > len(self._offsets):
            self._grow_slots(n + 1)
        m = len(path)
        used = self._used
        if used + m > len(self._links):
            self._grow_entries(used + m)
        self._links[used : used + m] = path
        self._offsets[n + 1] = used + m
        self._used = used + m
        self._remaining[n] = remaining
        self._group[n] = group_id
        self._src[n] = src_node
        self._dst[n] = dst_node
        if order_key is None:
            order_key = self._next_order
            self._next_order += 1
        else:
            self._next_order = max(self._next_order, order_key + 1)
        self._order[n] = order_key
        self._active[n] = True
        self._n_slots = n + 1
        self._n_active += 1
        self._live_entries += m
        np.add.at(self._link_load, path, 1)
        self._view = None
        return n

    def add_many(
        self,
        paths: Sequence[np.ndarray],
        remaining: Sequence[float],
        group_ids: Sequence[int],
        src_nodes: Sequence[int],
        dst_nodes: Sequence[int],
    ) -> int:
        """Append flows in one batch; returns the first new slot id.

        Flow *i* gets slot ``first + i`` and the next fresh order key:
        the ids that one :meth:`add` per flow, in order, would assign.
        Batches below :data:`BULK_MIN` flows make those calls.
        """
        n = self._n_slots
        k = len(paths)
        if k < BULK_MIN:
            for row in zip(paths, remaining, group_ids, src_nodes, dst_nodes):
                self.add(*row)
            return n
        ends = np.cumsum(np.fromiter(map(len, paths), np.int64, k))
        total = int(ends[-1])
        if n + k + 1 > len(self._offsets):
            self._grow_slots(n + k)
        used = self._used
        if used + total > len(self._links):
            self._grow_entries(used + total)
        entries = self._links[used : used + total]
        # ``unsafe`` casting matches add()'s int64 conversion.
        np.concatenate(paths, out=entries, casting="unsafe")
        np.add(ends, used, out=self._offsets[n + 1 : n + k + 1])
        new = slice(n, n + k)
        self._remaining[new] = remaining
        self._group[new] = group_ids
        self._src[new] = src_nodes
        self._dst[new] = dst_nodes
        self._order[new] = np.arange(self._next_order, self._next_order + k)
        self._next_order += k
        self._active[new] = True
        self._used = used + total
        self._n_slots = n + k
        self._n_active += k
        self._live_entries += total
        np.add.at(self._link_load, entries, 1)
        self._view = None
        return n

    def deactivate(self, slots: np.ndarray) -> None:
        """Retire the given active slots (completed or rerouted flows)."""
        slots = np.ascontiguousarray(slots, dtype=np.int64).ravel()
        if slots.size == 0:
            return
        if not self._active[slots].all():
            raise ValueError("cannot deactivate an already-retired slot")
        self._active[slots] = False
        self._n_active -= int(slots.size)
        if slots.size <= 8:
            # Typical per-event retirement is one or two flows; slicing
            # the arena directly skips the full CSR gather machinery.
            offsets, links = self._offsets, self._links
            removed = 0
            for s in slots.tolist():
                lo, hi = int(offsets[s]), int(offsets[s + 1])
                np.subtract.at(self._link_load, links[lo:hi], 1)
                removed += hi - lo
            self._live_entries -= removed
        else:
            entry_links, _, lengths = self.subset_entries(slots)
            np.subtract.at(self._link_load, entry_links, 1)
            self._live_entries -= int(lengths.sum())

    def repath(self, slot: int, new_path: np.ndarray) -> int:
        """Replace a slot's path; returns the fresh slot id.

        CSR entries cannot be edited in place (offsets are shared with
        every live view), so the slot retires and a new one inherits
        its ``remaining`` / group / endpoints / ``order_key``.
        """
        if not self._active[slot]:
            raise ValueError(f"slot {slot} is not active")
        remaining = float(self._remaining[slot])
        group_id = int(self._group[slot])
        src = int(self._src[slot])
        dst = int(self._dst[slot])
        order_key = int(self._order[slot])
        self.deactivate(np.asarray([slot], dtype=np.int64))
        return self.add(
            new_path, remaining, group_id, src, dst, order_key=order_key
        )

    def maybe_compact(self) -> bool:
        """Squeeze retired entries out of the arena when it pays.

        Compacts only when retired entries both reach the
        ``compact_min`` floor and outnumber live entries, so
        the O(live) rebuild is amortized against at least as much
        reclaimed space.  **Slot ids are renumbered** — the owner must
        hold no slot references across a call.
        """
        retired = self._used - self._live_entries
        if retired < self._compact_min or retired <= self._live_entries:
            return False
        self._compact()
        return True

    def _compact(self) -> None:
        act = self.active_slots()
        entry_links, _, lengths = self.subset_entries(act)
        old_n = self._n_slots
        n = len(act)
        # Fancy-indexed gathers copy, so front-compaction is safe even
        # though source and destination overlap.
        self._remaining[:n] = self._remaining[act]
        self._group[:n] = self._group[act]
        self._src[:n] = self._src[act]
        self._dst[:n] = self._dst[act]
        self._order[:n] = self._order[act]
        self._active[:old_n] = False
        self._active[:n] = True
        self._offsets[0] = 0
        np.cumsum(lengths, out=self._offsets[1 : n + 1])
        self._links[: len(entry_links)] = entry_links
        self._n_slots = n
        self._used = int(len(entry_links))
        self._live_entries = self._used
        self._view = None
        self.compactions += 1
        observability.counter_add("simmpi.ledger.compactions")

    # ------------------------------------------------------------------ #
    # Growth                                                               #
    # ------------------------------------------------------------------ #

    def _grow_slots(self, need: int) -> None:
        cap = max(2 * (len(self._offsets) - 1), need)
        offsets = np.zeros(cap + 1, dtype=np.int64)
        offsets[: self._n_slots + 1] = self._offsets[: self._n_slots + 1]
        self._offsets = offsets
        for name in ("_remaining", "_group", "_src", "_dst", "_order"):
            old = getattr(self, name)
            grown = np.empty(cap, dtype=old.dtype)
            grown[: self._n_slots] = old[: self._n_slots]
            setattr(self, name, grown)
        active = np.zeros(cap, dtype=bool)
        active[: self._n_slots] = self._active[: self._n_slots]
        self._active = active
        self._view = None

    def _grow_entries(self, need: int) -> None:
        cap = max(2 * len(self._links), need)
        links = np.empty(cap, dtype=np.int64)
        links[: self._used] = self._links[: self._used]
        self._links = links
        self._view = None
