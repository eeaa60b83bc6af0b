"""Virtual-time execution engine for rank programs.

:class:`VirtualMpi` runs one generator ("rank program") per MPI rank
over a partition's torus network.  Ranks yield operations
(:mod:`repro.simmpi.ops`); the engine matches communications into
network *flows*, shares link bandwidth max-min fairly among concurrent
flows (recomputing rates at every event), and advances a single global
virtual clock.  The result is a discrete-event simulation whose
communication layer is exactly the fluid contention model validated in
:mod:`repro.netsim` — but programmable, so workloads the paper only
describes can be written naturally (see ``examples/simmpi_pingpong.py``).

Semantics
---------
* ``Send``/``Recv`` are rendezvous: the transfer starts once both sides
  have posted and both resume when it completes (large-message MPI).
* ``SendRecv`` pairs with the peer's ``SendRecv`` of the same tag; both
  directions transfer concurrently (full duplex) and the rank resumes
  when *both* finish.
* Messages between ranks on the same node cost zero time.
* Bandwidth-only model: per-message latency is negligible at the
  100 MB+ message sizes of the paper's experiments.
* Determinism: rank stepping and matching follow rank order; no clocks,
  no randomness.  This extends to faults: the same program, ``FaultSet``
  and fault events yield bit-identical results across repeated runs.

Degraded operation
------------------
A :class:`~repro.faults.FaultSet` passed at construction removes links
and nodes before the first message; routes then avoid failures (see
:func:`repro.netsim.batchroute.batch_fault_aware_routes`).  Mid-run
:class:`~repro.faults.FaultEvent`\\ s and repairs strike at a virtual
time and re-route every cached pair in one batch call.  In-flight
transfers crossing a newly failed link move to their new route (counted
in :attr:`RunResult.reroutes`, restarting the *remaining* volume), and
when no route survives the run aborts with
:class:`~repro.faults.PartitionDisconnectedError` carrying a structured
:class:`~repro.faults.FaultReport`.

Deadlocks (all ranks blocked, nothing in flight) raise
:class:`DeadlockError` naming the blocked ranks — mismatched tags and
unpaired sends are caught instead of hanging.  Disconnection is *never*
reported as a deadlock: unreachable endpoints raise
:class:`~repro.faults.PartitionDisconnectedError` as soon as the
transfer would start.

Engine internals
----------------
In-flight flows live in one of two interchangeable backends.  The
default (:class:`_VectorFlows`) stores all flow state in a persistent
array-native :class:`~repro.simmpi.ledger.FlowLedger` — an append-only
CSR path arena plus ``remaining``/``group``/``active`` planes — so
every event is a handful of numpy reductions: the fairness solve
consumes a live :class:`~repro.netsim.batchroute.PathMatrix` view with
active-subset indexing, ``dt`` is ``(remaining / rates).min()``, flow
progress is ``remaining[act] -= rates * dt``, and group completion is
a ``bincount``-style grouped reduction.  ``REPRO_VECTOR=0`` swaps in
:class:`_OracleFlows`, the original per-``_Flow``-object loops kept
verbatim as the differential oracle: both backends produce
bit-identical :class:`RunResult`\\ s (the contract of
``tests/properties/test_property_simmpi.py``).

Ready ranks are scheduled through an epoch-ordered heap that
reproduces the historical cyclic ascending scan exactly — rank
wake-ups cost O(log ready) instead of an O(size) rescan per loop
iteration — so scheduling order (and with it every order-sensitive
artifact, e.g. :class:`~repro.faults.FaultReport` flow order) is
unchanged from the scan-based engine.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator, Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .. import observability
from .._validation import check_positive_float, check_positive_int
from ..caching import memoized
from ..faults import (
    FaultEvent,
    FaultReport,
    FaultSet,
    PartitionDisconnectedError,
    RepairEvent,
)
from ..netsim.batchroute import (
    batch_fault_aware_routes,
    fault_capacity_plane,
    link_layout,
    vector_enabled,
)
from ..netsim.fairness import max_min_fair_rates
from ..netsim.network import LinkNetwork
from ..netsim.routing import check_tie
from ..topology.torus import Torus
from .ledger import FlowLedger
from .ops import Barrier, Compute, Isend, Recv, Send, SendRecv

__all__ = [
    "VirtualMpi",
    "RankStats",
    "RunResult",
    "DeadlockError",
    "EventBudgetError",
]

#: Rank program: called with (rank, size), returns a generator of ops.
Program = Callable[[int, int], Generator]

_EPS = 1e-12


def _path_severed(caps: np.ndarray, path: np.ndarray) -> bool:
    """Whether any link of *path* has (effectively) zero capacity.

    Fault injection zeroes failed links exactly, but the check is a
    grouped ``_EPS`` comparison rather than a float ``==``: a capacity
    that rounding has driven below ``_EPS`` carries no traffic either,
    and the reroute must fire for it too (healthy links sit at O(1)
    GB/s, twelve orders of magnitude above the threshold).
    """
    return bool((caps[path] <= _EPS).any())


@memoized(maxsize=256, key=lambda torus: torus)
def _link_dim_table(torus: Torus) -> np.ndarray:
    """Dimension index of every directed link of *torus* ("link class").

    Follows analytically from the dense link layout — the per-vertex
    slot-to-dimension map tiled over vertices — and is memoized per
    torus through :mod:`repro.caching`: engines over equal tori (every
    rank-program sweep) share one read-only table instead of rebuilding
    it with a per-link Python loop.
    """
    layout = link_layout(torus)
    table = np.tile(
        np.asarray(layout.slot_dims), torus.num_vertices
    )
    table.flags.writeable = False
    return table


class DeadlockError(RuntimeError):
    """All ranks are blocked and no transfer or computation is active."""


class EventBudgetError(RuntimeError):
    """The simulation exceeded its event budget (see ``max_events``)."""


@dataclass
class _Flow:
    path: np.ndarray
    remaining: float
    group: "_Group"
    src_node: int
    dst_node: int


@dataclass
class _Group:
    """A completion group: ranks wake when all member flows finish.

    ``deliveries`` maps a waiting rank to the payload its ``yield``
    expression evaluates to on resume (receives get the sender's
    payload; sends resume with ``None``).  ``gid`` is the vector
    backend's dense registration id (-1 until a flow registers the
    group; the oracle backend never assigns one).
    """

    waiters: tuple[int, ...]
    outstanding: int
    deliveries: dict[int, object] = field(default_factory=dict)
    gid: int = -1


class _OracleFlows:
    """Per-``_Flow``-object store: the ``REPRO_VECTOR=0`` oracle.

    These are the original engine's per-flow Python loops, kept
    verbatim: the vectorized :class:`_VectorFlows` backend must
    reproduce this backend's :class:`RunResult`\\ s bit for bit.
    """

    __slots__ = ("flows", "_rates")

    def __init__(self, num_links: int):
        self.flows: list[_Flow] = []
        self._rates: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.flows)

    def add(
        self,
        path: np.ndarray,
        gb: float,
        group: _Group,
        src_node: int,
        dst_node: int,
    ) -> None:
        self.flows.append(
            _Flow(
                path=path,
                remaining=gb,
                group=group,
                src_node=src_node,
                dst_node=dst_node,
            )
        )

    def solve_dt(self, capacities: np.ndarray) -> float:
        """Re-solve fair rates; return the time to the next completion."""
        rates = max_min_fair_rates(
            [f.path for f in self.flows], capacities
        )
        self._rates = rates
        return min(f.remaining / r for f, r in zip(self.flows, rates))

    def degraded_count(self, degr_mask: np.ndarray) -> int:
        """How many in-flight flows cross a degraded link."""
        return sum(
            1 for f in self.flows if bool(degr_mask[f.path].any())
        )

    def progress(self, dt: float) -> list[_Group]:
        """Advance every flow by ``rate * dt``; return completed groups."""
        done_groups: list[_Group] = []
        kept: list[_Flow] = []
        for f, r in zip(self.flows, self._rates):
            f.remaining -= r * dt
            if f.remaining <= _EPS:
                f.group.outstanding -= 1
                if f.group.outstanding == 0:
                    done_groups.append(f.group)
            else:
                kept.append(f)
        self.flows = kept
        return done_groups

    def reroute_severed(
        self, caps: np.ndarray, path_of
    ) -> tuple[int, list[tuple[int, int, float]]]:
        """Re-path flows crossing a failed link; collect unroutable ones."""
        reroutes = 0
        lost: list[tuple[int, int, float]] = []
        for f in self.flows:
            if not _path_severed(caps, f.path):
                continue
            try:
                f.path = path_of(f.src_node, f.dst_node)
            except PartitionDisconnectedError:
                lost.append((f.src_node, f.dst_node, f.remaining))
                continue
            if len(f.path) == 0:  # pragma: no cover - defensive
                raise AssertionError("reroute produced an empty path")
            reroutes += 1
        return reroutes, lost

    def restore_routes(self, path_of) -> int:
        """Switch flows back to their preferred route after a repair."""
        restores = 0
        for f in self.flows:
            new_path = path_of(f.src_node, f.dst_node)
            if len(new_path) != len(f.path) or not np.array_equal(
                new_path, f.path
            ):
                f.path = new_path
                restores += 1
        return restores


class _VectorFlows:
    """Ledger-backed flow store: the vectorized default backend.

    All per-event work is numpy over the persistent
    :class:`~repro.simmpi.ledger.FlowLedger` planes; completion groups
    stay Python objects, registered in a dense-id map only while they
    have outstanding flows.  Flow-creation order survives reroutes via
    the ledger's ``order_key`` plane, which is what keeps
    order-sensitive artifacts (fault reports, restore scans, route
    cache traffic) bit-identical with :class:`_OracleFlows`.
    """

    __slots__ = (
        "ledger", "groups", "_next_gid",
        "_act", "_rates", "_rem", "_pending",
    )

    def __init__(self, num_links: int):
        self.ledger = FlowLedger(num_links)
        self.groups: dict[int, _Group] = {}
        self._next_gid = 0
        # Active slots carried across events: progress() filters out
        # completions, add() appends (slot ids are monotone, so the
        # ascending order active_slots() would produce is preserved).
        # Dropped to None whenever slots are renumbered or repathed.
        self._act: np.ndarray | None = None
        self._rates: np.ndarray | None = None
        self._rem: np.ndarray | None = None
        self._pending: list[int] = []

    def __len__(self) -> int:
        return self.ledger.num_active

    def add(
        self,
        path: np.ndarray,
        gb: float,
        group: _Group,
        src_node: int,
        dst_node: int,
    ) -> None:
        if group.gid < 0:
            group.gid = self._next_gid
            self._next_gid += 1
            self.groups[group.gid] = group
        self._pending.append(
            self.ledger.add(path, gb, group.gid, src_node, dst_node)
        )

    def solve_dt(self, capacities: np.ndarray) -> float:
        """Re-solve fair rates over the live ledger view.

        The active-subset gather inside
        :func:`~repro.netsim.fairness.max_min_fair_rates` sees exactly
        the entries the oracle's rebuilt path list would contain (up to
        flow permutation, under which the water-fill is equivariant),
        so rates — and the exact ``min`` below — are bit-identical.
        ``validate=False`` skips the solver's failed-link scan: the
        engine reroutes flows off dead links before ever re-solving.
        """
        act = self._act
        if act is None:
            act = self.ledger.active_slots()
        elif self._pending:
            act = np.concatenate(
                (act, np.asarray(self._pending, dtype=np.int64))
            )
        self._pending.clear()
        self._act = act
        rates = max_min_fair_rates(
            self.ledger.view(), capacities, active=act, validate=False
        )
        self._rates = rates
        rem = self.ledger.remaining[act]
        self._rem = rem
        return float((rem / rates).min())

    def degraded_count(self, degr_mask: np.ndarray) -> int:
        """How many in-flight flows cross a degraded link."""
        return self.ledger.crossing_count(degr_mask, self._act)

    def progress(self, dt: float) -> list[_Group]:
        """Advance the remaining plane; return completed groups.

        Completed groups are reported in first-completion (slot) order
        rather than the oracle's flow order; the orders are
        interchangeable because rank wake-ups are scheduled by the
        engine's ready heap (rank-ascending within a pass) independent
        of wake call order.
        """
        act, rates = self._act, self._rates
        led = self.ledger
        after = self._rem - rates * dt
        led.remaining[act] = after
        done_mask = after <= _EPS
        done = act[done_mask]
        completed: list[_Group] = []
        if done.size:
            self._act = act[~done_mask]
            gids = led.group_ids[done]
            led.deactivate(done)
            groups = self.groups
            tally: dict[int, int] = {}
            for g in gids.tolist():
                tally[g] = tally.get(g, 0) + 1
            for g, c in tally.items():
                grp = groups[g]
                grp.outstanding -= c
                if grp.outstanding == 0:
                    del groups[g]
                    completed.append(grp)
            if led.maybe_compact():
                self._act = None  # slots were renumbered
        return completed

    def reroute_severed(
        self, caps: np.ndarray, path_of
    ) -> tuple[int, list[tuple[int, int, float]]]:
        """Re-path flows crossing a failed link; collect unroutable ones.

        Severed flows are found with one masked gather and visited in
        flow-creation order (the oracle's list order), so a
        disconnection aborts with the same witness flow.
        """
        led = self.ledger
        self._act = None  # repaths retire slots out of creation order
        severed = led.crossing_slots(caps <= _EPS)
        reroutes = 0
        lost: list[tuple[int, int, float]] = []
        for slot in severed.tolist():
            src = int(led.src_nodes[slot])
            dst = int(led.dst_nodes[slot])
            try:
                new_path = path_of(src, dst)
            except PartitionDisconnectedError:
                lost.append((src, dst, float(led.remaining[slot])))
                continue
            if len(new_path) == 0:  # pragma: no cover - defensive
                raise AssertionError("reroute produced an empty path")
            led.repath(slot, new_path)
            reroutes += 1
        return reroutes, lost

    def restore_routes(self, path_of) -> int:
        """Switch flows back to their preferred route after a repair."""
        led = self.ledger
        self._act = None  # repaths retire slots out of creation order
        restores = 0
        for slot in led.active_slots_by_order().tolist():
            src = int(led.src_nodes[slot])
            dst = int(led.dst_nodes[slot])
            new_path = path_of(src, dst)
            old = led.path(slot)
            if len(new_path) != len(old) or not np.array_equal(
                new_path, old
            ):
                led.repath(slot, new_path)
                restores += 1
        return restores


@dataclass(frozen=True)
class RankStats:
    """Per-rank accounting of a finished run."""

    finish_time: float
    gb_sent: float
    messages_sent: int
    compute_seconds: float


@dataclass(frozen=True)
class RunResult:
    """Outcome of a :meth:`VirtualMpi.run` call.

    Attributes
    ----------
    time:
        Virtual makespan (seconds) — when the last rank finished.
    ranks:
        Per-rank statistics.
    reroutes:
        Number of in-flight transfers rerouted around mid-run link
        failures (0 on a healthy run).
    degraded_flow_seconds:
        Degraded-capacity exposure: virtual flow·seconds spent by
        transfers whose path crossed at least one degraded (reduced but
        non-zero capacity) link.
    restores:
        Number of in-flight transfers switched back to a shorter route
        after a mid-run :class:`~repro.faults.RepairEvent` (the second
        half of a fail→reroute→repair→restore cycle).
    """

    time: float
    ranks: tuple[RankStats, ...]
    reroutes: int = 0
    degraded_flow_seconds: float = 0.0
    restores: int = 0

    @property
    def total_gb_sent(self) -> float:
        return float(sum(r.gb_sent for r in self.ranks))

    @property
    def max_compute_seconds(self) -> float:
        return max((r.compute_seconds for r in self.ranks), default=0.0)


class VirtualMpi:
    """A virtual-time MPI world over a torus partition.

    Parameters
    ----------
    torus:
        The partition's node-level torus (use
        :meth:`PartitionGeometry.bgq_network` for physical capacities).
    rank_to_node:
        Node index per rank; defaults to one rank per node (identity).
    link_bandwidth:
        GB/s per unit link weight (2.0 for Blue Gene/Q).
    tie:
        Routing tie-break (see
        :func:`~repro.netsim.routing.dimension_ordered_route`);
        validated eagerly here, not on the first routed message.
    faults:
        Faults present from virtual time 0 (failed/degraded links,
        drained nodes).  Routes avoid them from the first message.
    fault_events:
        :class:`~repro.faults.FaultEvent` and
        :class:`~repro.faults.RepairEvent` entries striking mid-run,
        each at its virtual ``time``.  Applied in time order;
        simultaneous events apply in the given order.  The whole
        timeline is validated here at construction: a repair event
        naming a link or node that is not failed at its point in the
        timeline raises :class:`ValueError` immediately, not mid-run.
    max_events:
        Event budget guarding against runaway programs: every rank
        scheduling step and every virtual-time advance consumes one
        unit.  Exceeded budgets raise :class:`EventBudgetError` naming
        the virtual time and the active flow / computing-rank counts.
    """

    def __init__(
        self,
        torus: Torus,
        rank_to_node: Sequence[int] | None = None,
        link_bandwidth: float = 2.0,
        tie: str = "parity",
        faults: FaultSet | None = None,
        fault_events: Sequence[FaultEvent | RepairEvent] = (),
        max_events: int = 10_000_000,
    ):
        check_positive_float(link_bandwidth, "link_bandwidth")
        check_tie(tie)
        self._torus = torus
        self._base_caps = LinkNetwork(
            torus, link_bandwidth=link_bandwidth
        ).capacities
        self._verts = list(torus.vertices())
        if rank_to_node is None:
            self._rank_node = list(range(torus.num_vertices))
        else:
            self._rank_node = [int(i) for i in rank_to_node]
            n = torus.num_vertices
            if any(not 0 <= i < n for i in self._rank_node):
                raise ValueError(
                    f"rank_to_node entries must be in [0, {n - 1}]"
                )
        self._tie = tie
        self._faults0 = faults if faults is not None else FaultSet()
        for ev in fault_events:
            if not isinstance(ev, (FaultEvent, RepairEvent)):
                raise TypeError(
                    f"fault_events entries must be FaultEvent or "
                    f"RepairEvent, got {type(ev).__name__}"
                )
        self._events = tuple(sorted(fault_events, key=lambda e: e.time))
        # Statically replay the timeline so an invalid repair (a link
        # or node never failed at that point) fails fast with context.
        replay = self._faults0
        for ev in self._events:
            if isinstance(ev, FaultEvent):
                replay = replay | ev.faults
            else:
                try:
                    replay = replay.restore(
                        ev.links, ev.nodes, undirected=ev.undirected
                    )
                except ValueError as exc:
                    raise ValueError(
                        f"invalid repair event at time {ev.time}: {exc}"
                    ) from None
        self._max_events = check_positive_int(max_events, "max_events")
        self._caps0 = fault_capacity_plane(
            torus, self._base_caps, self._faults0
        )
        self._route_cache: dict[tuple[int, int], np.ndarray] = {}

    @property
    def size(self) -> int:
        """Number of ranks in the world."""
        return len(self._rank_node)

    def _link_dim_array(self) -> np.ndarray:
        """Dimension index of every directed link ("link class").

        Only used while tracing is enabled, to attribute moved bytes per
        torus dimension.  Memoized per torus (see
        :func:`_link_dim_table`): repeated engine constructions over the
        same partition share the table.
        """
        return _link_dim_table(self._torus)

    def warm_routes(
        self, pairs: Sequence[tuple[int, int]]
    ) -> int:
        """Batch-prefetch the route cache for known rank pairs.

        Rank programs with a static communication pattern (the pairing
        benchmark, halo exchanges) know their peers up front; routing
        the whole pattern in one vectorized call
        (:func:`repro.netsim.batchroute.batch_dimension_ordered_routes`)
        before :meth:`run` turns every in-run ``path_of`` lookup into a
        cache hit.  On faulted topologies the same single call is
        :func:`~repro.netsim.batchroute.batch_fault_aware_routes`, which
        detours only the pairs whose natural route crosses a failure.

        Returns the number of routes added (pairs already cached, or
        given more than once, are skipped; same-node pairs cache an
        empty path).  A pair the construction-time faults disconnect
        raises :class:`~repro.faults.PartitionDisconnectedError` after
        the connected pairs are cached.
        """
        size = self.size
        cache = self._route_cache
        todo: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for a, b in pairs:
            a, b = int(a), int(b)
            if not (0 <= a < size and 0 <= b < size):
                raise ValueError(
                    f"rank pair ({a}, {b}) out of range for a "
                    f"{size}-rank world"
                )
            key = (self._rank_node[a], self._rank_node[b])
            if key in seen or key in cache:
                continue
            seen.add(key)
            todo.append(key)
        if not todo:
            return 0
        routed, dead = self._route_pairs(todo, self._faults0)
        cache.update(routed)
        if dead:
            s, d = next(key for key in todo if key in dead)
            raise PartitionDisconnectedError(
                self._verts[s], self._verts[d], self._faults0
            )
        if observability.OBS.enabled:
            observability.counter_add(
                "simmpi.route_cache.warmed", len(todo)
            )
        return len(todo)

    def _route_pairs(
        self, keys: Sequence[tuple[int, int]], faults: FaultSet
    ) -> tuple[dict[tuple[int, int], np.ndarray], set[tuple[int, int]]]:
        """Route node pairs *keys* around *faults* in one batch call.

        Returns the connected pairs' link ids keyed in *keys* order and
        the set of pairs *faults* disconnect.
        """
        src, dst = np.array(keys, dtype=np.int64).reshape(-1, 2).T
        pm, cut = batch_fault_aware_routes(
            self._torus, src, dst, faults, tie=self._tie
        )
        dead = {keys[i] for i in cut.tolist()}
        return {k: pm[i] for i, k in enumerate(keys) if k not in dead}, dead

    def _record_flow_trace(self, path: np.ndarray, gb: float) -> None:
        """Traced-mode accounting of one started flow (bytes per class)."""
        observability.counter_add("simmpi.flows")
        observability.counter_add("simmpi.gb_routed", gb)
        per_dim = np.bincount(self._link_dim_array()[path]) * gb
        hot = np.flatnonzero(per_dim)
        if hot.size:
            observability.counter_add_many(
                [f"simmpi.gb_hops.dim{d}" for d in hot.tolist()],
                per_dim[hot],
            )

    def _degraded_mask(self, caps: np.ndarray) -> np.ndarray | None:
        """Bool mask of links at reduced but non-zero capacity, or None."""
        mask = (caps < self._base_caps) & (caps > 0)
        return mask if mask.any() else None

    # ------------------------------------------------------------------ #

    def run(self, program: Program) -> RunResult:
        """Execute *program* on every rank; return the virtual-time result."""
        if observability.OBS.enabled:
            with observability.span("simmpi.run", ranks=self.size):
                return self._run(program)
        return self._run(program)

    def _run(self, program: Program) -> RunResult:
        size = self.size
        obs = observability.OBS
        gens = [program(r, size) for r in range(size)]

        READY, BLOCKED, DONE = 0, 1, 2
        state = [READY] * size
        n_done = 0
        now = 0.0
        finish = [0.0] * size
        gb_sent = [0.0] * size
        msgs = [0] * size
        comp_secs = [0.0] * size
        reroutes = 0
        restores = 0
        degraded_exposure = 0.0

        # Fault state.  The instance route cache is valid for the
        # construction-time fault set, so every run starts from it —
        # even runs with scheduled mid-run events, whose routes are
        # unchanged until the first event actually *applies* (at which
        # point apply_event swaps in a private cache, keeping the
        # pristine one intact for subsequent runs).  ``dead`` holds the
        # cached pairs a later event disconnected.
        cur_faults = self._faults0
        caps = self._caps0
        cache = self._route_cache
        dead: set[tuple[int, int]] = set()
        degr_mask = self._degraded_mask(caps)
        evt_i = 0

        def path_of(src_node: int, dst_node: int) -> np.ndarray:
            key = (src_node, dst_node)
            path = cache.get(key)
            if path is None:
                if key not in dead:
                    if obs.enabled:
                        observability.counter_add("simmpi.route_cache.misses")
                    path = self._route_pairs([key], cur_faults)[0].get(key)
                if path is None:
                    raise PartitionDisconnectedError(
                        self._verts[src_node], self._verts[dst_node],
                        cur_faults,
                    )
                cache[key] = path
            elif obs.enabled:
                observability.counter_add("simmpi.route_cache.hits")
            return path

        computing: dict[int, float] = {}          # rank -> finish time
        backend = (
            _VectorFlows(len(caps))
            if vector_enabled()
            else _OracleFlows(len(caps))
        )
        barrier_waiters: list[int] = []

        # Ready-rank scheduling: an epoch-ordered heap replacing the
        # historical "rescan ranks 0..size-1 until quiescent" loop with
        # O(log ready) per wake — while reproducing its advancement
        # order *exactly*.  A rank woken at or before the scan cursor
        # belongs to the next pass (epoch + 1); one woken ahead of the
        # cursor is reached in the current pass.  Within an epoch the
        # heap pops ranks in ascending order, just like the scan.
        ready: list[tuple[int, int]] = [(0, r) for r in range(size)]
        epoch = 0
        cursor = -1

        def make_ready(rank: int) -> None:
            state[rank] = READY
            heappush(
                ready, (epoch if rank > cursor else epoch + 1, rank)
            )
        # Unmatched posts: key (src, dst, tag) for sends; (src, dst, tag)
        # for recvs keyed by the *sender* side too.
        sends: dict[
            tuple[int, int, int], deque[tuple[int, float, object]]
        ] = {}
        recvs: dict[tuple[int, int, int], deque[int]] = {}
        exch: dict[
            tuple[int, int, int], deque[tuple[int, float, object]]
        ] = {}
        eager: dict[
            tuple[int, int, int], deque[tuple[int, float, object]]
        ] = {}
        resume: list[object] = [None] * size

        def wake(group: _Group) -> None:
            for r in group.waiters:
                resume[r] = group.deliveries.get(r)
                make_ready(r)

        def add_flow(
            src_node: int, dst_node: int, gb: float, group: _Group
        ) -> None:
            path = path_of(src_node, dst_node)
            if len(path) == 0:  # same node: free
                group.outstanding -= 1
                if group.outstanding == 0:
                    wake(group)
                return
            if obs.enabled:
                self._record_flow_trace(path, gb)
            backend.add(path, gb, group, src_node, dst_node)

        def start_flow(src: int, dst: int, gb: float, group: _Group) -> None:
            gb_sent[src] += gb
            msgs[src] += 1
            add_flow(
                self._rank_node[src], self._rank_node[dst], gb, group
            )

        def apply_event(ev: FaultEvent | RepairEvent) -> None:
            """Merge *ev* into the live fault state and re-path flows."""
            nonlocal cur_faults, caps, cache, dead, degr_mask
            nonlocal reroutes, restores
            repair = isinstance(ev, RepairEvent)
            if obs.enabled:
                observability.counter_add(
                    "simmpi.repair_events" if repair else "simmpi.fault_events"
                )
            if repair:
                cur_faults = cur_faults.restore(
                    ev.links, ev.nodes, undirected=ev.undirected
                )
            else:
                cur_faults = cur_faults | ev.faults
            caps = fault_capacity_plane(
                self._torus, self._base_caps, cur_faults
            )
            # One batch re-route of every pair this run has asked for;
            # the scans below then only hit the cache.
            cache, dead = self._route_pairs([*cache, *dead], cur_faults)
            degr_mask = self._degraded_mask(caps)
            if repair:
                # A repair never severs anything: every in-flight path
                # stays usable.  Flows whose preferred route just came
                # back switch over (restore), completing the
                # fail→reroute→repair→restore cycle.
                restores += backend.restore_routes(path_of)
                return
            delta, lost = backend.reroute_severed(caps, path_of)
            reroutes += delta
            if lost:
                report = FaultReport(
                    time=now,
                    failed_links=tuple(sorted(cur_faults.failed_links)),
                    aborted_flows=tuple(
                        (self._verts[s], self._verts[d], gb)
                        for s, d, gb in lost
                    ),
                )
                s, d, _ = lost[0]
                raise PartitionDisconnectedError(
                    self._verts[s], self._verts[d], cur_faults,
                    report=report,
                )

        # Faults scheduled at (or before) time 0 strike before any message.
        while evt_i < len(self._events) and self._events[evt_i].time <= 0.0:
            apply_event(self._events[evt_i])
            evt_i += 1

        def advance_rank(rank: int) -> None:
            """Step one rank's generator until it blocks or finishes."""
            nonlocal n_done
            while state[rank] == READY:
                try:
                    value, resume[rank] = resume[rank], None
                    op = gens[rank].send(value)
                except StopIteration:
                    state[rank] = DONE
                    n_done += 1
                    finish[rank] = now
                    return
                if isinstance(op, Compute):
                    comp_secs[rank] += op.seconds
                    if op.seconds <= 0:
                        continue
                    computing[rank] = now + op.seconds
                    state[rank] = BLOCKED
                elif isinstance(op, Send):
                    key = (rank, op.dst, op.tag)
                    waiting = recvs.get((rank, op.dst, op.tag))
                    if waiting:
                        receiver = waiting.popleft()
                        group = _Group(
                            waiters=(rank, receiver), outstanding=1,
                            deliveries={receiver: op.payload},
                        )
                        state[rank] = BLOCKED
                        start_flow(rank, op.dst, op.gb, group)
                    else:
                        sends.setdefault(key, deque()).append(
                            (rank, op.gb, op.payload)
                        )
                        state[rank] = BLOCKED
                elif isinstance(op, Isend):
                    key = (rank, op.dst, op.tag)
                    waiting = recvs.get(key)
                    if waiting:
                        receiver = waiting.popleft()
                        group = _Group(
                            waiters=(receiver,), outstanding=1,
                            deliveries={receiver: op.payload},
                        )
                        start_flow(rank, op.dst, op.gb, group)
                    else:
                        eager.setdefault(key, deque()).append(
                            (rank, op.gb, op.payload)
                        )
                        gb_sent[rank] += op.gb
                        msgs[rank] += 1
                    # Sender continues immediately (stays READY).
                elif isinstance(op, Recv):
                    key = (op.src, rank, op.tag)
                    buffered = eager.get(key)
                    if buffered:
                        sender, gb, payload = buffered.popleft()
                        group = _Group(
                            waiters=(rank,), outstanding=1,
                            deliveries={rank: payload},
                        )
                        state[rank] = BLOCKED
                        # Accounting already done at Isend time; start
                        # the wire transfer without recounting.
                        add_flow(
                            self._rank_node[sender],
                            self._rank_node[rank],
                            gb,
                            group,
                        )
                        continue
                    waiting = sends.get(key)
                    if waiting:
                        sender, gb, payload = waiting.popleft()
                        group = _Group(
                            waiters=(sender, rank), outstanding=1,
                            deliveries={rank: payload},
                        )
                        state[rank] = BLOCKED
                        start_flow(sender, rank, gb, group)
                    else:
                        recvs.setdefault(key, deque()).append(rank)
                        state[rank] = BLOCKED
                elif isinstance(op, SendRecv):
                    a, b = rank, op.peer
                    key = (min(a, b), max(a, b), op.tag)
                    waiting = exch.get(key)
                    if waiting:
                        peer, peer_gb, peer_payload = waiting.popleft()
                        group = _Group(
                            waiters=(rank, peer), outstanding=2,
                            deliveries={
                                rank: peer_payload, peer: op.payload,
                            },
                        )
                        state[rank] = BLOCKED
                        start_flow(rank, peer, op.gb, group)
                        start_flow(peer, rank, peer_gb, group)
                    else:
                        exch.setdefault(key, deque()).append(
                            (rank, op.gb, op.payload)
                        )
                        state[rank] = BLOCKED
                elif isinstance(op, Barrier):
                    barrier_waiters.append(rank)
                    state[rank] = BLOCKED
                    if len(barrier_waiters) == size:
                        for r in barrier_waiters:
                            make_ready(r)
                        barrier_waiters.clear()
                else:
                    raise TypeError(
                        f"rank {rank} yielded {op!r}; expected a simmpi "
                        "operation"
                    )

        # Main event loop.
        guard = 0

        def budget_error() -> EventBudgetError:
            return EventBudgetError(
                f"simmpi exceeded the event budget of "
                f"{self._max_events} at virtual time {now:.6g} s "
                f"with {len(backend)} active flow(s) and "
                f"{len(computing)} computing rank(s)"
            )

        while True:
            # Drain the ready heap (cyclic ascending scan order; stale
            # entries — ranks already advanced via an inline wake — are
            # skipped without consuming budget).
            while ready:
                e, r = heappop(ready)
                if state[r] != READY:
                    continue
                if e > epoch:
                    epoch = e
                cursor = r
                guard += 1
                if guard > self._max_events:
                    raise budget_error()
                advance_rank(r)
            cursor = -1
            if n_done == size:
                break
            if not len(backend) and not computing:
                blocked = [r for r in range(size) if state[r] == BLOCKED]
                shown = blocked[:16]
                suffix = (
                    f" (+{len(blocked) - len(shown)} more)"
                    if len(blocked) > len(shown)
                    else ""
                )
                raise DeadlockError(
                    f"{len(blocked)} ranks are blocked with no transfer "
                    f"or computation in flight: {shown}{suffix} "
                    "(mismatched send/recv, unpaired exchange, or "
                    "incomplete barrier)"
                )
            guard += 1
            if guard > self._max_events:
                raise budget_error()
            # Advance virtual time to the next event.
            dt = np.inf
            have_flows = len(backend) > 0
            if have_flows:
                dt = backend.solve_dt(caps)
            if computing:
                dt = min(dt, min(computing.values()) - now)
            if evt_i < len(self._events):
                dt = min(dt, self._events[evt_i].time - now)
            dt = max(dt, 0.0)
            if degr_mask is not None and have_flows and dt > 0:
                degraded_exposure += dt * backend.degraded_count(degr_mask)
            now += dt
            # Progress flows.
            if have_flows:
                for g in backend.progress(dt):
                    wake(g)
            # Finish computations.
            for r in [r for r, t in computing.items() if t - now <= _EPS]:
                del computing[r]
                make_ready(r)
            # Strike due fault events.
            while (
                evt_i < len(self._events)
                and self._events[evt_i].time - now <= _EPS
            ):
                apply_event(self._events[evt_i])
                evt_i += 1

        if obs.enabled:
            observability.counter_add("simmpi.runs")
            observability.counter_add("simmpi.gb_sent", sum(gb_sent))
            observability.counter_add("simmpi.messages", sum(msgs))
            observability.counter_add("simmpi.loop_events", guard)
            if reroutes:
                observability.counter_add(
                    "simmpi.fault_reroutes", reroutes
                )
            if restores:
                observability.counter_add(
                    "simmpi.fault_restores", restores
                )
        return RunResult(
            time=max(finish, default=0.0),
            ranks=tuple(
                RankStats(
                    finish_time=finish[r],
                    gb_sent=gb_sent[r],
                    messages_sent=msgs[r],
                    compute_seconds=comp_secs[r],
                )
                for r in range(size)
            ),
            reroutes=reroutes,
            degraded_flow_seconds=degraded_exposure,
            restores=restores,
        )
