"""Scenario-stacked CSR paths: many simulations in one solver call.

:class:`~repro.netsim.batchroute.PathMatrix` batches all *flows* of one
scenario; a sweep still solves one (pattern, geometry, fault-set)
scenario at a time, paying the fixed numpy-call overhead of the
water-filling loop hundreds of times over.  :class:`StackedPathMatrix`
removes that axis too: it concatenates the flows of ``S`` scenarios and
shifts every scenario's link ids into a *disjoint* region of one flat
link space, so one count over the link ids gives the link loads of
many scenarios at once and one elementwise update advances their water
levels.  :func:`~repro.netsim.fairness.stacked_max_min_fair_rates`
walks the stack in blocks of consecutive scenarios of about 10^5 links
each (a larger scenario solves alone): the disjoint regions make any
such split exact, and a block's link planes stay in cache.

Layout
------

* flows of scenario ``s`` occupy rows ``flow_base[s]:flow_base[s+1]``
  of the ordinary flow CSR (``link_ids``/``offsets``);
* scenario ``s``'s links occupy ``link_base[s]:link_base[s+1]`` of the
  flat ``capacities`` plane, and its entries in ``link_ids`` are the
  scenario-local ids **plus** ``link_base[s]`` — scenarios can never
  alias each other's links;
* ``link_ids``, the largest plane, is int32: a stack holds at most
  ``2**31 - 1`` links (the Figures 3/4 stack holds 4.6 M);
* ``active`` marks the flows that participate at all (the fault sweep
  excludes disconnected flows per scenario).

Because scenarios occupy disjoint link regions, every per-link and
per-flow quantity of the stacked solvers factors exactly into the
quantities of solving each scenario alone — the foundation of the
bit-for-bit equivalence contract enforced by
``tests/properties/test_stacked_equivalence.py``.

Per-scenario reductions use ``np.minimum.reduceat`` over the
``link_base``/``flow_base`` segment starts; empty segments (a scenario
with no flows, or — impossible by construction but guarded anyway — no
links) are masked out first, because ``reduceat`` on an empty segment
would leak the neighbouring segment's first element.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .. import contracts
from .batchroute import PathMatrix

__all__ = ["StackedPathMatrix", "segment_min"]


def segment_min(
    values: np.ndarray, base: np.ndarray, fill: float = np.inf
) -> np.ndarray:
    """Per-segment minimum of *values* under ``base`` boundaries.

    ``base`` is an ``(S + 1,)`` offsets array (``base[s]:base[s+1]`` is
    segment ``s``); empty segments yield *fill*.  Exact regardless of
    evaluation order (min is associative and commutative over floats
    without NaNs), which is what lets the stacked solvers reproduce
    per-scenario reductions bit for bit.
    """
    n_seg = len(base) - 1
    out = np.full(n_seg, fill, dtype=float)
    if len(values) == 0 or n_seg == 0:
        return out
    nonempty = base[1:] > base[:-1]
    if nonempty.any():
        starts = base[:-1][nonempty]
        out[nonempty] = np.minimum.reduceat(values, starts)
    return out


class StackedPathMatrix:
    """CSR paths of ``S`` scenarios over one disjoint flat link space.

    Parameters
    ----------
    link_ids, offsets:
        Ordinary flow CSR over the concatenated flows of all scenarios.
        Entries are *global* link ids — the scenario-local id plus that
        scenario's ``link_base`` offset.  The ids are checked against
        their regions as given, then stored as int32; a stack of more
        than ``2**31 - 1`` links is rejected.
    flow_base:
        ``(S + 1,)`` int64: flows of scenario ``s`` are rows
        ``flow_base[s]:flow_base[s+1]``.
    link_base:
        ``(S + 1,)`` int64: links of scenario ``s`` are the capacity
        slots ``link_base[s]:link_base[s+1]``.
    capacities:
        Flat float capacity plane of length ``link_base[-1]`` — the
        concatenation of every scenario's (possibly fault-degraded)
        per-link capacities.
    active:
        Optional boolean mask over all flows; inactive flows (e.g.
        disconnected by faults) are absent from every solve.  Default:
        all flows active.

    Prefer :meth:`from_scenarios` over the raw constructor.
    """

    __slots__ = (
        "_link_ids",
        "_offsets",
        "_flow_base",
        "_link_base",
        "_capacities",
        "_active",
        "_flow_scenarios",
    )

    def __init__(
        self,
        link_ids: np.ndarray,
        offsets: np.ndarray,
        flow_base: np.ndarray,
        link_base: np.ndarray,
        capacities: np.ndarray,
        active: np.ndarray | None = None,
    ):
        link_ids = np.asarray(link_ids)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        flow_base = np.ascontiguousarray(flow_base, dtype=np.int64)
        link_base = np.ascontiguousarray(link_base, dtype=np.int64)
        capacities = np.ascontiguousarray(capacities, dtype=float)
        if flow_base.ndim != 1 or len(flow_base) < 1:
            raise ValueError("flow_base must be a 1-D array of length >= 1")
        if link_base.shape != flow_base.shape:
            raise ValueError(
                f"flow_base has {len(flow_base)} entries but link_base "
                f"has {len(link_base)}; both must be num_scenarios + 1"
            )
        n_flows = len(offsets) - 1
        if flow_base[0] != 0 or flow_base[-1] != n_flows:
            raise ValueError(
                f"flow_base must run from 0 to num_flows={n_flows}, got "
                f"[{flow_base[0]}, {flow_base[-1]}]"
            )
        if link_base[-1] > np.iinfo(np.int32).max:
            raise ValueError(
                f"{link_base[-1]} links overflow the int32 link-id plane"
            )
        if link_base[0] != 0 or link_base[-1] != len(capacities):
            raise ValueError(
                f"link_base must run from 0 to num_links="
                f"{len(capacities)}, got [{link_base[0]}, {link_base[-1]}]"
            )
        for name, base in (("flow_base", flow_base), ("link_base", link_base)):
            if np.any(np.diff(base) < 0):
                raise ValueError(f"{name} must be non-decreasing")
        if offsets[0] != 0 or offsets[-1] != len(link_ids):
            raise ValueError(
                f"offsets must run from 0 to len(link_ids)="
                f"{len(link_ids)}, got [{offsets[0]}, {offsets[-1]}]"
            )
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        if active is None:
            act = np.ones(n_flows, dtype=bool)
        else:
            act = np.ascontiguousarray(active, dtype=bool)
            if act.shape != (n_flows,):
                raise ValueError(
                    f"active mask has shape {act.shape}, expected "
                    f"({n_flows},)"
                )
            act = act.copy()
        # Scenario id of every flow — the broadcast companion that maps
        # per-scenario quantities (fill level, dt) onto flow rows.
        scen = np.repeat(
            np.arange(len(flow_base) - 1, dtype=np.int64),
            np.diff(flow_base),
        )
        # Every entry must stay inside its scenario's link region: one
        # min and one max per non-empty scenario entry range.
        entry_base = offsets[flow_base]
        nonempty = entry_base[1:] > entry_base[:-1]
        if nonempty.any():
            starts = entry_base[:-1][nonempty]
            if np.any(
                np.minimum.reduceat(link_ids, starts)
                < link_base[:-1][nonempty]
            ) or np.any(
                np.maximum.reduceat(link_ids, starts)
                >= link_base[1:][nonempty]
            ):
                raise ValueError(
                    "link_ids stray outside their scenario's "
                    "[link_base[s], link_base[s+1]) region"
                )
        # Every id now lies below link_base[-1] <= 2**31 - 1: none wraps.
        link_ids = np.ascontiguousarray(link_ids, dtype=np.int32)
        for arr in (link_ids, offsets, flow_base, link_base, capacities,
                    act, scen):
            arr.flags.writeable = False
        self._link_ids = link_ids
        self._offsets = offsets
        self._flow_base = flow_base
        self._link_base = link_base
        self._capacities = capacities
        self._active = act
        self._flow_scenarios = scen
        if contracts.enabled():
            contracts.check_stacked_matrix(self)

    # ------------------------------------------------------------------ #
    # Construction                                                         #
    # ------------------------------------------------------------------ #

    @classmethod
    def from_scenarios(
        cls,
        scenarios: Sequence[
            tuple[PathMatrix, np.ndarray, np.ndarray | None]
        ],
    ) -> "StackedPathMatrix":
        """Stack per-scenario ``(paths, capacities, active)`` triples.

        *paths* is the scenario's :class:`PathMatrix` over its own
        (dense, zero-based) link-id space, *capacities* that space's
        per-link capacity array (faults already applied), and *active*
        an optional int64 array of participating flow indices (``None``
        = all).  Scenario link ids are shifted by the running capacity
        length so scenarios never share a capacity slot.
        """
        if not scenarios:
            raise ValueError("cannot stack zero scenarios")
        pms = []
        caps = []
        actives = []
        for pm, capacities, active in scenarios:
            if not isinstance(pm, PathMatrix):
                pm = PathMatrix.from_paths(pm)
            capacities = np.asarray(capacities, dtype=float)
            if capacities.ndim != 1:
                raise ValueError("scenario capacities must be 1-D")
            if len(pm.link_ids) and (
                pm.link_ids.min() < 0
                or pm.link_ids.max() >= len(capacities)
            ):
                raise ValueError(
                    f"scenario link ids exceed its {len(capacities)} "
                    f"capacity slots"
                )
            pms.append(pm)
            caps.append(capacities)
            actives.append(active)

        flow_counts = np.asarray([len(pm) for pm in pms], dtype=np.int64)
        link_counts = np.asarray([len(c) for c in caps], dtype=np.int64)
        flow_base = np.zeros(len(pms) + 1, dtype=np.int64)
        np.cumsum(flow_counts, out=flow_base[1:])
        link_base = np.zeros(len(pms) + 1, dtype=np.int64)
        np.cumsum(link_counts, out=link_base[1:])

        offsets = np.zeros(flow_base[-1] + 1, dtype=np.int64)
        np.cumsum(np.concatenate([pm.lengths for pm in pms]),
                  out=offsets[1:])
        entry_base = offsets[flow_base]
        link_ids = np.empty(entry_base[-1], dtype=np.int32)
        for s, pm in enumerate(pms):
            np.add(pm.link_ids, link_base[s],
                   out=link_ids[entry_base[s] : entry_base[s + 1]])
        capacities = np.concatenate(caps)

        act = np.ones(int(flow_base[-1]), dtype=bool)
        for s, active in enumerate(actives):
            if active is None:
                continue
            idx = np.ascontiguousarray(active, dtype=np.int64).ravel()
            if idx.size and (
                idx.min() < 0 or idx.max() >= flow_counts[s]
            ):
                raise ValueError(
                    f"scenario {s} active indices must be in "
                    f"[0, {int(flow_counts[s]) - 1}]"
                )
            scen_mask = np.zeros(int(flow_counts[s]), dtype=bool)
            scen_mask[idx] = True
            act[flow_base[s] : flow_base[s + 1]] = scen_mask
        return cls(link_ids, offsets, flow_base, link_base, capacities,
                   active=act)

    # ------------------------------------------------------------------ #
    # Structure                                                            #
    # ------------------------------------------------------------------ #

    @property
    def link_ids(self) -> np.ndarray:
        """Flat global link ids (read-only), ``bincount``-ready."""
        return self._link_ids

    @property
    def offsets(self) -> np.ndarray:
        """Flow CSR offsets of length ``num_flows + 1`` (read-only)."""
        return self._offsets

    @property
    def flow_base(self) -> np.ndarray:
        """``(S + 1,)`` flow segment boundaries (read-only)."""
        return self._flow_base

    @property
    def link_base(self) -> np.ndarray:
        """``(S + 1,)`` link segment boundaries (read-only)."""
        return self._link_base

    @property
    def capacities(self) -> np.ndarray:
        """Flat per-scenario capacity plane (read-only)."""
        return self._capacities

    @property
    def active(self) -> np.ndarray:
        """Boolean participating-flow mask over all flows (read-only)."""
        return self._active

    @property
    def flow_scenarios(self) -> np.ndarray:
        """Scenario id of every flow (read-only broadcast companion)."""
        return self._flow_scenarios

    @property
    def num_scenarios(self) -> int:
        return len(self._flow_base) - 1

    @property
    def num_flows(self) -> int:
        return len(self._offsets) - 1

    @property
    def num_links(self) -> int:
        return len(self._capacities)

    @property
    def lengths(self) -> np.ndarray:
        """Per-flow hop counts."""
        return np.diff(self._offsets)

    def flow_slice(self, s: int) -> slice:
        """Row slice of scenario *s*'s flows."""
        if not 0 <= s < self.num_scenarios:
            raise IndexError(
                f"scenario index {s} out of range for {self!r}"
            )
        return slice(int(self._flow_base[s]), int(self._flow_base[s + 1]))

    def link_slice(self, s: int) -> slice:
        """Capacity-plane slice of scenario *s*'s links."""
        if not 0 <= s < self.num_scenarios:
            raise IndexError(
                f"scenario index {s} out of range for {self!r}"
            )
        return slice(int(self._link_base[s]), int(self._link_base[s + 1]))

    def split(self, per_flow: np.ndarray) -> list[np.ndarray]:
        """Per-scenario views of a flow-aligned array.

        Views, not copies: slicing preserves element order, so summing
        a scenario's slice reproduces a one-scenario solve's pairwise sum
        over that scenario's array bit for bit.
        """
        per_flow = np.asarray(per_flow)
        if per_flow.shape[:1] != (self.num_flows,):
            raise ValueError(
                f"expected a flow-aligned array of length "
                f"{self.num_flows}, got shape {per_flow.shape}"
            )
        return [
            per_flow[self._flow_base[s] : self._flow_base[s + 1]]
            for s in range(self.num_scenarios)
        ]

    def __len__(self) -> int:
        return self.num_scenarios

    def __repr__(self) -> str:
        return (
            f"StackedPathMatrix(scenarios={self.num_scenarios}, "
            f"flows={self.num_flows}, links={self.num_links})"
        )

