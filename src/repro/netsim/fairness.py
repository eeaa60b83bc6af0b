"""Max-min fair rate allocation (progressive filling / water-filling).

Given flows with fixed paths over capacitated links, the max-min fair
allocation raises all flow rates together until some link saturates,
freezes the flows through it, and repeats.  It is the classical fluid
model of TCP-fair / hardware-arbitrated link sharing and is what the
bisection-pairing experiment's "every pair shares the cut" argument
computes implicitly.

The implementation is fully vectorized and operates natively on the
CSR :class:`~repro.netsim.batchroute.PathMatrix`: per-link active-flow
counts are ``np.bincount`` over the flat link-id array, and the
per-round freeze test is a second bincount over the flow-id companion
array — no per-flow Python loop anywhere.  The historical
``Sequence[np.ndarray]`` input shape is accepted through a thin
:meth:`PathMatrix.from_paths` adapter, and produces identical floats:
the round structure (counts, increments, fill levels) is unchanged, so
results are bit-for-bit those of the pre-CSR implementation.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .. import contracts, observability
from .batchroute import PathMatrix
from .stacked import StackedPathMatrix, gather_subset_entries, segment_min

__all__ = ["max_min_fair_rates", "stacked_max_min_fair_rates"]

_EPS = 1e-12

#: Link bound of one stacked water-fill block: consecutive scenarios
#: share a block until the next would take it past this many links, so
#: a 16-midplane fault scenario (73,728 links) solves alone and its
#: link planes stay in cache across rounds.
_BLOCK_LINKS = 1 << 17


def max_min_fair_rates(
    paths: PathMatrix | Sequence[np.ndarray],
    capacities: np.ndarray,
    demands: Sequence[float] | None = None,
    *,
    active: np.ndarray | None = None,
    return_bottlenecks: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Max-min fair rates for flows with the given link paths.

    Parameters
    ----------
    paths:
        A :class:`~repro.netsim.batchroute.PathMatrix`, or one integer
        array of directed-link indices per flow (adapted via
        :meth:`PathMatrix.from_paths`).  A flow with an empty path
        (source == destination) gets rate ``inf``.
    capacities:
        Per-link capacity array.
    demands:
        Optional per-flow rate caps (e.g. injection bandwidth limits); a
        flow freezes at its demand if the network would allow more.
        Indexed over *all* flows of *paths*, even when *active* selects
        a subset.
    active:
        Optional array of flow indices to solve for; other flows are
        treated as absent (no link usage).  The fluid engine uses this
        to re-solve shrinking flow sets without re-slicing the
        :class:`PathMatrix`.  Default: all flows.
    return_bottlenecks:
        When true, additionally return the sorted int64 ids of the
        *bottleneck links* — links that saturated while still carrying
        an unfrozen flow during the water-fill.  Used by the
        stacked≡scalar differential suite.

    Returns
    -------
    numpy.ndarray
        Per-flow rates, aligned with *active* when given (else with
        *paths*).  Water-filling terminates in at most ``len(active)``
        rounds; typical symmetric patterns take one.  With
        *return_bottlenecks* the return is ``(rates, bottleneck_ids)``.
    """
    pm = paths if isinstance(paths, PathMatrix) else PathMatrix.from_paths(paths)
    capacities = np.asarray(capacities, dtype=float)
    if contracts.enabled():
        contracts.check_solver_inputs("max_min_fair_rates", capacities)
    if not np.all(capacities >= 0):
        raise ValueError("link capacities must be non-negative")
    n_total = len(pm)
    n_links = len(capacities)

    if active is None:
        act = np.arange(n_total, dtype=np.int64)
    else:
        act = np.ascontiguousarray(active, dtype=np.int64).ravel()
        if act.size and (act.min() < 0 or act.max() >= n_total):
            raise ValueError(
                f"active flow indices must be in [0, {n_total - 1}]"
            )
    n_act = len(act)
    rates = np.zeros(n_act, dtype=float)
    bottle = np.zeros(n_links, dtype=bool) if return_bottlenecks else None
    if n_act == 0:
        if return_bottlenecks:
            return rates, np.flatnonzero(bottle)
        return rates

    # CSR compaction: gather the active flows' link entries once.
    sub_links, sub_fids, lengths = gather_subset_entries(
        pm.link_ids, pm.offsets, act
    )
    if np.any(capacities == 0):
        # Zero capacity models a *failed* link (see repro.faults); flows
        # must be routed around failures before rates are solved.
        entry_dead = capacities[sub_links] == 0
        if entry_dead.any():
            pos = int(sub_fids[entry_dead].min())
            flow_id = int(act[pos])
            dead_links = sorted(
                set(sub_links[entry_dead & (sub_fids == pos)].tolist())
            )
            raise ValueError(
                f"flow {flow_id} crosses failed (zero-capacity) link(s) "
                f"{dead_links}; "
                "reroute around faults before solving rates"
            )

    caps = demands is not None
    if caps:
        demand_arr = np.asarray(list(demands), dtype=float)  # type: ignore[arg-type]
        if len(demand_arr) != n_total:
            raise ValueError(
                f"demands has {len(demand_arr)} entries for {n_total} flows"
            )
        if not np.all(demand_arr > 0):
            raise ValueError("all demands must be positive")
        demand_act = demand_arr[act]

    # Flows that traverse no link are unconstrained.
    empty = lengths == 0
    unfrozen = ~empty
    rates[empty] = np.inf if not caps else demand_act[empty]

    cap_rem = capacities.copy()
    fill = 0.0
    rounds_done = 0
    # Guard: each round freezes at least one flow.
    for _round in range(n_act + 1):
        if not unfrozen.any():
            break
        rounds_done += 1
        entry_live = unfrozen[sub_fids]
        counts = np.bincount(sub_links[entry_live], minlength=n_links)
        # Only used links move (cap_rem - 0 * inc is cap_rem exactly).
        used = np.flatnonzero(counts > 0)
        if not used.size:
            break
        used_counts = counts[used]
        rem = cap_rem[used]
        inc = float((rem / used_counts).min())
        if caps:
            head = demand_act[unfrozen] - fill
            inc = min(inc, float(head.min()))
        fill += inc
        rem -= used_counts * inc
        # Freeze flows crossing a saturated link (or hitting their demand).
        sat = used[rem <= _EPS * capacities[used]]
        if return_bottlenecks:
            bottle[sat] = True
        if len(sat) == len(used):
            # Every live flow crosses only used links, so all freeze.
            hit = unfrozen.copy()
        else:
            # Only a later round reads the remaining capacities.
            cap_rem[used] = rem
            saturated = np.zeros(n_links, dtype=bool)
            saturated[sat] = True
            hit_entries = entry_live & saturated[sub_links]
            hit = np.bincount(sub_fids[hit_entries], minlength=n_act) > 0
        if caps:
            hit |= unfrozen & (fill >= demand_act - _EPS)
        hit &= unfrozen
        rates[hit] = fill
        unfrozen &= ~hit
    if unfrozen.any():  # pragma: no cover - defensive
        rates[unfrozen] = fill
    if observability.OBS.enabled:
        observability.counter_add("netsim.fairness.calls")
        observability.counter_add("netsim.fairness.rounds", rounds_done)
        observability.counter_add("netsim.fairness.flows", n_act)
    if return_bottlenecks:
        return rates, np.flatnonzero(bottle)
    return rates


def stacked_max_min_fair_rates(
    stack: StackedPathMatrix,
    demands: np.ndarray | None = None,
    *,
    active: np.ndarray | None = None,
    return_bottlenecks: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Water-fill every scenario of *stack*, in cache-sized blocks.

    The stacked generalization of :func:`max_min_fair_rates`.  The
    stack is walked in blocks of consecutive scenarios: a block grows
    until the next scenario would take it past ``_BLOCK_LINKS`` links
    (a scenario larger than that solves alone), and each block runs the
    water-fill rounds on its own slices of the link planes.  Within a
    block, because scenarios occupy disjoint regions of the flat link
    space, the per-round load-count/saturation/freeze updates of all
    its scenarios are computed by the same elementwise operations the
    scalar solver uses, and per-scenario increments come from exact
    segment minima (:func:`~repro.netsim.stacked.segment_min`).
    Scenarios at different water-fill depths coexist: a finished
    scenario's increment is zero, a bit-preserving no-op on its fill
    and capacities.  The result is **bit-for-bit** what solving every
    scenario separately produces, whatever the block bound (the
    contract of ``tests/properties/test_stacked_equivalence.py``), and
    the ``netsim.fairness.rounds`` counter is the deepest scenario's
    round count.

    Parameters
    ----------
    stack:
        The stacked scenarios (paths + capacity planes + active mask).
    demands:
        Optional per-flow rate caps over *all* stacked flows.
    active:
        Optional boolean mask over all flows further restricting
        ``stack.active`` (the stacked fluid engine's shrinking set).
    return_bottlenecks:
        When true, additionally return the sorted *global* link ids
        that saturated under an unfrozen flow (subtract ``link_base[s]``
        for scenario-local ids).

    Returns
    -------
    numpy.ndarray
        Per-flow rates aligned with the stacked flow rows; inactive
        flows get ``0.0``.  Slicing scenario ``s``'s rows and selecting
        its active flows reproduces the scalar solver's output array
        exactly.
    """
    if not isinstance(stack, StackedPathMatrix):
        raise TypeError(
            f"expected a StackedPathMatrix, got {type(stack).__name__}"
        )
    n_flows = stack.num_flows
    capacities = stack.capacities
    if contracts.enabled():
        contracts.check_solver_inputs(
            "stacked_max_min_fair_rates", capacities
        )
    if not np.all(capacities >= 0):
        raise ValueError("link capacities must be non-negative")

    act = stack.active
    if active is not None:
        extra = np.ascontiguousarray(active, dtype=bool)
        if extra.shape != (n_flows,):
            raise ValueError(
                f"active mask has shape {extra.shape}, expected "
                f"({n_flows},)"
            )
        act = act & extra

    demand_arr = None
    if demands is not None:
        demand_arr = np.asarray(demands, dtype=float).ravel()
        if len(demand_arr) != n_flows:
            raise ValueError(
                f"demands has {len(demand_arr)} entries for "
                f"{n_flows} flows"
            )
        if not np.all(demand_arr > 0):
            raise ValueError("all demands must be positive")

    rates = np.zeros(n_flows, dtype=float)
    bottle = np.zeros(stack.num_links, bool) if return_bottlenecks else None
    # Flows that traverse no link are unconstrained (or demand-capped).
    lengths = stack.lengths
    empty = lengths == 0
    unfrozen = act & ~empty
    free = act & empty
    rates[free] = np.inf if demand_arr is None else demand_arr[free]

    link_base = stack.link_base
    n_scen = stack.num_scenarios
    rounds_done = 0
    lo = 0
    while lo < n_scen:
        # The block is scenarios lo:hi, the most that fit the bound.
        limit = link_base[lo] + _BLOCK_LINKS
        hi = max(lo + 1, int(np.searchsorted(link_base, limit, "right")) - 1)
        rounds_done = max(rounds_done, _water_fill_block(
            stack, lo, hi, lengths, unfrozen, demand_arr, rates, bottle
        ))
        lo = hi
    if observability.OBS.enabled:
        observability.counter_add("netsim.fairness.stacked_calls")
        observability.counter_add(
            "netsim.fairness.stacked_scenarios", n_scen
        )
        observability.counter_add(
            "netsim.fairness.rounds", rounds_done
        )
        observability.counter_add(
            "netsim.fairness.flows", int(act.sum())
        )
    if return_bottlenecks:
        return rates, np.flatnonzero(bottle)
    return rates


def _water_fill_block(
    stack: StackedPathMatrix,
    lo: int,
    hi: int,
    lengths: np.ndarray,
    unfrozen: np.ndarray,
    demands: np.ndarray | None,
    rates: np.ndarray,
    bottle: np.ndarray | None,
) -> int:
    """Water-fill scenarios ``lo:hi`` of *stack*; return the round count.

    Works on block-local link ids, capacities and scenario offsets, and
    writes the block's rates, bottleneck flags (if asked) and frozen
    flows through views of *rates*, *bottle* and *unfrozen*.
    """
    link_base = stack.link_base[lo : hi + 1] - stack.link_base[lo]
    flow_base = stack.flow_base[lo : hi + 1] - stack.flow_base[lo]
    l0, f0 = int(stack.link_base[lo]), int(stack.flow_base[lo])
    f1 = f0 + int(flow_base[-1])
    capacities = stack.capacities[l0 : l0 + int(link_base[-1])]
    rates = rates[f0:f1]
    if bottle is not None:
        bottle = bottle[l0 : l0 + len(capacities)]
    unfrozen = unfrozen[f0:f1]
    lengths = lengths[f0:f1]
    flow_scn = stack.flow_scenarios[f0:f1] - lo
    if demands is not None:
        demands = demands[f0:f1]

    # The unfrozen flows and their block-local entries, compacted as
    # flows freeze.
    live = np.flatnonzero(unfrozen)
    live_lengths = lengths[live]
    entries = stack.link_ids[stack.offsets[f0] : stack.offsets[f1]]
    if live_lengths.sum() < len(entries):
        entries = entries[np.repeat(unfrozen, lengths)]
    live_links = entries - l0
    if not capacities.all():
        # Scalar parity: a flow crossing a zero-capacity (failed) link
        # must have been rerouted before rates are solved.
        entry_dead = capacities[live_links] == 0
        if entry_dead.any():
            row_ends = np.cumsum(live_lengths)
            pos = np.searchsorted(row_ends, np.argmax(entry_dead), "right")
            raise _dead_link_error(stack, f0 + int(live[pos]))

    cap_rem = capacities.copy()
    threshold = _EPS * capacities
    fill = np.zeros(hi - lo, dtype=float)
    # Link loads are counted once; frozen flows' entries are then
    # subtracted, which keeps the integer counts exact.
    counts = np.zeros(len(capacities), dtype=np.int64)
    np.add.at(counts, live_links, 1)
    # One link-length buffer holds each round's headroom ratio, then its
    # capacity drop.
    work = np.empty(len(capacities), dtype=float)
    scen_links = np.diff(link_base)
    rounds_done = 0
    # Guard: each round freezes at least one flow per live scenario.
    for _round in range(len(live) + 1):
        if not live.size:
            break
        rounds_done += 1
        used = counts > 0
        # Per-link headroom ratio; unused links are +inf so the segment
        # minimum sees exactly the scalar solver's cap_rem/counts set.
        work.fill(np.inf)
        np.divide(cap_rem, counts, out=work, where=used)
        inc = segment_min(work, link_base)
        if demands is not None:
            head = np.where(unfrozen, demands - fill[flow_scn], np.inf)
            inc = np.minimum(inc, segment_min(head, flow_base))
        # Scenarios with no unfrozen flows see only +inf: their
        # increment is zero, so fill += 0.0 and cap_rem - 0 are exact
        # no-ops and the scenario stays bit-frozen.
        inc[~np.isfinite(inc)] = 0.0
        fill += inc
        np.multiply(counts, np.repeat(inc, scen_links), out=work)
        np.subtract(cap_rem, work, out=cap_rem)
        saturated = used & (cap_rem <= threshold)
        if bottle is not None:
            bottle |= saturated
        row_starts = np.cumsum(live_lengths) - live_lengths
        hit = np.logical_or.reduceat(saturated[live_links], row_starts)
        live_fill = fill[flow_scn[live]]
        if demands is not None:
            hit |= live_fill >= demands[live] - _EPS
        done = live[hit]
        rates[done] = live_fill[hit]
        unfrozen[done] = False
        keep = ~hit
        if keep.any():
            gone = np.repeat(hit, live_lengths)
            np.subtract.at(counts, live_links[gone], 1)
            live_links = live_links[~gone]
        live = live[keep]
        live_lengths = live_lengths[keep]
    if live.size:  # pragma: no cover - defensive
        rates[live] = fill[flow_scn[live]]
    return rounds_done


def _dead_link_error(stack: StackedPathMatrix, fid: int) -> ValueError:
    """The error for stacked flow *fid* crossing zero-capacity links."""
    scen = int(stack.flow_scenarios[fid])
    local = fid - int(stack.flow_base[scen])
    links = stack.link_ids[stack.offsets[fid] : stack.offsets[fid + 1]]
    dead = links[stack.capacities[links] == 0]
    dead_links = sorted((dead - stack.link_base[scen]).tolist())
    return ValueError(
        f"flow {local} of scenario {scen} crosses failed "
        f"(zero-capacity) link(s) {dead_links}; "
        "reroute around faults before solving rates"
    )
