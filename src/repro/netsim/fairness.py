"""Max-min fair rate allocation (progressive filling / water-filling).

Given flows with fixed paths over capacitated links, the max-min fair
allocation raises all flow rates together until some link saturates,
freezes the flows through it, and repeats.  It is the classical fluid
model of TCP-fair / hardware-arbitrated link sharing and is what the
bisection-pairing experiment's "every pair shares the cut" argument
computes implicitly.

One kernel, :func:`_water_fill_block`, runs the rounds for a block of
scenarios of a :class:`~repro.netsim.stacked.StackedPathMatrix`.
:func:`stacked_max_min_fair_rates` walks a whole stack through it, and
:func:`max_min_fair_rates` solves one scenario as a one-scenario stack.
The scalar loop it replaced is the differential reference in
``tests/oracles/scalar_water_fill.py``, matched bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .. import contracts, observability
from .batchroute import PathMatrix
from .stacked import StackedPathMatrix, segment_min

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
        Optional array of distinct flow indices to solve for, in any
        order; other flows are treated as absent (no link usage).  The
        fluid engine uses this to re-solve shrinking flow sets without
        re-slicing the :class:`PathMatrix`.  Default: all flows.
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
    n_total = len(pm)
    mask = None
    if active is not None:
        act = np.ascontiguousarray(active, dtype=np.int64).ravel()
        if act.size and (act.min() < 0 or act.max() >= n_total):
            raise ValueError(
                f"active flow indices must be in [0, {n_total - 1}]"
            )
        mask = np.zeros(n_total, dtype=bool)
        mask[act] = True
        if np.count_nonzero(mask) < act.size:
            raise ValueError("active flow indices must be distinct")
    stack = StackedPathMatrix(
        pm.link_ids, pm.offsets, [0, n_total], [0, len(capacities)],
        capacities, active=mask,
    )
    rates, bottlenecks, rounds_done = _solve(
        stack, stack.active, demands, return_bottlenecks
    )
    if active is not None:
        rates = rates[act]
    if observability.OBS.enabled:
        observability.counter_add("netsim.fairness.calls")
        observability.counter_add("netsim.fairness.rounds", rounds_done)
        observability.counter_add("netsim.fairness.flows", len(rates))
    return (rates, bottlenecks) if return_bottlenecks else rates


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
    its scenarios are computed by the same elementwise operations as
    one scenario's, and per-scenario increments come from exact
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
        its active flows reproduces :func:`max_min_fair_rates` on that
        scenario alone exactly.
    """
    if not isinstance(stack, StackedPathMatrix):
        raise TypeError(
            f"expected a StackedPathMatrix, got {type(stack).__name__}"
        )
    if contracts.enabled():
        contracts.check_solver_inputs(
            "stacked_max_min_fair_rates", stack.capacities
        )
    act = stack.active
    if active is not None:
        extra = np.ascontiguousarray(active, dtype=bool)
        if extra.shape != act.shape:
            raise ValueError(
                f"active mask has shape {extra.shape}, expected "
                f"{act.shape}"
            )
        act = act & extra
    rates, bottlenecks, rounds_done = _solve(
        stack, act, demands, return_bottlenecks
    )
    if observability.OBS.enabled:
        observability.counter_add("netsim.fairness.stacked_calls")
        observability.counter_add(
            "netsim.fairness.stacked_scenarios", stack.num_scenarios
        )
        observability.counter_add("netsim.fairness.rounds", rounds_done)
        observability.counter_add("netsim.fairness.flows", int(act.sum()))
    return (rates, bottlenecks) if return_bottlenecks else rates


def _solve(
    stack: StackedPathMatrix,
    act: np.ndarray,
    demands: np.ndarray | Sequence[float] | None,
    return_bottlenecks: bool,
) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Water-fill the *act* flows of *stack*, block by block.

    Returns the rates over all stacked flows (``0.0`` outside *act*),
    the sorted global bottleneck link ids (``None`` unless asked for)
    and the deepest scenario's round count.
    """
    n_flows = stack.num_flows
    if not np.all(stack.capacities >= 0):
        raise ValueError("link capacities must be non-negative")
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
    ids = None if bottle is None else np.flatnonzero(bottle)
    return rates, ids, rounds_done


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

    # The unfrozen flows ("rows") and their block-local link ids.  Rows
    # stay in place behind the ``alive`` mask as they freeze; the
    # arrays are compacted only once at most half the held entries are
    # live.  One intp copy of the ids means no gather casts its index.
    rows = np.flatnonzero(unfrozen)
    row_lengths = lengths[rows]
    ids = stack.link_ids[stack.offsets[f0] : stack.offsets[f1]]
    if row_lengths.sum() < len(ids):
        ids = ids[np.repeat(unfrozen, lengths)]
    ids = np.subtract(ids, l0, dtype=np.intp)
    # Link loads as exact float integers: frozen flows' entries are
    # subtracted, and the ratio and drop need no int->float cast.
    counts = np.zeros(len(capacities), dtype=float)
    np.add.at(counts, ids, 1.0)
    if not capacities.all() and ((capacities == 0) & (counts > 0)).any():
        # A flow crossing a zero-capacity (failed) link must have been
        # rerouted before rates are solved.
        pos = np.searchsorted(
            np.cumsum(row_lengths), np.argmax(capacities[ids] == 0), "right"
        )
        raise _dead_link_error(stack, f0 + int(rows[pos]))

    # An unused link holds +inf headroom: its ratio is inf/0 = inf, its
    # drop 0 * inc = 0, and it never saturates.
    cap_rem = np.where(counts > 0, capacities, np.inf)
    fill = np.zeros(hi - lo, dtype=float)
    # One link-length buffer holds each round's headroom ratio, then its
    # capacity drop, then its saturation threshold.
    work = np.empty(len(capacities), dtype=float)
    scen_links = np.diff(link_base)
    alive = np.ones(len(rows), dtype=bool)
    n_alive = len(rows)
    live_entries = len(ids)
    row_starts = np.cumsum(row_lengths) - row_lengths
    rounds_done = 0
    # Guard: each round freezes at least one flow per live scenario.
    for _round in range(len(rows) + 1):
        if not n_alive:
            break
        rounds_done += 1
        np.divide(cap_rem, counts, out=work)
        inc = segment_min(work, link_base)
        if demands is not None:
            head = np.where(unfrozen, demands - fill[flow_scn], np.inf)
            inc = np.minimum(inc, segment_min(head, flow_base))
        # Scenarios with no unfrozen flows see only +inf: their
        # increment is zero, so fill += 0.0 and cap_rem - 0 are exact
        # no-ops and the scenario stays bit-frozen.
        inc[~np.isfinite(inc)] = 0.0
        fill += inc
        # A one-scenario block (each fault scenario, and the largest
        # pairing geometries) drops by a scalar: no link-length
        # temporary, which would set the pairing solve's peak.
        np.multiply(
            counts,
            inc[0] if len(inc) == 1 else np.repeat(inc, scen_links),
            out=work,
        )
        np.subtract(cap_rem, work, out=cap_rem)
        np.multiply(capacities, _EPS, out=work)
        saturated = cap_rem <= work
        if bottle is not None:
            bottle |= saturated
        # A frozen row's entries may cross a link that saturates later,
        # so the freeze test is masked by ``alive``.
        hit = _crossing_rows(saturated, ids, row_starts, n_alive)
        hit &= alive
        if demands is not None:
            hit |= alive & (fill[flow_scn[rows]] >= demands[rows] - _EPS)
        frozen = np.flatnonzero(hit)
        done = rows[frozen]
        rates[done] = fill[flow_scn[done]]
        unfrozen[done] = False
        alive[frozen] = False
        n_alive -= len(frozen)
        if not n_alive:
            break
        # The frozen rows' entries, gathered from their ranges.
        lens = row_lengths[frozen]
        shift = row_starts[frozen] - (np.cumsum(lens) - lens)
        gone = ids[np.repeat(shift, lens) + np.arange(lens.sum())]
        np.subtract.at(counts, gone, 1.0)
        cap_rem[gone[counts[gone] == 0]] = np.inf
        live_entries -= len(gone)
        if 2 * live_entries <= len(ids):
            ids = ids[np.repeat(alive, row_lengths)]
            rows = rows[alive]
            row_lengths = row_lengths[alive]
            row_starts = np.cumsum(row_lengths) - row_lengths
            alive = np.ones(len(rows), dtype=bool)
    if n_alive:  # pragma: no cover - defensive
        rest = rows[alive]
        rates[rest] = fill[flow_scn[rest]]
    return rounds_done


def _crossing_rows(
    saturated: np.ndarray, ids: np.ndarray, row_starts: np.ndarray,
    n_alive: int,
) -> np.ndarray:
    """Which held rows cross a *saturated* link.

    A round that hits fewer entries than there are live rows maps the
    hit entries to their rows; otherwise (a round that freezes most
    rows) one ``logical_or.reduceat`` over the entries is cheaper.  The
    entry-sized mask dies here, before the caller's per-row temporaries.
    """
    sat_entries = saturated[ids]
    if np.count_nonzero(sat_entries) >= n_alive:
        return np.logical_or.reduceat(sat_entries, row_starts)
    hit = np.zeros(len(row_starts), dtype=bool)
    # Rows are non-empty, so row_starts strictly increases.
    hit[np.searchsorted(
        row_starts, np.flatnonzero(sat_entries), "right"
    ) - 1] = True
    return hit


def _dead_link_error(stack: StackedPathMatrix, fid: int) -> ValueError:
    """The error for stacked flow *fid* crossing zero-capacity links.

    The scenario is named only when the stack has more than one.
    """
    scen = int(stack.flow_scenarios[fid])
    local = fid - int(stack.flow_base[scen])
    links = stack.link_ids[stack.offsets[fid] : stack.offsets[fid + 1]]
    dead = links[stack.capacities[links] == 0]
    dead_links = sorted((dead - stack.link_base[scen]).tolist())
    where = f" of scenario {scen}" if stack.num_scenarios > 1 else ""
    return ValueError(
        f"flow {local}{where} crosses failed "
        f"(zero-capacity) link(s) {dead_links}; "
        "reroute around faults before solving rates"
    )
