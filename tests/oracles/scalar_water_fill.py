"""Scalar max-min water-fill: the differential reference of the solver.

The production :func:`~repro.netsim.fairness.max_min_fair_rates` is a
one-scenario solve of the blocked stacked kernel
(``repro.netsim.fairness._water_fill_block``).  This is the original
single-scenario loop it replaced, kept verbatim so no differential
suite checks the kernel against itself: per-link active-flow counts are
an ``np.bincount`` over the active flows' gathered link entries, and
each round's freeze test is a second bincount over their flow-id
companion.  It emits the same ``netsim.fairness`` counters as the
production entry, so engines run on it can be compared counter for
counter; the scalar fluid loop of :mod:`tests.oracles.scalar_fluid`
solves every round with it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import contracts, observability
from repro.netsim.batchroute import PathMatrix

_EPS = 1e-12


def _gather(pm: PathMatrix, act: np.ndarray):
    """``(entry_links, entry_rows, lengths)`` of the rows *act*, in
    *act* order; ``entry_rows`` are positions in *act*."""
    lengths = pm.offsets[act + 1] - pm.offsets[act]
    rows = [pm.link_ids[pm.offsets[i] : pm.offsets[i + 1]] for i in act]
    entry_links = np.concatenate([np.empty(0, dtype=np.int64), *rows])
    entry_rows = np.repeat(np.arange(len(act), dtype=np.int64), lengths)
    return entry_links, entry_rows, lengths


def scalar_max_min_fair_rates(
    paths: PathMatrix | Sequence[np.ndarray],
    capacities: np.ndarray,
    demands: Sequence[float] | None = None,
    *,
    active: np.ndarray | None = None,
    return_bottlenecks: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Max-min fair rates for flows with the given link paths.

    The signature and results of
    :func:`repro.netsim.fairness.max_min_fair_rates`: rates aligned
    with *active* (default: every flow of *paths*), ``inf`` for an
    empty path, and with *return_bottlenecks* also the sorted ids of
    the links that saturated under an unfrozen flow.
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
    sub_links, sub_fids, lengths = _gather(pm, act)
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
