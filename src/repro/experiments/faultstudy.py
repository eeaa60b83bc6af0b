"""Degraded-bisection study: does geometry ranking survive failures?

The paper's Tables 1–2 rank partition geometries by internal bisection
bandwidth on a *healthy* torus.  Real machines run with failed links, so
an allocation policy built on that ranking must answer: does the better
geometry stay better when ``k`` links die?  This study recomputes the
(perpendicular-cut) bisection bandwidth of a machine's default and
optimal geometries under seeded samples of ``k = 1..K`` uniform link
failures and reports how stable the ranking is.

Metric: the surviving bisection of a faulted partition is taken as the
best perpendicular cut of the node-level torus minus the failed links
crossing it — the same family of cuts that realizes the healthy
bisection (Theorem 3.1 tightness), evaluated on the surviving subgraph.
A few random failures almost never open a cheaper non-perpendicular
cut, and restricting to the paper's cut family keeps the healthy
``k = 0`` column exactly equal to Tables 1–2.

Everything is deterministic: trial ``t`` at failure count ``k`` uses
seed ``seed + 1000·k + t`` for both geometries — the *same* failure
draw is applied to each (paired comparison).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import observability
from .._validation import check_nonnegative_int, check_positive_int
from ..allocation.geometry import PartitionGeometry
from ..allocation.optimizer import (
    best_geometry_for_machine,
    worst_geometry_for_machine,
)
from ..allocation.policy import PredefinedListPolicy, mira_policy
from ..faults import DegradedResult, FaultSet, random_link_failures
from ..kernels.costmodel import LINK_BANDWIDTH_GB_PER_S
from ..machines.bgq import BlueGeneQMachine
from ..netsim.batchroute import (
    batch_dimension_ordered_routes,
    batch_fault_aware_routes,
    fault_capacity_plane,
)
from ..netsim.fairness import stacked_max_min_fair_rates
from ..netsim.network import LinkNetwork
from ..netsim.stacked import StackedPathMatrix
from ..parallel import register_block_runner, sweep_map
from ..topology.torus import Torus
from .pairing import _antipode_indices

__all__ = [
    "DegradedBisectionRow",
    "FaultScenarioRow",
    "surviving_bisection_bandwidth",
    "default_geometry_for_machine",
    "degraded_bisection_study",
    "fluid_fault_sweep",
]


@dataclass(frozen=True)
class DegradedBisectionRow:
    """Robustness of the default-vs-optimal ranking at one failure count.

    Attributes
    ----------
    failures:
        Number of failed (undirected) links per trial, ``k``.
    trials:
        Number of seeded failure draws.
    default_mean_bw / default_min_bw:
        Mean and worst surviving bisection of the default geometry.
    optimal_mean_bw / optimal_min_bw:
        The same for the optimal geometry.
    ranking_stable_fraction:
        Fraction of paired trials where the optimal geometry's surviving
        bisection is still at least the default's.
    """

    failures: int
    trials: int
    default_mean_bw: float
    default_min_bw: float
    optimal_mean_bw: float
    optimal_min_bw: float
    ranking_stable_fraction: float


def surviving_bisection_bandwidth(
    torus: Torus, faults: FaultSet
) -> float:
    """Best perpendicular bisection of *torus* on the surviving links.

    Evaluates every even-length dimension's perpendicular cut with the
    cut's failed links removed (and degraded links scaled), returning
    the weighted minimum.  With an empty fault set this equals
    :meth:`Torus.bisection_width` for unit-weight tori.
    """
    # Each undirected failure/degradation is stored as two directed
    # links; canonicalize so a severed cable is counted once per cut.
    undirected_failed = {
        (u, v) if (u, v) <= (v, u) else (v, u)
        for u, v in faults.failed_links
    }
    drained = faults.failed_nodes
    degraded = {}
    for (u, v), factor in faults.degraded_links.items():
        if u in drained or v in drained:
            continue  # lost whole with its drained node, below
        key = (u, v) if (u, v) <= (v, u) else (v, u)
        degraded[key] = factor

    def crosses(u, v, k: int, half: int) -> bool:
        return u[k] != v[k] and (u[k] < half) != (v[k] < half)

    best: float | None = None
    for k, a in enumerate(torus.dims):
        if a % 2 != 0 or a == 1:
            continue
        half = a // 2
        cut = float(torus.perpendicular_cut(k)) * torus.dim_weights[k]
        for u, v in undirected_failed:
            if crosses(u, v, k, half):
                cut -= torus.dim_weights[k]
        for (u, v), factor in degraded.items():
            if (u, v) not in undirected_failed and crosses(u, v, k, half):
                cut -= torus.dim_weights[k] * (1.0 - factor)
        # A drained node loses all its cut edges in this dimension.
        for n in drained:
            for nb, w in torus.neighbors(n):
                if nb in drained and nb < n:
                    continue  # both ends drained: count the edge once
                if (
                    crosses(n, nb, k, half)
                    and ((n, nb) if (n, nb) <= (nb, n) else (nb, n))
                    not in undirected_failed
                ):
                    cut -= w
        cut = max(cut, 0.0)
        if best is None or cut < best:
            best = cut
    if best is None:
        raise ValueError(
            f"{torus.name} has no even dimension; no perpendicular "
            "bisection exists"
        )
    return best


def default_geometry_for_machine(
    machine: BlueGeneQMachine, num_midplanes: int
) -> PartitionGeometry:
    """The geometry a size-only request gets today on *machine*.

    Mira serves its predefined partition list (Table 6); free-cuboid
    machines (JUQUEEN, Sequoia) may serve the worst permissible cuboid
    — the paper's pessimistic "current" column.
    """
    if machine.name.lower() == "mira":
        policy: PredefinedListPolicy = mira_policy()
        if policy.supports(num_midplanes):
            return policy.geometry_for(num_midplanes)
    return worst_geometry_for_machine(machine, num_midplanes)


# Worker-side memo: partition dims -> (node torus, undirected edges).
# Each worker process rebuilds a geometry's network at most once, no
# matter how many (k, trial) tasks of the grid it executes.
_NET_CACHE: dict[
    tuple[int, ...], tuple[Torus, list[tuple[tuple, tuple]]]
] = {}


def _net_for_dims(dims: tuple[int, ...]) -> tuple[Torus, list]:
    entry = _NET_CACHE.get(dims)
    if entry is None:
        net = PartitionGeometry(dims).network()
        entry = (net, [(u, v) for u, v, _ in net.edges()])
        _NET_CACHE[dims] = entry
    return entry


def _paired_trial(
    task: tuple[tuple[int, ...], tuple[int, ...], int, int],
) -> tuple[float, float]:
    """Surviving bisection of (default, optimal) for one failure draw."""
    default_dims, optimal_dims, k, trial_seed = task
    default_net, default_edges = _net_for_dims(default_dims)
    optimal_net, optimal_edges = _net_for_dims(optimal_dims)
    d_bw = surviving_bisection_bandwidth(
        default_net,
        random_link_failures(
            default_net, k, seed=trial_seed, edges=default_edges
        ),
    )
    o_bw = surviving_bisection_bandwidth(
        optimal_net,
        random_link_failures(
            optimal_net, k, seed=trial_seed, edges=optimal_edges
        ),
    )
    return d_bw, o_bw


@dataclass(frozen=True)
class FaultScenarioRow:
    """One flow-level fault scenario of :func:`fluid_fault_sweep`.

    Attributes
    ----------
    failures:
        Number of failed (undirected) links, ``k``.
    trial:
        Trial index within the failure count.
    seed:
        The scenario's failure-draw seed.
    bandwidth:
        Normalized *surviving* bisection bandwidth measured through the
        flow model (aggregate max-min rate of the still-connected
        antipodal flows over twice the link bandwidth).  Equals the
        healthy fluid bisection at ``k = 0``.
    degraded:
        ``None`` for a fully connected scenario; otherwise the
        :class:`repro.faults.DegradedResult` naming the fault set, a
        severed witness pair, and the disconnected-flow count.  The
        scenario still contributes its surviving bandwidth — a severed
        pair degrades the row, it does not abort the sweep.
    """

    failures: int
    trial: int
    seed: int
    bandwidth: float
    degraded: DegradedResult | None = None


# Worker-side memo for the fluid scenario tasks: (geometry dims, link
# bandwidth) -> (bgq torus, LinkNetwork, undirected edges, vertex list,
# antipodal src/dst arrays, healthy antipodal routes by tie rule).
_FLUID_CACHE: dict[tuple, tuple] = {}


def _fluid_net_for(dims: tuple[int, ...], link_bandwidth: float) -> tuple:
    key = (dims, link_bandwidth)
    entry = _FLUID_CACHE.get(key)
    if entry is None:
        torus = PartitionGeometry(dims).bgq_network()
        net = LinkNetwork(torus, link_bandwidth=link_bandwidth)
        edges = [(u, v) for u, v, _ in torus.edges()]
        src = np.arange(torus.num_vertices, dtype=np.int64)
        dst = _antipode_indices(torus)
        entry = (torus, net, edges, list(torus.vertices()), src, dst, {})
        _FLUID_CACHE[key] = entry
    return entry


def _fluid_scenario(
    task: tuple[tuple[int, ...], int, int, int, float, str],
) -> FaultScenarioRow:
    """Flow-level surviving bandwidth of one seeded failure draw."""
    return _fluid_scenario_block([task])[0]


def _fluid_scenario_block(
    tasks: list[tuple[tuple[int, ...], int, int, int, float, str]],
) -> list[FaultScenarioRow]:
    """Fault scenarios solved as a block: one numpy water-fill.

    Groups the block's scenarios by ``(dims, link_bandwidth, tie)``
    (one group per geometry in practice), routes the healthy antipodal
    pairing once per group and process (memoized with the geometry's
    network), builds each scenario's fault-masked paths
    and capacity plane, stacks them into a
    :class:`~repro.netsim.stacked.StackedPathMatrix`, and solves every
    scenario's max-min rates in a single
    :func:`~repro.netsim.fairness.stacked_max_min_fair_rates` pass.
    This is the only driver path: a single scenario is a block of one.
    Rows are **bit-identical** to solving each scenario alone with the
    scalar reference (differential-tested) — the per-scenario sums index
    the compacted active rates so even float summation order matches.
    """
    rows: list[FaultScenarioRow | None] = [None] * len(tasks)
    groups: dict[tuple, list[int]] = {}
    for i, task in enumerate(tasks):
        dims, _k, _trial, _seed, link_bandwidth, tie = task
        groups.setdefault((dims, link_bandwidth, tie), []).append(i)
    for (dims, link_bandwidth, tie), idxs in groups.items():
        torus, net, edges, verts, src, dst, healthy_by_tie = (
            _fluid_net_for(dims, link_bandwidth)
        )
        healthy = healthy_by_tie.get(tie)
        if healthy is None:
            healthy = healthy_by_tie[tie] = batch_dimension_ordered_routes(
                torus, src, dst, tie=tie
            )
        scenarios = []
        metas = []
        for i in idxs:
            _, k, trial, trial_seed, _, _ = tasks[i]
            faults = random_link_failures(
                torus, k, seed=trial_seed, edges=edges
            )
            pm, disconnected = batch_fault_aware_routes(
                torus, src, dst, faults, tie=tie, healthy=healthy
            )
            caps = (
                fault_capacity_plane(torus, net.capacities, faults)
                if faults
                else net.capacities
            )
            active = None
            if disconnected.size:
                active = np.setdiff1d(
                    np.arange(len(pm), dtype=np.int64),
                    disconnected,
                    assume_unique=True,
                )
            scenarios.append((pm, caps, active))
            metas.append((i, k, trial, trial_seed, faults,
                          disconnected, active))
        stack = StackedPathMatrix.from_scenarios(scenarios)
        flat_rates = stacked_max_min_fair_rates(stack)
        for s, (i, k, trial, trial_seed, faults, disconnected,
                active) in enumerate(metas):
            rates_s = flat_rates[stack.flow_slice(s)]
            if active is not None and active.size == 0:
                surviving = 0.0
            elif active is not None:
                # Compact before summing: same values in the same
                # order as a one-scenario solve's active-rate vector, so
                # the pairwise float sum is bit-identical.
                surviving = float(rates_s[active].sum()) / (
                    2.0 * link_bandwidth
                )
            else:
                surviving = float(rates_s.sum()) / (2.0 * link_bandwidth)
            degraded = None
            if disconnected.size:
                j = int(disconnected[0])
                degraded = DegradedResult(
                    scenario=(k, trial),
                    faults=faults,
                    witness=(
                        verts[int(src[j])], verts[int(dst[j])]
                    ),
                    disconnected_flows=int(disconnected.size),
                )
            rows[i] = FaultScenarioRow(
                failures=k,
                trial=trial,
                seed=trial_seed,
                bandwidth=surviving,
                degraded=degraded,
            )
    return rows  # type: ignore[return-value]


register_block_runner(
    _fluid_scenario, _fluid_scenario_block, max_block_tasks=256
)


def fluid_fault_sweep(
    geometry: PartitionGeometry,
    max_failures: int = 4,
    trials: int = 10,
    seed: int = 0,
    jobs: int | None = 1,
    checkpoint=None,
    link_bandwidth: float = LINK_BANDWIDTH_GB_PER_S,
    tie: str = "parity",
) -> list[FaultScenarioRow]:
    """Flow-level fault scenarios on one geometry, degraded not aborted.

    For every ``k = 0..max_failures`` and trial, fails ``k`` seeded
    links of the geometry's node-level torus, routes the full antipodal
    pairing through the fault-masked batch router
    (:func:`repro.netsim.batchroute.batch_fault_aware_routes`), and
    measures the surviving flows' aggregate max-min bandwidth.  A
    scenario whose fault set severs some pair yields a row carrying a
    :class:`repro.faults.DegradedResult` — the sweep never raises
    :class:`~repro.faults.PartitionDisconnectedError`.

    The ``(k, trial)`` grid runs through :func:`repro.parallel.sweep_map`
    with the same pairing of seeds as :func:`degraded_bisection_study`
    (``seed + 1000·k + t``), so rows are bit-identical across ``jobs``;
    *checkpoint* (a JSONL path) enables resumable execution via
    :mod:`repro.resilience`.
    """
    check_nonnegative_int(max_failures, "max_failures")
    check_positive_int(trials, "trials")
    counts = [1 if k == 0 else trials for k in range(max_failures + 1)]
    tasks = [
        (geometry.dims, k, t, seed + 1000 * k + t, link_bandwidth, tie)
        for k, n_trials in enumerate(counts)
        for t in range(n_trials)
    ]
    with observability.span(
        "experiment.faultstudy.fluid", scenarios=len(tasks)
    ):
        rows = sweep_map(
            _fluid_scenario, tasks, jobs=jobs, checkpoint=checkpoint
        )
    if observability.OBS.enabled:
        observability.counter_add(
            "faultstudy.degraded_scenarios",
            sum(1 for r in rows if r.degraded is not None),
        )
    return rows


def degraded_bisection_study(
    machine: BlueGeneQMachine,
    num_midplanes: int,
    max_failures: int = 8,
    trials: int = 20,
    seed: int = 0,
    jobs: int | None = 1,
    fluid_check: bool = False,
    checkpoint=None,
) -> list[DegradedBisectionRow]:
    """Default-vs-optimal bisection under ``k = 0..max_failures`` failures.

    Returns one row per failure count (including the healthy ``k = 0``
    baseline, whose bandwidths equal the paper's Tables 1–2 values).
    Failure draws are paired: trial ``t`` uses the same seed on both
    geometries, so the stability fraction compares like with like.

    With ``jobs > 1`` the (failure count × trial) grid is evaluated in
    worker processes (:func:`repro.parallel.sweep_map`); each trial's
    seed is fixed by its grid position, so the rows are bit-identical
    to a serial run.

    With ``fluid_check=True`` the pristine ``k = 0`` row is additionally
    verified against the flow-level simulator: the batch-routed
    antipodal pairing's aggregate max-min rate
    (:func:`repro.experiments.pairing.fluid_bisection_bandwidth`) must
    reproduce both geometries' cut-arithmetic bandwidths, else a
    :class:`RuntimeError` is raised.  The rows themselves are unchanged.

    *checkpoint* (a JSONL path) journals completed trials and resumes a
    killed run from them (see :mod:`repro.resilience`).
    """
    check_positive_int(num_midplanes, "num_midplanes")
    check_nonnegative_int(max_failures, "max_failures")
    check_positive_int(trials, "trials")
    default = default_geometry_for_machine(machine, num_midplanes)
    optimal = best_geometry_for_machine(machine, num_midplanes)

    counts = [1 if k == 0 else trials for k in range(max_failures + 1)]
    tasks = [
        (default.dims, optimal.dims, k, seed + 1000 * k + t)
        for k, n_trials in enumerate(counts)
        for t in range(n_trials)
    ]
    with observability.span(
        "experiment.faultstudy", trials=len(tasks)
    ):
        results = sweep_map(
            _paired_trial, tasks, jobs=jobs, checkpoint=checkpoint
        )

    if fluid_check:
        from .pairing import fluid_bisection_bandwidth

        for label, geometry in (("default", default), ("optimal", optimal)):
            static_bw = surviving_bisection_bandwidth(
                geometry.network(), FaultSet()
            )
            fluid_bw = fluid_bisection_bandwidth(geometry)
            if not math.isclose(fluid_bw, static_bw, rel_tol=1e-9):
                raise RuntimeError(
                    f"fluid cross-check failed for the {label} geometry "
                    f"{geometry.dims}: flow-level bisection {fluid_bw} "
                    f"vs cut arithmetic {static_bw}"
                )

    rows: list[DegradedBisectionRow] = []
    offset = 0
    for k, n_trials in enumerate(counts):
        pairs = results[offset : offset + n_trials]
        offset += n_trials
        d_vals = [d for d, _ in pairs]
        o_vals = [o for _, o in pairs]
        stable = sum(1 for d, o in pairs if o >= d)
        rows.append(
            DegradedBisectionRow(
                failures=k,
                trials=n_trials,
                default_mean_bw=sum(d_vals) / n_trials,
                default_min_bw=min(d_vals),
                optimal_mean_bw=sum(o_vals) / n_trials,
                optimal_min_bw=min(o_vals),
                ranking_stable_fraction=stable / n_trials,
            )
        )
    return rows
