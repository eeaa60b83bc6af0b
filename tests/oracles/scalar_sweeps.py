"""Per-task sweep oracles: the pairing and fault-grid rows, one at a time.

The experiment drivers compute every sweep row through a block form
(``_pairing_block``, ``_fluid_scenario_block``): batch routing, a
stacked path matrix and one stacked water-fill for the whole block.
These are the scalar references the differential suites pin those rows
to, bit for bit:

* :func:`pairing_result` routes each antipodal pair on its own with
  :func:`repro.netsim.routing.dimension_ordered_route` and runs the
  scalar fluid loop of :mod:`tests.oracles.scalar_fluid`;
* :func:`fault_scenario_row` applies the failure draw with
  ``LinkNetwork.with_faults``, re-routes each pair the faults touch
  with the scalar :func:`~repro.netsim.routing.fault_aware_route`, and
  solves the surviving flows with the scalar water-fill of
  :mod:`tests.oracles.scalar_water_fill`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.allocation.geometry import PartitionGeometry
from repro.experiments.faultstudy import FaultScenarioRow
from repro.experiments.pairing import PairingParameters, PairingResult
from repro.faults import (
    DegradedResult,
    PartitionDisconnectedError,
    random_link_failures,
)
from repro.netsim.batchroute import PathMatrix
from repro.netsim.network import LinkNetwork
from repro.netsim.routing import dimension_ordered_route, fault_aware_route
from repro.netsim.traffic import bisection_pairing

from .scalar_fluid import ScalarFluidSimulation
from .scalar_water_fill import scalar_max_min_fair_rates


def pairing_result(
    geometry: PartitionGeometry, params: PairingParameters | None = None
) -> PairingResult:
    """The pairing benchmark on *geometry*, routed pair by pair."""
    if params is None:
        params = PairingParameters()
    torus = geometry.bgq_network()
    net = LinkNetwork(torus, link_bandwidth=params.link_bandwidth)
    paths = [
        net.path_to_links(dimension_ordered_route(torus, s, d, tie=params.tie))
        for s, d in bisection_pairing(torus)
    ]
    volume = params.volume_per_pair_gb
    makespan, _, rates = ScalarFluidSimulation(
        net, paths, [volume] * len(paths)
    ).solve()
    return PairingResult(
        geometry=geometry,
        time_seconds=makespan,
        min_rate=float(rates.min()),
        max_rate=float(rates.max()),
        num_flows=len(paths),
    )


@lru_cache(maxsize=8)
def _pairing_on(dims: tuple[int, ...], link_bandwidth: float, tie: str):
    """Torus, network, undirected edges, antipodal pairs and their
    scalar-routed healthy paths for one geometry (memoized, as the
    driver memoizes its own)."""
    torus = PartitionGeometry(dims).bgq_network()
    net = LinkNetwork(torus, link_bandwidth=link_bandwidth)
    edges = [(u, v) for u, v, _ in torus.edges()]
    pairs = bisection_pairing(torus)
    healthy = PathMatrix.from_paths(
        [
            net.path_to_links(dimension_ordered_route(torus, s, d, tie=tie))
            for s, d in pairs
        ]
    )
    return torus, net, edges, pairs, healthy


def fault_scenario_row(
    task: tuple[tuple[int, ...], int, int, int, float, str],
) -> FaultScenarioRow:
    """One ``fluid_fault_sweep`` row, computed scenario by scenario.

    *task* is the sweep's ``(dims, k, trial, seed, link_bandwidth,
    tie)`` tuple.  A pair keeps its healthy path unless that path
    crosses a failed link or an endpoint is down; then the scalar
    :func:`fault_aware_route` routes it alone (and returns the healthy
    path whenever no fault blocks it).
    """
    dims, k, trial, trial_seed, link_bandwidth, tie = task
    torus, net, edges, pairs, healthy = _pairing_on(dims, link_bandwidth, tie)
    faults = random_link_failures(torus, k, seed=trial_seed, edges=edges)
    fnet = net.with_faults(faults) if faults else net
    paths = list(healthy)
    disconnected: list[int] = []
    if faults:
        dead = np.isin(healthy.link_ids, fnet.failed_link_ids())
        hit = np.zeros(len(pairs), dtype=bool)
        hit[healthy.flow_ids()[dead]] = True
        for i, (s, d) in enumerate(pairs):
            if not (
                hit[i] or faults.is_failed_node(s) or faults.is_failed_node(d)
            ):
                continue
            try:
                route = fault_aware_route(torus, s, d, faults, tie=tie)
            except PartitionDisconnectedError:
                disconnected.append(i)
                paths[i] = np.empty(0, dtype=np.int64)
            else:
                paths[i] = net.path_to_links(route)
    active = None
    if disconnected:
        active = np.setdiff1d(
            np.arange(len(paths), dtype=np.int64),
            np.asarray(disconnected, dtype=np.int64),
            assume_unique=True,
        )
    if active is not None and active.size == 0:
        surviving = 0.0
    else:
        rates = scalar_max_min_fair_rates(
            paths, fnet.capacities, active=active
        )
        surviving = float(rates.sum()) / (2.0 * link_bandwidth)
    degraded = None
    if disconnected:
        degraded = DegradedResult(
            scenario=(k, trial),
            faults=faults,
            witness=pairs[disconnected[0]],
            disconnected_flows=len(disconnected),
        )
    return FaultScenarioRow(
        failures=k,
        trial=trial,
        seed=trial_seed,
        bandwidth=surviving,
        degraded=degraded,
    )
