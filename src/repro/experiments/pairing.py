"""Experiment A — the bisection pairing benchmark (Figures 3 and 4).

Reproduces the paper's furthest-node ping-pong: every node exchanges
fixed-size messages with the node at maximal hop distance, all pairs
simultaneously, for a number of rounds.  On the real machines this
saturates the partition bisection; in the reproduction the same traffic
is driven through the max-min fluid simulator, whose bottleneck is the
same set of links.

Paper parameters (Section 4.1): 30 rounds of which 4 are uncounted
warm-up, total volume 2 GB per pair per round sent as 16 chunks of
0.1342 GB, links at 2 GB/s per direction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .. import observability
from .._validation import check_positive_float, check_positive_int
from ..allocation.geometry import PartitionGeometry
from ..kernels.costmodel import LINK_BANDWIDTH_GB_PER_S
from ..netsim.batchroute import (
    PathMatrix, _route_links, batch_dimension_ordered_routes, link_layout,
)
from ..netsim.fairness import max_min_fair_rates
from ..netsim.fluid import StackedFluidSimulation
from ..netsim.network import LinkNetwork
from ..netsim.stacked import StackedPathMatrix
from ..parallel import register_block_runner, sweep_map
from ..topology.torus import Torus

__all__ = [
    "PairingParameters",
    "PairingResult",
    "pairing_path_matrix",
    "fluid_bisection_bandwidth",
    "run_pairing",
    "run_pairing_sweep",
]


@dataclass(frozen=True)
class PairingParameters:
    """Knobs of the bisection pairing benchmark (paper defaults).

    Attributes
    ----------
    rounds:
        Counted communication rounds (26 in the paper: 30 minus 4
        warm-up rounds, which are not timed).
    chunks_per_round:
        Message chunks per pair per round (16).
    chunk_gb:
        Chunk size in GB (0.1342).
    link_bandwidth:
        Link capacity, GB/s per direction (2.0).
    tie:
        Routing tie-break for exact-half ring distances (see
        :func:`repro.netsim.routing.dimension_ordered_route`).
    """

    rounds: int = 26
    chunks_per_round: int = 16
    chunk_gb: float = 0.1342
    link_bandwidth: float = LINK_BANDWIDTH_GB_PER_S
    tie: str = "parity"

    def __post_init__(self) -> None:
        check_positive_int(self.rounds, "rounds")
        check_positive_int(self.chunks_per_round, "chunks_per_round")
        check_positive_float(self.chunk_gb, "chunk_gb")
        check_positive_float(self.link_bandwidth, "link_bandwidth")

    @property
    def volume_per_pair_gb(self) -> float:
        """Total counted volume each pair sends in each direction (GB)."""
        return self.rounds * self.chunks_per_round * self.chunk_gb


@dataclass(frozen=True)
class PairingResult:
    """Outcome of one pairing run on one partition geometry.

    Attributes
    ----------
    geometry:
        The partition geometry.
    time_seconds:
        Simulated wall-clock for all pairs to finish all rounds (the
        paper's y-axis in Figures 3/4, "average time required for a pair
        of nodes to complete all rounds" — in the fluid model all pairs
        finish together for symmetric geometries).
    min_rate, max_rate:
        Extremes of the per-flow max-min rates at t=0 (GB/s); equal for
        fully symmetric patterns.
    num_flows:
        Number of simulated flows (= nodes; each node sends one stream).
    """

    geometry: PartitionGeometry
    time_seconds: float
    min_rate: float
    max_rate: float
    num_flows: int

    @property
    def num_midplanes(self) -> int:
        return self.geometry.num_midplanes


def pairing_path_matrix(torus: Torus, tie: str = "parity") -> PathMatrix:
    """Batch-routed paths of the full bisection pairing on *torus*.

    Every node to its antipode, dimension-ordered, in
    ``Torus.vertices()`` (row-major) flow order — the CSR equivalent of
    routing :func:`repro.netsim.traffic.bisection_pairing` pair by pair,
    link-for-link identical to the scalar router.
    """
    src = np.arange(torus.num_vertices, dtype=np.int64)
    return batch_dimension_ordered_routes(
        torus, src, _antipode_indices(torus), tie=tie
    )


def _antipode_indices(torus: Torus) -> np.ndarray:
    """Every vertex's antipode rank, one dimension at a time: each moves
    a rank ``a // 2`` strides on, ``a`` strides back where it wraps."""
    ranks = np.arange(torus.num_vertices, dtype=np.int64)
    dst = ranks.copy()
    stride = torus.num_vertices
    for a in torus.dims:
        stride //= a
        half = a // 2
        dst += half * stride
        dst -= (ranks // stride % a >= a - half) * (a * stride)
    return dst


def fluid_bisection_bandwidth(
    geometry: PartitionGeometry,
    link_bandwidth: float = LINK_BANDWIDTH_GB_PER_S,
    tie: str = "parity",
) -> float:
    """Normalized bisection bandwidth *measured* through the flow model.

    Routes the full antipodal pairing on the geometry's node-level torus
    and solves one max-min allocation; the aggregate rate, divided by
    twice the per-link bandwidth, is the partition's bisection bandwidth
    in link units — directly comparable to the static cut arithmetic of
    :func:`repro.machines.bgq.normalized_bisection_bandwidth`.  Used as
    an optional cross-check by the fault study and design search
    (pristine topology only).
    """
    check_positive_float(link_bandwidth, "link_bandwidth")
    torus = geometry.bgq_network()
    net = LinkNetwork(torus, link_bandwidth=link_bandwidth)
    rates = max_min_fair_rates(
        pairing_path_matrix(torus, tie=tie), net.capacities
    )
    return float(rates.sum()) / (2.0 * link_bandwidth)


@observability.profiled("experiment.pairing.run")
def run_pairing(
    geometry: PartitionGeometry,
    params: PairingParameters | None = None,
) -> PairingResult:
    """Simulate the bisection pairing benchmark on *geometry*.

    Builds the partition's node-level torus, routes every node's stream
    to its antipode with dimension-ordered routing, and runs the fluid
    contention simulation to completion.

    Examples
    --------
    >>> r = run_pairing(PartitionGeometry((2, 2, 1, 1)))
    >>> round(r.time_seconds, 1)
    55.8
    """
    if params is None:
        params = PairingParameters()
    return _pairing_block([(geometry, params)])[0]


def _pairing_task(
    task: tuple[PartitionGeometry, PairingParameters],
) -> PairingResult:
    return _pairing_block([task])[0]


def _pairing_block(
    tasks: list[tuple[PartitionGeometry, PairingParameters]],
) -> list[PairingResult]:
    """The pairing benchmark on a block of geometries: one fluid loop.

    Each geometry's antipodal pairing becomes one scenario of a
    :class:`~repro.netsim.stacked.StackedPathMatrix`; a single
    :class:`~repro.netsim.fluid.StackedFluidSimulation` then advances
    all of them together.  This is the only driver path: a single
    geometry is a block of one.
    """
    stack = _pairing_stack(tasks)
    flat_volumes = np.repeat(
        [params.volume_per_pair_gb for _, params in tasks],
        np.diff(stack.flow_base),
    )
    sim = StackedFluidSimulation(stack, flat_volumes)
    makespans, _completions, initial_rates = sim.solve()
    results = []
    for s, (geometry, params) in enumerate(tasks):
        rates = initial_rates[stack.flow_slice(s)]
        results.append(
            PairingResult(
                geometry=geometry,
                time_seconds=float(makespans[s]),
                min_rate=float(rates.min()),
                max_rate=float(rates.max()),
                num_flows=int(stack.flow_base[s + 1] - stack.flow_base[s]),
            )
        )
    if observability.OBS.enabled:
        observability.counter_add("pairing.runs", len(tasks))
        observability.counter_add("pairing.flows", stack.num_flows)
        observability.counter_add(
            "pairing.gb", float(flat_volumes.sum())
        )
    return results


def _pairing_stack(
    tasks: list[tuple[PartitionGeometry, PairingParameters]],
) -> StackedPathMatrix:
    """The :meth:`StackedPathMatrix.from_scenarios` stack of the block's
    :func:`pairing_path_matrix` routes, built without a second copy: an
    antipodal route is ``torus.diameter`` hops, so the planes are sized
    first and each geometry routes straight into its span of them."""
    tori = [geometry.bgq_network() for geometry, _ in tasks]
    flow_base = np.cumsum([0] + [t.num_vertices for t in tori])
    entry_base = np.cumsum([0] + [t.num_vertices * t.diameter for t in tori])
    link_base = np.cumsum(
        [0] + [t.num_vertices * link_layout(t).degree for t in tori]
    )
    link_ids = np.empty(entry_base[-1], dtype=np.int64)
    offsets = np.zeros(flow_base[-1] + 1, dtype=np.int64)
    capacities = np.empty(link_base[-1], dtype=float)
    for s, (torus, (_, params)) in enumerate(zip(tori, tasks)):
        e0, e1 = entry_base[s], entry_base[s + 1]
        _, local = _route_links(
            torus, np.arange(torus.num_vertices), _antipode_indices(torus),
            tie=params.tie, out=link_ids[e0:e1], base=int(link_base[s]),
        )
        offsets[flow_base[s] + 1 : flow_base[s + 1] + 1] = local[1:] + e0
        capacities[link_base[s] : link_base[s + 1]] = LinkNetwork(
            torus, link_bandwidth=params.link_bandwidth
        ).capacities
    return StackedPathMatrix(
        link_ids, offsets, flow_base, link_base, capacities
    )


register_block_runner(_pairing_task, _pairing_block, max_block_tasks=64)


def run_pairing_sweep(
    geometries: Sequence[PartitionGeometry],
    params: PairingParameters | None = None,
    jobs: int | None = 1,
    checkpoint=None,
    transport: str | None = None,
) -> list[PairingResult]:
    """Run the pairing benchmark over many geometries.

    The geometry grid behind Figures 3 and 4 (current vs proposed at
    every size) is embarrassingly parallel: one fluid simulation per
    geometry, no shared state.  With ``jobs > 1`` the simulations run in
    worker processes via :func:`repro.parallel.sweep_map`; results come
    back in *geometries* order and are bit-identical to the serial path.
    *checkpoint* (a JSONL path) journals completed geometries and
    resumes a killed sweep from them (see :mod:`repro.resilience`).
    *transport* selects how parallel blocks move to workers
    (``"auto"``/``"shm"``/``"pickle"``, see :mod:`repro.sharedmem`).
    """
    if params is None:
        params = PairingParameters()
    with observability.span(
        "experiment.pairing.sweep", geometries=len(geometries)
    ):
        return sweep_map(
            _pairing_task,
            [(g, params) for g in geometries],
            jobs=jobs,
            checkpoint=checkpoint,
            transport=transport,
        )
