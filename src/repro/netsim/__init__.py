"""Flow-level network contention simulator (S6 in DESIGN.md).

The experimental substrate replacing the Blue Gene/Q hardware:
capacitated directed links (:mod:`~repro.netsim.network`), deterministic
dimension-ordered torus routing (:mod:`~repro.netsim.routing`, with a
vectorized batch router and CSR path container in
:mod:`~repro.netsim.batchroute`), max-min fair rate allocation
(:mod:`~repro.netsim.fairness`), a fluid completion-time engine
(:mod:`~repro.netsim.fluid`), traffic patterns
(:mod:`~repro.netsim.traffic`), and rank-to-node embeddings
(:mod:`~repro.netsim.embedding`).
"""

from .batchroute import (
    PathMatrix,
    TorusLinkLayout,
    batch_dimension_ordered_routes,
    batch_fault_aware_routes,
    fault_capacity_plane,
    fault_link_mask,
    link_layout,
    masked_bfs_links,
    vertex_indices,
)
from .collectives import (
    pairwise_alltoall,
    recursive_doubling_allreduce,
    ring_allgather,
    ring_pass,
)
from .embedding import RankEmbedding, block_embedding, node_enumeration
from .fairness import max_min_fair_rates, stacked_max_min_fair_rates
from .fluid import (
    FlowResult,
    FluidSimulation,
    StackedFluidSimulation,
    simulate_flows,
)
from .network import LinkNetwork
from .routing import (
    PartitionDisconnectedError,
    bfs_route,
    check_tie,
    dimension_ordered_route,
    fault_aware_route,
    route,
)
from .schedule import RouteCache, TransferRound, simulate_rounds
from .stacked import StackedPathMatrix, segment_min
from .traffic import (
    all_pairs_uniform,
    bisection_pairing,
    dimension_shift,
    random_permutation,
    tornado,
)

__all__ = [
    "LinkNetwork",
    "PathMatrix",
    "TorusLinkLayout",
    "batch_dimension_ordered_routes",
    "batch_fault_aware_routes",
    "fault_capacity_plane",
    "fault_link_mask",
    "link_layout",
    "masked_bfs_links",
    "vertex_indices",
    "StackedPathMatrix",
    "segment_min",
    "dimension_ordered_route",
    "bfs_route",
    "route",
    "fault_aware_route",
    "check_tie",
    "PartitionDisconnectedError",
    "max_min_fair_rates",
    "stacked_max_min_fair_rates",
    "FluidSimulation",
    "StackedFluidSimulation",
    "FlowResult",
    "simulate_flows",
    "bisection_pairing",
    "dimension_shift",
    "random_permutation",
    "all_pairs_uniform",
    "tornado",
    "RankEmbedding",
    "block_embedding",
    "node_enumeration",
    "RouteCache",
    "TransferRound",
    "simulate_rounds",
    "ring_allgather",
    "recursive_doubling_allreduce",
    "pairwise_alltoall",
    "ring_pass",
]
