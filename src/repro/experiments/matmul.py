"""Experiment B — CAPS fast matrix multiplication (Table 3, Figure 5).

Drives the CAPS communication schedule (:mod:`repro.kernels.caps`)
through the network simulator on a given partition geometry:

1. ranks are placed on nodes with the block embedding (Table 3's
   multi-core rank counts);
2. for every BFS step, the rank exchange pairs are aggregated into a
   node-to-node traffic matrix (intra-node pairs drop out);
3. each round's node pairs are batch-routed dimension-ordered in one
   pass (:func:`repro.netsim.batchroute.batch_dimension_ordered_routes`)
   and the round's time is its bottleneck link load over capacity
   (:meth:`repro.netsim.network.LinkNetwork.bottleneck_time`);
4. step times add up (CAPS steps are globally synchronized), yielding
   the communication time; computation time comes from the calibrated
   flop rate and is geometry-independent.

The aggregation is vectorized: peers at a step differ by a fixed rank
stride within contiguous groups, so the full pair list is a handful of
NumPy expressions even for the 117 649-rank runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import observability
from .._validation import check_positive_float, check_positive_int
from ..allocation.geometry import PartitionGeometry
from ..kernels.caps import CapsConfig, caps_computation_time, caps_steps
from ..kernels.costmodel import LINK_BANDWIDTH_GB_PER_S
from ..netsim.batchroute import batch_dimension_ordered_routes
from ..netsim.embedding import block_embedding
from ..netsim.network import LinkNetwork

__all__ = ["MatmulResult", "run_caps_on_geometry", "step_traffic_matrix"]

_GB = 1024.0**3


@dataclass(frozen=True)
class MatmulResult:
    """Outcome of one simulated CAPS run.

    Attributes
    ----------
    geometry:
        Partition geometry the run used.
    num_ranks:
        MPI ranks (Table 3).
    matrix_dim:
        Matrix dimension ``n``.
    communication_time:
        Simulated network time (s) summed over BFS steps — the paper's
        Figure 5 quantity.
    computation_time:
        Local multiply time (s) from the calibrated flop rate —
        geometry-independent, as the paper observes.
    step_times:
        Per-BFS-step communication times (s), outermost first.
    """

    geometry: PartitionGeometry
    num_ranks: int
    matrix_dim: int
    communication_time: float
    computation_time: float
    step_times: tuple[float, ...]

    @property
    def total_time(self) -> float:
        """Wall-clock: computation + (non-overlapped) communication."""
        return self.communication_time + self.computation_time


def step_traffic_matrix(
    num_ranks: int,
    stride: int,
    group_size: int,
    node_of_rank: np.ndarray,
    round_offset: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate one BFS step's rank pairs into node-to-node traffic.

    With ``round_offset=j`` (1 <= j < group_size), only the *j*-th
    exchange round is generated: every rank sends to the partner ``j``
    subgroups ahead (cyclically) — the pairwise-exchange schedule of the
    CAPS implementation.  With ``round_offset=None`` all ``g - 1``
    partners are superposed (a fully-overlapped schedule).

    Returns ``(src_nodes, dst_nodes, pair_counts)``: the distinct
    inter-node pairs and how many rank pairs map to each.  Vectorized
    over all pairs.
    """
    check_positive_int(num_ranks, "num_ranks")
    check_positive_int(stride, "stride")
    check_positive_int(group_size, "group_size")
    r = np.arange(num_ranks, dtype=np.int64)
    block = group_size * stride
    base = (r // block) * block
    offset = r % stride
    mine = (r - base) // stride
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    if round_offset is None:
        rounds = range(1, group_size)
    else:
        if not 1 <= round_offset < group_size:
            raise ValueError(
                f"round_offset must be in [1, {group_size - 1}], got "
                f"{round_offset}"
            )
        rounds = range(round_offset, round_offset + 1)
    for j in rounds:
        target = (mine + j) % group_size
        peer = base + target * stride + offset
        srcs.append(node_of_rank[r])
        dsts.append(node_of_rank[peer])
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    inter = src != dst
    src = src[inter]
    dst = dst[inter]
    if len(src) == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    n_nodes = int(node_of_rank.max()) + 1
    key = src * n_nodes + dst
    uniq, counts = np.unique(key, return_counts=True)
    return uniq // n_nodes, uniq % n_nodes, counts


@observability.profiled("experiment.caps.run")
def run_caps_on_geometry(
    geometry: PartitionGeometry,
    num_ranks: int,
    matrix_dim: int,
    max_cores: int | None = None,
    link_bandwidth: float = LINK_BANDWIDTH_GB_PER_S,
    comm_slowdown: float = 1.0,
    schedule: str = "rounds",
    digit_order: str = "deep-major",
    node_order: str = "tedcba",
) -> MatmulResult:
    """Simulate one CAPS execution on a partition geometry.

    Parameters
    ----------
    geometry:
        Partition geometry (midplanes).
    num_ranks:
        Total MPI ranks, ``f · 7^k`` (Table 3 values).
    matrix_dim:
        Matrix dimension ``n``.
    max_cores:
        Active-core cap per node (Table 3's "Max. active cores"); the
        block embedding refuses rank counts that would exceed it.
    link_bandwidth:
        GB/s per link direction.
    comm_slowdown:
        Multiplier on communication time (used by the strong-scaling
        experiment to model the L2-spill effect on 2 midplanes).
    schedule:
        ``"rounds"`` (default) executes each BFS step as ``g - 1``
        sequential pairwise exchange rounds, like the reference
        implementation; ``"superposition"`` overlaps all partners of a
        step (idealized fully-pipelined exchange).  The rounds schedule
        concentrates each round's traffic into a shift permutation and
        is the one that reproduces the paper's geometry sensitivity.
    digit_order:
        Rank-digit layout of the recursion tree (see
        :func:`repro.kernels.caps.caps_steps`).
    node_order:
        Node walk order of the block embedding: ``"tedcba"`` (default
        here — longest dimension varies fastest) or ``"abcdet"`` (the
        launcher default — shortest dimension varies fastest).  The two
        bracket the paper's measured geometry sensitivity; the paper's
        multi-core runs used a custom mapping chosen "to minimize the
        imbalance", and "tedcba" is the one that reproduces the paper's
        reported ×1.37–×1.52 communication ratios.  See EXPERIMENTS.md.

    Examples
    --------
    >>> res = run_caps_on_geometry(
    ...     PartitionGeometry((2, 1, 1, 1)), num_ranks=343, matrix_dim=2744)
    >>> res.computation_time > 0 and res.communication_time > 0
    True
    """
    check_positive_int(num_ranks, "num_ranks")
    check_positive_int(matrix_dim, "matrix_dim")
    check_positive_float(link_bandwidth, "link_bandwidth")
    check_positive_float(comm_slowdown, "comm_slowdown")
    if schedule not in ("rounds", "superposition"):
        raise ValueError(
            f"schedule must be 'rounds' or 'superposition', got {schedule!r}"
        )

    torus = geometry.bgq_network()
    net = LinkNetwork(torus, link_bandwidth=link_bandwidth)
    emb = block_embedding(
        torus, num_ranks, max_ranks_per_node=max_cores,
        node_order=node_order,
    )
    node_of_rank = emb.node_indices

    config = CapsConfig(
        n=matrix_dim, num_ranks=num_ranks, digit_order=digit_order
    )
    step_times: list[float] = []
    for step in caps_steps(config):
        gb_per_pair = step.bytes_per_rank / (step.group_size - 1) / _GB
        # Superposition is one round holding every partner (offset None).
        rounds = (
            [None] if schedule == "superposition"
            else range(1, step.group_size)
        )
        total = 0.0
        for j in rounds:
            src_n, dst_n, counts = step_traffic_matrix(
                num_ranks, step.stride, step.group_size, node_of_rank,
                round_offset=j,
            )
            total += net.bottleneck_time(
                batch_dimension_ordered_routes(torus, src_n, dst_n),
                counts * gb_per_pair,
            )
        step_times.append(total)
    comm = sum(step_times) * comm_slowdown
    comp = caps_computation_time(config)
    return MatmulResult(
        geometry=geometry,
        num_ranks=num_ranks,
        matrix_dim=matrix_dim,
        communication_time=comm,
        computation_time=comp,
        step_times=tuple(t * comm_slowdown for t in step_times),
    )
