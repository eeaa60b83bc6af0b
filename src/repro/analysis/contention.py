"""Contention-sensitivity analysis of computation kernels.

The paper's future-work section predicts that kernels with higher
asymptotic contention lower bounds — direct N-body, classical matrix
multiplication, FFT — benefit *more* from improved partition bisection
than fast matrix multiplication does.  This module quantifies that via
the framework of Ballard et al. (reference [7]): combine a kernel's
per-processor communication volume with the partition's small-set
expansion/bisection to bound the contention time, then compare the
bound across geometries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import check_positive_float, check_positive_int
from ..allocation.geometry import PartitionGeometry
from ..kernels.caps import CapsConfig, caps_total_words_per_rank
from ..kernels.classical import (
    nbody_ring_words_per_rank,
    summa_words_per_rank,
)
from ..kernels.costmodel import LINK_BANDWIDTH_GB_PER_S, WORD_BYTES

__all__ = [
    "KernelContention",
    "caps_contention",
    "summa_contention",
    "nbody_contention",
    "geometry_sensitivity",
]

_GB = 1024.0**3


@dataclass(frozen=True)
class KernelContention:
    """Contention lower bound of a kernel on a partition.

    Attributes
    ----------
    kernel:
        Kernel name.
    words_per_rank:
        Per-processor communication volume (words).
    bound_seconds:
        Contention time if every word of one half crosses the bisection:
        ``(ranks/2 · words · bytes) / (bisection links · link GB/s)``.
        A lower bound on the simulated time only for the default
        ``rounds`` schedule with the ``tedcba`` embedding (checked by
        ``tests/integration/test_cross_validation.py::TestModelVsTheory::test_contention_bound_is_a_true_lower_bound``);
        ``schedule="superposition"`` and ``node_order="abcdet"`` beat
        it by up to 2× (simulated/bound 0.51 and 0.88).
    """

    kernel: str
    geometry: PartitionGeometry
    num_ranks: int
    words_per_rank: float
    bound_seconds: float


def _bisection_bound(
    geometry: PartitionGeometry,
    num_ranks: int,
    words_per_rank: float,
    kernel: str,
    link_bandwidth: float,
) -> KernelContention:
    bw_links = geometry.normalized_bisection_bandwidth
    bytes_crossing = (num_ranks / 2.0) * words_per_rank * WORD_BYTES
    seconds = bytes_crossing / (_GB * bw_links * link_bandwidth)
    return KernelContention(
        kernel=kernel,
        geometry=geometry,
        num_ranks=num_ranks,
        words_per_rank=words_per_rank,
        bound_seconds=seconds,
    )


def caps_contention(
    geometry: PartitionGeometry,
    num_ranks: int,
    matrix_dim: int,
    link_bandwidth: float = LINK_BANDWIDTH_GB_PER_S,
) -> KernelContention:
    """Contention bound of CAPS fast matmul on a partition."""
    check_positive_int(matrix_dim, "matrix_dim")
    words = caps_total_words_per_rank(
        CapsConfig(n=matrix_dim, num_ranks=num_ranks)
    )
    return _bisection_bound(
        geometry, num_ranks, words, "caps-strassen", link_bandwidth
    )


def summa_contention(
    geometry: PartitionGeometry,
    num_ranks: int,
    matrix_dim: int,
    link_bandwidth: float = LINK_BANDWIDTH_GB_PER_S,
) -> KernelContention:
    """Contention bound of classical SUMMA matmul on a partition."""
    words = summa_words_per_rank(matrix_dim, num_ranks)
    return _bisection_bound(
        geometry, num_ranks, words, "summa-classical", link_bandwidth
    )


def nbody_contention(
    geometry: PartitionGeometry,
    num_ranks: int,
    num_bodies: int,
    link_bandwidth: float = LINK_BANDWIDTH_GB_PER_S,
) -> KernelContention:
    """Contention bound of direct N-body (ring pass) on a partition."""
    words = nbody_ring_words_per_rank(num_bodies, num_ranks)
    return _bisection_bound(
        geometry, num_ranks, words, "nbody-direct", link_bandwidth
    )


def geometry_sensitivity(
    a: KernelContention, b: KernelContention
) -> float:
    """Contention-bound ratio between two geometries for one kernel.

    With equal rank counts and volumes this reduces to the inverse
    bandwidth ratio — i.e. the maximum speedup reallocation can give a
    fully contention-bound kernel.
    """
    if a.kernel != b.kernel:
        raise ValueError(
            f"cannot compare different kernels: {a.kernel} vs {b.kernel}"
        )
    check_positive_float(b.bound_seconds, "bound_seconds")
    return a.bound_seconds / b.bound_seconds
