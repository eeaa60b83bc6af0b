"""Performance benchmarks for the isoperimetric core.

These are genuine pytest-benchmark measurements (many rounds) of the
hot combinatorial routines: the Theorem 3.1 bound, the exhaustive
cuboid optimizer on production-size tori, Harper/Lindsey closed forms,
and the exact solver, which scores all 2^n subsets from one vectorized
cut table (the 4×3×2 torus: a 2^23-entry table scanned in 2^12-mask
rows, set-up included).
"""

from __future__ import annotations

import pytest

from repro.isoperimetry.bounds import torus_isoperimetric_bound
from repro.isoperimetry.cuboids import best_cuboid, cuboid_profile
from repro.isoperimetry.exact import ExactSolver
from repro.isoperimetry.harper import harper_min_boundary
from repro.isoperimetry.lindsey import lindsey_min_boundary
from repro.topology.torus import Torus

# Mira's full node-level network.
MIRA_NODE_DIMS = (16, 16, 12, 8, 2)


def test_bench_theorem31_bound(benchmark):
    result = benchmark(
        torus_isoperimetric_bound, MIRA_NODE_DIMS, 24576
    )
    assert result.value > 0


def test_bench_best_cuboid_mira_scale(benchmark):
    shape, per = benchmark(best_cuboid, MIRA_NODE_DIMS, 24576)
    assert per == 6144  # machine bisection


def test_bench_cuboid_profile_midplane(benchmark):
    prof = benchmark(cuboid_profile, (4, 4, 4, 4, 2))
    assert prof[256] == 256


def test_bench_harper_q20(benchmark):
    value = benchmark(harper_min_boundary, 20, 12345)
    assert value > 0


def test_bench_lindsey_dragonfly_group_scale(benchmark):
    value = benchmark(lindsey_min_boundary, (16, 6, 4), 100)
    assert value > 0


def test_bench_exact_solver_setup_and_bisection(benchmark):
    torus = Torus((4, 3, 2))

    def run():
        return ExactSolver(torus).min_perimeter(12)[0]

    assert benchmark(run) == 12  # the 4x3x2 torus's bisection


def test_bench_bandwidth_of_every_mira_size(benchmark):
    from repro.allocation.optimizer import compare_policy_to_optimal
    from repro.allocation.policy import mira_policy

    rows = benchmark(lambda: compare_policy_to_optimal(mira_policy()))
    assert len(rows) == 10
