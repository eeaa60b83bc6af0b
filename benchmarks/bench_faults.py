"""Benchmark — geometry robustness and faulted-run performance.

Two claims ride on the fault subsystem:

1. **Ranking stability** (degraded-bisection study): the paper's Table
   1/2 geometry ranking — optimal beats default by the bisection ratio —
   survives sampled link failures.  A handful of random failures shaves
   at most ``2k`` links off a multi-hundred-link bisection, so the ×2
   advantage at Mira-16 cannot flip; the study quantifies it and this
   harness asserts 100% stability for k ≤ 8.
2. **Engine overhead**: running the pairing workload under a static
   fault set (one failed link forcing a reroute) stays within the same
   order of magnitude as the healthy run — fault-aware routing only
   pays BFS for pairs whose natural path is broken.
"""

from __future__ import annotations

import time

import pytest

from repro.allocation.geometry import PartitionGeometry
from repro.analysis.report import render_table
from repro.experiments.faultstudy import (
    degraded_bisection_study,
    fluid_fault_sweep,
)
from repro.faults import FaultSet, random_link_failures
from repro.machines.catalog import JUQUEEN, MIRA
from repro.simmpi import SendRecv, VirtualMpi

def test_mira_ranking_survives_failures(benchmark, report):
    rows = benchmark.pedantic(
        lambda: degraded_bisection_study(
            MIRA, 16, max_failures=8, trials=20, seed=0
        ),
        rounds=1,
        iterations=1,
    )
    # Healthy baseline equals Table 1: 1024 (4x4x1x1) vs 2048 (2x2x2x2).
    assert rows[0].default_mean_bw == 1024.0
    assert rows[0].optimal_mean_bw == 2048.0
    # The x2 geometry advantage never flips under k <= 8 failures.
    assert all(r.ranking_stable_fraction == 1.0 for r in rows)
    # Each failure removes at most 2 links from a perpendicular cut.
    for r in rows:
        assert r.optimal_min_bw >= 2048 - 2 * r.failures

    report(render_table(
        [
            {
                "failures": r.failures,
                "default_mean": f"{r.default_mean_bw:.1f}",
                "optimal_mean": f"{r.optimal_mean_bw:.1f}",
                "stable": f"{100 * r.ranking_stable_fraction:.0f}%",
            }
            for r in rows
        ],
        ["failures", "default_mean", "optimal_mean", "stable"],
        title="Mira 16 midplanes: surviving bisection under k link "
              "failures (20 draws each)",
    ))


def test_juqueen_ranking_survives_failures(report):
    rows = degraded_bisection_study(
        JUQUEEN, 8, max_failures=6, trials=10, seed=7
    )
    assert all(r.ranking_stable_fraction == 1.0 for r in rows)
    report(render_table(
        [
            {
                "failures": r.failures,
                "default_mean": f"{r.default_mean_bw:.1f}",
                "optimal_mean": f"{r.optimal_mean_bw:.1f}",
                "stable": f"{100 * r.ranking_stable_fraction:.0f}%",
            }
            for r in rows
        ],
        ["failures", "default_mean", "optimal_mean", "stable"],
        title="JUQUEEN 8 midplanes: surviving bisection under k link "
              "failures (10 draws each)",
    ))


def test_faulted_pairing_overhead(benchmark, report):
    """Pairing workload on a 1-midplane partition with one failed link."""
    geo = PartitionGeometry((1, 1, 1, 1))
    torus = geo.bgq_network()
    verts = list(torus.vertices())
    index = {v: i for i, v in enumerate(verts)}

    def program(rank, size):
        yield SendRecv(peer=index[torus.antipode(verts[rank])], gb=0.1342)

    healthy = VirtualMpi(torus, link_bandwidth=2.0).run(program)
    faults = random_link_failures(torus, 1, seed=3)
    world = VirtualMpi(torus, link_bandwidth=2.0, faults=faults)
    faulted = benchmark.pedantic(
        lambda: world.run(program), rounds=1, iterations=1
    )
    # Repeated faulted runs are bit-identical (determinism guarantee).
    assert world.run(program).time == faulted.time
    # One failed link barely dents a 512-node partition's makespan.
    assert faulted.time <= 2.0 * healthy.time

    report(render_table(
        [{
            "scenario": s,
            "time_s": f"{t:.4f}",
        } for s, t in [("healthy", healthy.time), ("1 link down", faulted.time)]],
        ["scenario", "time_s"],
        title="Pairing on 512 nodes: healthy vs one failed link",
    ))


def test_fluid_fault_sweep_throughput(report):
    """Scenario throughput of the flow-level fault sweep.

    Times the fault-masked batch-routing sweep on a 512-node partition
    and asserts the sweep's contract: deterministic rows, the healthy
    ``k = 0`` scenario at full fluid bisection, and no spurious
    degradation (k <= 4 failures cannot sever a min cut of 9 links on
    this torus).  The user-path throughput gate is the ``fault_sweep``
    workload of ``benchmarks/e2e``.
    """
    geo = PartitionGeometry((1, 1, 1, 1))
    rows = fluid_fault_sweep(geo, max_failures=2, trials=2, seed=0)  # warm
    t0 = time.perf_counter()
    rows = fluid_fault_sweep(geo, max_failures=4, trials=5, seed=0)
    elapsed = time.perf_counter() - t0
    assert len(rows) == 1 + 4 * 5
    assert rows[0].failures == 0 and rows[0].bandwidth > 0
    assert all(r.degraded is None for r in rows)
    assert all(0 < r.bandwidth <= rows[0].bandwidth for r in rows)
    # Determinism: a rerun of the same grid is bit-identical.
    assert fluid_fault_sweep(geo, max_failures=4, trials=5, seed=0) == rows

    rate = len(rows) / max(elapsed, 1e-9)

    report(render_table(
        [{
            "grid": "512 nodes, k<=4, 21 scenarios",
            "elapsed_s": f"{elapsed:.3f}",
            "scenarios_per_s": f"{rate:.1f}",
            "healthy_bw": f"{rows[0].bandwidth:.1f}",
        }],
        ["grid", "elapsed_s", "scenarios_per_s", "healthy_bw"],
        title="Flow-level fault sweep: scenario throughput "
              "(fault-masked batch routing)",
    ))
