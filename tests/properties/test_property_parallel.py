"""Determinism of the parallel sweep executor.

The contract of :func:`repro.parallel.sweep_map` is that ``jobs > 1`` is
*invisible* in the results: for any task grid, the parallel run is
bit-identical to the serial run.  These tests exercise that contract on
randomized geometry/seed grids for every sweep-shaped driver, across
fixed base seeds — including the stateful parts of the results
(`RunResult.reroutes`, fault-study ranking fractions) that would expose
any sharing of RNG or cache state between workers.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.allocation.advisor import JobRequest
from repro.allocation.geometry import PartitionGeometry
from repro.allocation.policy import juqueen_policy
from repro.allocation.variability import simulate_job_streams
from repro.experiments.designsearch import design_search
from repro.experiments.faultstudy import degraded_bisection_study
from repro.experiments.pairing import PairingParameters, run_pairing_sweep
from repro.machines.catalog import JUQUEEN, MIRA
from repro.parallel import split_seeds, sweep_map
from repro.simmpi import FaultEvent, FaultSet, Recv, Send, VirtualMpi
from repro.topology import Torus

SEEDS = [0, 1, 2]

#: Small fitting geometries a randomized grid may draw from.
GEOMETRY_POOL = [
    (1, 1, 1, 1),
    (2, 1, 1, 1),
    (2, 2, 1, 1),
    (3, 1, 1, 1),
    (2, 2, 2, 1),
    (4, 1, 1, 1),
    (3, 2, 1, 1),
]


def _random_grid(seed: int, n: int) -> list[tuple[tuple[int, ...], int]]:
    """A randomized (geometry dims, task seed) grid, fixed by *seed*."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(GEOMETRY_POOL), size=n)
    return [
        (GEOMETRY_POOL[int(p)], task_seed)
        for p, task_seed in zip(picks, split_seeds(seed, n))
    ]


def faulted_ring_run(task: tuple[tuple[int, ...], int]) -> tuple:
    """One simmpi run on a seeded faulted ring; returns full RunResult.

    Drops a seeded link mid-run so rerouting (RunResult.reroutes) is
    part of the compared payload.
    """
    dims, seed = task
    n = 8
    ring = Torus((n,))
    rng = np.random.default_rng(seed)
    a = int(rng.integers(0, n))
    # Fail a link *not* adjacent to the 0 -> n/2 flow endpoints so the
    # transfer always survives via the other direction.
    event = FaultEvent(
        time=0.5,
        faults=FaultSet(failed_links=[((a,), ((a + 1) % n,))]),
    )

    def transfer(rank, size):
        if rank == 0:
            yield Send(dst=n // 2, gb=4.0)
        elif rank == n // 2:
            yield Recv(src=0)

    try:
        res = VirtualMpi(
            ring, link_bandwidth=2.0, fault_events=[event]
        ).run(transfer)
    except Exception as exc:  # disconnection is a valid, comparable outcome
        return ("error", type(exc).__name__)
    return ("ok", res.time, res.reroutes, res.ranks)


class TestSweepDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_pairing_sweep_bit_identical(self, seed):
        grid = _random_grid(seed, 6)
        geometries = [PartitionGeometry(dims) for dims, _ in grid]
        params = PairingParameters(rounds=2)
        serial = run_pairing_sweep(geometries, params, jobs=1)
        parallel = run_pairing_sweep(geometries, params, jobs=4)
        assert parallel == serial

    @pytest.mark.parametrize("seed", SEEDS)
    def test_simmpi_reroutes_bit_identical(self, seed):
        grid = _random_grid(seed, 8)
        serial = sweep_map(faulted_ring_run, grid, jobs=1)
        parallel = sweep_map(faulted_ring_run, grid, jobs=4)
        assert parallel == serial
        # The grid is only a meaningful witness if some run rerouted.
        assert any(r[0] == "ok" and r[2] > 0 for r in serial)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_faultstudy_rankings_bit_identical(self, seed):
        machine = [MIRA, JUQUEEN, MIRA][seed % 3]
        size = [16, 8, 4][seed % 3]
        serial = degraded_bisection_study(
            machine, size, max_failures=3, trials=5, seed=seed, jobs=1
        )
        parallel = degraded_bisection_study(
            machine, size, max_failures=3, trials=5, seed=seed, jobs=4
        )
        # Dataclass equality covers every float bit-for-bit, including
        # the ranking_stable_fraction column.
        assert parallel == serial

    @pytest.mark.parametrize("driver", ["designsearch", "faultstudy"])
    def test_pooled_grid_bit_identical(self, monkeypatch, driver):
        """Grids past the small-sweep cutoff, forced through the pool
        (the cost model may keep them in-process on a small box)."""
        import concurrent.futures

        import repro.parallel as parallel

        def grid(jobs):
            if driver == "designsearch":
                return design_search(32, JUQUEEN, jobs=jobs)
            return degraded_bisection_study(
                MIRA, 16, max_failures=6, trials=12, seed=0, jobs=jobs
            )

        serial = grid(1)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(parallel, "_POOL_SPAWN_S", 0.0)
        monkeypatch.setattr(parallel, "_DISPATCH_S", 0.0)
        pools = []
        real_pool = concurrent.futures.ProcessPoolExecutor

        def spy_pool(*args, **kwargs):
            executor = real_pool(*args, **kwargs)
            pools.append(executor)  # only a pool that was really built
            return executor

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", spy_pool
        )
        with warnings.catch_warnings():
            # A pool that fails and degrades to serial would compare an
            # in-process run with itself.
            warnings.filterwarnings("error", "rebuilding worker pool")
            warnings.filterwarnings("error", ".*degrading to serial")
            assert grid(4) == serial
        assert pools, "the sweep never reached the pool"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_traced_parallel_sweep_bit_identical(self, monkeypatch, seed):
        """Tracing must be invisible in the results: a ``jobs=4`` sweep
        under ``REPRO_TRACE=1`` is bit-identical to the untraced serial
        run — while actually collecting spans and counters."""
        from repro import observability

        grid = _random_grid(seed, 6)
        geometries = [PartitionGeometry(dims) for dims, _ in grid]
        params = PairingParameters(rounds=2)
        serial_untraced = run_pairing_sweep(geometries, params, jobs=1)

        s = observability.OBS
        saved = (
            s.enabled, s.events, s.dropped_events, s.stack,
            s.span_totals, s.counters, s.gauges, s.origin,
        )
        monkeypatch.setenv("REPRO_TRACE", "1")
        try:
            assert observability.configure_from_env() is True
            observability.reset()
            parallel_traced = run_pairing_sweep(geometries, params, jobs=4)
            counters = dict(s.counters)
            span_totals = dict(s.span_totals)
        finally:
            (
                s.enabled, s.events, s.dropped_events, s.stack,
                s.span_totals, s.counters, s.gauges, s.origin,
            ) = saved
        assert parallel_traced == serial_untraced
        # The trace itself must be non-trivial (worker metrics merged).
        # The sweep may run per-task (scalar) or block-dispatched
        # through the stacked fluid solver; both must surface metrics.
        assert counters.get("pairing.runs") == len(geometries)
        fluid_runs = counters.get("netsim.fluid.runs", 0) + counters.get(
            "netsim.fluid.stacked_runs", 0
        )
        assert fluid_runs > 0
        assert "experiment.pairing.sweep" in span_totals
        assert (
            "experiment.pairing.run" in span_totals
            or "parallel.block" in span_totals
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_variability_streams_bit_identical(self, seed):
        job = JobRequest(8, 3600.0, 0.5)
        policy = juqueen_policy()
        serial = simulate_job_streams(policy, job, 25, seed=seed, jobs=1)
        parallel = simulate_job_streams(policy, job, 25, seed=seed, jobs=4)
        assert parallel == serial
        # And both match a direct per-rule loop (the pre-executor path).
        from repro.allocation.variability import (
            SELECTION_RULES,
            simulate_job_stream,
        )

        direct = [
            simulate_job_stream(policy, job, 25, rule, seed=seed)
            for rule in SELECTION_RULES
        ]
        assert serial == direct
