"""Benchmark — stacked multi-scenario sweep throughput.

The stacked rewrite's headline claim: batching a fault sweep's
scenarios into one :class:`repro.netsim.stacked.StackedPathMatrix` and
water-filling them in one solver call beats solving them one at a
time.  The solver walks each stack in blocks of up to ``1 << 17``
links, so up to 42 of these 3,072-link scenarios share a block.  This
harness times a 201-scenario ``fluid_fault_sweep`` grid three ways on
the same tasks:

* **stacked** — the block-dispatched driver path;
* **one-scenario blocks** — ``_fluid_scenario`` per task, the block
  form on a block of one;
* **oracle per-scenario** — ``tests/oracles/scalar_sweeps.py``, the
  scalar reference the differential suite pins the stacked results to.

It asserts the acceptance floor: stacked ≥ 5× the per-scenario
oracle, with bit-identical rows from all three paths.  The user-path
throughput of the same sweep is the ``fault_sweep`` workload of
``benchmarks/e2e``.
"""

from __future__ import annotations

import time

from repro.allocation.geometry import PartitionGeometry
from repro.analysis.report import render_table
from repro.experiments.faultstudy import (
    LINK_BANDWIDTH_GB_PER_S,
    _fluid_scenario,
    fluid_fault_sweep,
)
from tests.oracles.scalar_sweeps import fault_scenario_row

#: 1 healthy + 2 * 100 fault scenarios = 201 tasks (the acceptance
#: criterion asks for a >= 200-scenario sweep).
GEOMETRY = PartitionGeometry((1, 1, 1, 1))
MAX_FAILURES = 2
TRIALS = 100
SEED = 0


def _tasks() -> list[tuple]:
    counts = [1 if k == 0 else TRIALS for k in range(MAX_FAILURES + 1)]
    return [
        (
            GEOMETRY.dims,
            k,
            t,
            SEED + 1000 * k + t,
            LINK_BANDWIDTH_GB_PER_S,
            "parity",
        )
        for k, n_trials in enumerate(counts)
        for t in range(n_trials)
    ]


def test_stacked_sweep_throughput(report):
    """Stacked block dispatch vs the per-scenario paths, bit-identical."""
    tasks = _tasks()
    assert len(tasks) >= 200

    # Warm caches (routing tables, memoized layouts) on every path so
    # the timed sections compare steady-state throughput.
    _ = [_fluid_scenario(t) for t in tasks[:3]]
    _ = [fault_scenario_row(t) for t in tasks[:3]]
    _ = fluid_fault_sweep(
        GEOMETRY, max_failures=1, trials=2, seed=SEED, jobs=1
    )

    t0 = time.perf_counter()
    stacked_rows = fluid_fault_sweep(
        GEOMETRY,
        max_failures=MAX_FAILURES,
        trials=TRIALS,
        seed=SEED,
        jobs=1,
    )
    stacked_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    vector_rows = [_fluid_scenario(t) for t in tasks]
    vector_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    oracle_rows = [fault_scenario_row(t) for t in tasks]
    oracle_s = time.perf_counter() - t0

    # The speedup only counts if the answers are bit-identical.
    assert stacked_rows == vector_rows
    assert stacked_rows == oracle_rows
    assert len(stacked_rows) == len(tasks)

    n = len(tasks)
    stacked_rate = n / max(stacked_s, 1e-9)
    vector_rate = n / max(vector_s, 1e-9)
    oracle_rate = n / max(oracle_s, 1e-9)
    # Acceptance floor: the stacked path is >= 5x the per-scenario
    # oracle on a >= 200-scenario sweep (measured ~11x on 1 CPU).
    assert stacked_rate >= 5.0 * oracle_rate, (
        f"stacked sweep at {stacked_rate:.1f}/s is below 5x the "
        f"per-scenario oracle at {oracle_rate:.1f}/s"
    )

    report(render_table(
        [
            {
                "path": name,
                "elapsed_s": f"{secs:.3f}",
                "scenarios_per_s": f"{rate:.1f}",
                "vs_oracle": f"{rate / oracle_rate:.1f}x",
            }
            for name, secs, rate in [
                ("stacked block dispatch", stacked_s, stacked_rate),
                ("one-scenario blocks", vector_s, vector_rate),
                ("oracle per-scenario", oracle_s, oracle_rate),
            ]
        ],
        ["path", "elapsed_s", "scenarios_per_s", "vs_oracle"],
        title=f"Fluid fault sweep, {n} scenarios on 512 nodes: stacked "
              f"vs per-scenario execution",
    ))
