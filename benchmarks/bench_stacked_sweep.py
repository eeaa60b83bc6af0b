"""Benchmark — stacked multi-scenario sweep throughput.

The stacked rewrite's headline claim: batching a fault sweep's
scenarios into one :class:`repro.netsim.stacked.StackedPathMatrix` and
water-filling them in a single numpy pass beats solving them one at a
time.  This harness times a 201-scenario ``fluid_fault_sweep`` grid
three ways on the same tasks:

* **stacked** — the block-dispatched driver path;
* **one-scenario blocks** — ``_fluid_scenario`` per task, the block
  form on a block of one;
* **oracle per-scenario** — ``tests/oracles/scalar_sweeps.py``, the
  scalar reference the differential suite pins the stacked results to.

It records ``sweep_throughput_scenarios_per_s`` (stacked) and
``sweep_scalar_scenarios_per_s`` (oracle) in the BENCH_perf.json
trajectory — ``check_perf_regression.py`` guards both as rates — and
asserts the acceptance floor: stacked ≥ 5× the per-scenario oracle,
with bit-identical rows from all three paths.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from repro.allocation.geometry import PartitionGeometry
from repro.analysis.report import render_table
from repro.experiments.faultstudy import (
    LINK_BANDWIDTH_GB_PER_S,
    _fluid_scenario,
    fluid_fault_sweep,
)
from tests.oracles.scalar_sweeps import fault_scenario_row

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: 1 healthy + 2 * 100 fault scenarios = 201 tasks (the acceptance
#: criterion asks for a >= 200-scenario sweep).
GEOMETRY = PartitionGeometry((1, 1, 1, 1))
MAX_FAILURES = 2
TRIALS = 100
SEED = 0


def _append_perf_record(timings: dict) -> None:
    """Append one record to the BENCH_perf.json trajectory.

    Same record shape as ``bench_perfbaseline.py`` (``benchmarks/`` is
    not a package, so the helper is duplicated); the per-key regression
    guard pairs each metric with its own previous occurrence.
    """
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "timings": timings,
    }
    history: list[dict] = []
    if BENCH_FILE.exists():
        try:
            history = json.loads(BENCH_FILE.read_text())
        except (json.JSONDecodeError, OSError):
            history = []
        if not isinstance(history, list):
            history = []
    history.append(record)
    BENCH_FILE.write_text(json.dumps(history, indent=2) + "\n")


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
    """Stacked block dispatch vs the per-scenario paths, guarded in CI."""
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

    _append_perf_record({
        "sweep_throughput_scenarios_per_s": round(stacked_rate, 2),
        "sweep_scalar_scenarios_per_s": round(oracle_rate, 2),
    })

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
