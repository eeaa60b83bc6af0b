"""Performance baseline — sweep executor and hot-path caches.

This harness is the repository's perf anchor: it times the serial and
parallel (``jobs=4``) evaluation of the design-search and fault-study
grids, and the cold/warm behaviour of the solver hot paths (geometry
enumeration memo, cuboid-bound memo, simmpi route cache).  Every run
appends one record to ``BENCH_perf.json`` at the repository root, so
successive PRs accumulate a perf trajectory to regress against.

Assertions:

* parallel results are **bit-identical** to serial (always);
* on multi-core runners the parallel sweep is measurably faster than
  serial (skipped on single-core boxes, where a process pool cannot
  beat the loop);
* warm cache passes are at least as fast as cold passes by a large
  factor (the memos actually memoize).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_perfbaseline.py -s
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.analysis.report import render_table
from repro.caching import cache_stats, clear_all_caches
from repro.experiments.designsearch import design_search
from repro.experiments.faultstudy import degraded_bisection_study
from repro.machines.catalog import JUQUEEN, MIRA
from repro.simmpi import SendRecv, VirtualMpi
from repro.topology import Torus
from tests.oracles.simmpi_flows import oracle_engine

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: Worker count the acceptance grid is timed at.
JOBS = 4

_CORES = os.cpu_count() or 1


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _append_record(record: dict) -> None:
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


@pytest.fixture(scope="module")
def perf_record():
    """Collect this run's timings; flush to BENCH_perf.json at the end."""
    record: dict = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": _CORES,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "jobs": JOBS,
        "timings": {},
    }
    yield record
    _append_record(record)


def test_sweep_grids_parallel_identical_and_timed(perf_record, report):
    """Serial vs jobs=4 on the designsearch + faultstudy grids."""
    def designsearch_grid(jobs):
        return design_search(32, JUQUEEN, jobs=jobs)

    def faultstudy_grid(jobs):
        return degraded_bisection_study(
            MIRA, 16, max_failures=6, trials=12, seed=0, jobs=jobs
        )

    timings = perf_record["timings"]
    rows = []
    for name, grid in (
        ("designsearch", designsearch_grid),
        ("faultstudy", faultstudy_grid),
    ):
        clear_all_caches()
        serial, t_serial = _timed(lambda: grid(1))
        clear_all_caches()
        parallel, t_parallel = _timed(lambda: grid(JOBS))

        if name == "designsearch":
            # DesignCandidate carries a machine object without __eq__;
            # compare the value payload.
            def key(cands):
                return [
                    (
                        c.machine.midplane_dims,
                        c.bandwidths,
                        c.dominated_baseline,
                        c.wins,
                    )
                    for c in cands
                ]

            assert key(parallel) == key(serial)
        else:
            assert parallel == serial  # frozen dataclasses: bit-identical

        timings[f"{name}_serial_s"] = round(t_serial, 4)
        timings[f"{name}_parallel_s"] = round(t_parallel, 4)
        rows.append(
            {
                "grid": name,
                "serial_s": f"{t_serial:.3f}",
                f"jobs={JOBS}_s": f"{t_parallel:.3f}",
                "speedup": f"x{t_serial / max(t_parallel, 1e-9):.2f}",
                "identical": "yes",
            }
        )

    report(render_table(
        rows,
        ["grid", "serial_s", f"jobs={JOBS}_s", "speedup", "identical"],
        title=f"Sweep executor: serial vs jobs={JOBS} "
        f"({_CORES} core(s) available)",
    ))

    if _CORES >= 2:
        total_serial = (
            timings["designsearch_serial_s"]
            + timings["faultstudy_serial_s"]
        )
        total_parallel = (
            timings["designsearch_parallel_s"]
            + timings["faultstudy_parallel_s"]
        )
        assert total_parallel < total_serial, (
            f"jobs={JOBS} ({total_parallel:.3f}s) not faster than serial "
            f"({total_serial:.3f}s) on a {_CORES}-core runner"
        )


def test_geometry_memo_hot_path(perf_record, report):
    """Cold vs warm design-search scoring (geometry/bisection memos)."""
    clear_all_caches()
    _, t_cold = _timed(lambda: design_search(32, JUQUEEN, jobs=1))
    _, t_warm = _timed(lambda: design_search(32, JUQUEEN, jobs=1))
    stats = cache_stats()
    # The warm pass resolves at the topmost memo (_geometry_extremes)
    # without re-reaching the enumeration memo below it.
    extremes = stats["repro.allocation.optimizer._geometry_extremes"]

    perf_record["timings"]["designsearch_cold_s"] = round(t_cold, 4)
    perf_record["timings"]["designsearch_warm_s"] = round(t_warm, 4)
    perf_record["timings"]["extremes_memo_hit_rate"] = round(
        extremes.hit_rate, 4
    )

    report(render_table(
        [{
            "path": "design_search(32, JUQUEEN)",
            "cold_s": f"{t_cold:.3f}",
            "warm_s": f"{t_warm:.3f}",
            "speedup": f"x{t_cold / max(t_warm, 1e-9):.1f}",
            "memo_hits": extremes.hits,
            "memo_misses": extremes.misses,
        }],
        ["path", "cold_s", "warm_s", "speedup", "memo_hits",
         "memo_misses"],
        title="Hot-path memo: cold vs warm geometry scoring",
    ))

    # The warm pass must actually hit the memos.
    assert extremes.hits > 0
    assert t_warm <= t_cold


def test_route_cache_reuse_hot_path(perf_record, report):
    """Second simmpi run on the same engine reuses prebuilt routes."""
    torus = Torus((8, 8))

    def program(rank, size):
        yield SendRecv(peer=(rank + size // 2) % size, gb=0.25)

    world = VirtualMpi(torus, link_bandwidth=2.0)
    first, t_first = _timed(lambda: world.run(program))
    second, t_second = _timed(lambda: world.run(program))
    assert first == second

    perf_record["timings"]["simmpi_first_run_s"] = round(t_first, 4)
    perf_record["timings"]["simmpi_cached_run_s"] = round(t_second, 4)

    report(render_table(
        [{
            "workload": "8x8 antipodal SendRecv",
            "first_s": f"{t_first:.3f}",
            "cached_s": f"{t_second:.3f}",
            "speedup": f"x{t_first / max(t_second, 1e-9):.1f}",
        }],
        ["workload", "first_s", "cached_s", "speedup"],
        title="simmpi route cache: first vs subsequent run",
    ))
    # Routing is a significant share of the first run; the cached run
    # must not be slower.
    assert t_second <= t_first * 1.5


def test_trace_overhead_on_pairing_hot_path(perf_record, report):
    """Enabled-tracing overhead on the pairing sweep, vs untraced.

    The observability contract is that disabled-mode instrumentation is
    a single attribute check (untraced timings here *include* those
    checks — they are the production hot path), and that even enabled
    collection stays cheap and bit-identical.
    """
    from repro import observability
    from repro.allocation.geometry import PartitionGeometry
    from repro.experiments.pairing import (
        PairingParameters,
        run_pairing_sweep,
    )

    geometries = [
        PartitionGeometry(dims)
        for dims in [(4, 2, 1, 1), (2, 2, 2, 1), (3, 2, 1, 1),
                     (4, 1, 1, 1), (2, 2, 1, 1), (8, 1, 1, 1)]
    ]
    params = PairingParameters(rounds=4)

    def sweep():
        return run_pairing_sweep(geometries, params, jobs=1)

    was_enabled = observability.enabled()
    try:
        observability.disable()
        sweep()  # warm the memos so both passes run the same code
        untraced, t_untraced = _timed(sweep)

        observability.enable()
        observability.reset()
        traced, t_traced = _timed(sweep)
        counters = dict(observability.OBS.counters)
        span_totals = dict(observability.OBS.span_totals)
    finally:
        observability.OBS.enabled = was_enabled
        observability.reset()

    assert traced == untraced  # collection never changes results
    # The trace must be non-trivial: the sweep actually got observed.
    # The stacked executor evaluates the whole grid as one batched
    # sweep, so the span fires at sweep granularity (the per-run span
    # belongs to the scalar path).
    assert counters.get("pairing.runs") == len(geometries)
    assert span_totals["experiment.pairing.sweep"][0] == 1

    overhead_pct = 100.0 * (t_traced - t_untraced) / max(t_untraced, 1e-9)
    timings = perf_record["timings"]
    timings["pairing_untraced_s"] = round(t_untraced, 4)
    timings["pairing_traced_s"] = round(t_traced, 4)
    timings["trace_overhead_pct"] = round(overhead_pct, 2)

    report(render_table(
        [{
            "path": f"pairing sweep x{len(geometries)} (serial)",
            "untraced_s": f"{t_untraced:.3f}",
            "traced_s": f"{t_traced:.3f}",
            "overhead": f"{overhead_pct:+.1f}%",
            "identical": "yes",
        }],
        ["path", "untraced_s", "traced_s", "overhead", "identical"],
        title="Observability: enabled-tracing overhead on the pairing "
        "hot path",
    ))

    # Generous bound — this guards against accidentally expensive
    # instrumentation (e.g. formatting in the hot loop), not jitter.
    assert t_traced <= t_untraced * 1.5 + 0.05, (
        f"tracing overhead {overhead_pct:.1f}% exceeds the 50% guard"
    )


def test_batch_router_speedup_on_pairing(perf_record, report):
    """Per-pair scalar oracle vs batch-routed pairing sweep.

    The CSR batch router plus the stacked block solve must beat the
    per-pair scalar oracle (``tests/oracles/scalar_sweeps.py``) by at
    least 5x on the Figure 3/4 geometry grid — with bit-identical
    PairingResults (exact float equality).
    """
    from repro.allocation.geometry import PartitionGeometry
    from repro.experiments.pairing import (
        PairingParameters,
        run_pairing_sweep,
    )
    from tests.oracles.scalar_sweeps import pairing_result

    geometries = [
        PartitionGeometry(dims)
        for dims in [(4, 2, 1, 1), (2, 2, 2, 1), (3, 2, 1, 1),
                     (4, 1, 1, 1), (2, 2, 1, 1), (8, 1, 1, 1)]
    ]
    params = PairingParameters(rounds=4)

    def scalar_sweep():
        return [pairing_result(g, params) for g in geometries]

    clear_all_caches()
    scalar_sweep()  # warm geometry memos so both passes run the same code
    scalar, t_scalar = _timed(scalar_sweep)
    vector, t_vector = _timed(
        lambda: run_pairing_sweep(geometries, params, jobs=1)
    )

    assert vector == scalar  # frozen dataclasses: bit-identical floats

    speedup = t_scalar / max(t_vector, 1e-9)
    timings = perf_record["timings"]
    timings["pairing_scalar_s"] = round(t_scalar, 4)
    timings["pairing_vector_s"] = round(t_vector, 4)
    timings["pairing_vector_speedup"] = round(speedup, 2)

    report(render_table(
        [{
            "path": f"pairing sweep x{len(geometries)} (serial)",
            "scalar_s": f"{t_scalar:.3f}",
            "vector_s": f"{t_vector:.3f}",
            "speedup": f"x{speedup:.1f}",
            "identical": "yes",
        }],
        ["path", "scalar_s", "vector_s", "speedup", "identical"],
        title="Batch router: scalar oracle vs vectorized pairing sweep",
    ))

    assert speedup >= 5.0, (
        f"batch-routed pairing only x{speedup:.2f} over scalar "
        f"(scalar {t_scalar:.3f}s, vector {t_vector:.3f}s); need >= x5"
    )


def test_simmpi_engine_speedup(perf_record, report):
    """Per-object oracle engine vs the array-native FlowLedger engine.

    An event-loop-bound kernel: 2048 ranks on a 64x32 torus exchanging
    with their ``rank ^ 1`` neighbour over dedicated links, volumes
    staggered per rank so completions arrive one flow per event.  Each
    event re-solves fair rates over ~2k in-flight flows: the oracle
    pays a Python loop per flow per event, the ledger engine a handful
    of numpy calls.  Results must be bit-identical (RunResult dataclass
    equality — exact floats) and the vector engine at least 5x faster.

    Timings are min-of-N after a warm pass: the oracle/vector ratio is
    a property of the code, the minimum is the least-noisy estimator
    of it on a shared box.
    """
    from repro import observability

    torus = Torus((64, 32))
    n_ranks = 64 * 32
    rounds = 3

    def program(rank, size):
        peer = rank ^ 1
        for rnd in range(rounds):
            yield SendRecv(
                peer=peer, gb=0.25 + 0.001 * rank + 0.05 * rnd, tag=rnd
            )

    world = VirtualMpi(torus, link_bandwidth=2.0)
    world.warm_routes([(r, r ^ 1) for r in range(n_ranks)])

    was_enabled = observability.enabled()
    try:
        # Warm pass, traced: warms every allocator/cache and counts the
        # scheduling events so the rate below needs no in-loop clock.
        observability.enable()
        observability.reset()
        warm = world.run(program)
        events = int(observability.OBS.counters["simmpi.loop_events"])
        observability.disable()
        observability.reset()

        t_vec = []
        for _ in range(3):
            vector, t = _timed(lambda: world.run(program))
            t_vec.append(t)

        t_orc = []
        with oracle_engine():
            for _ in range(2):
                oracle, t = _timed(lambda: world.run(program))
                t_orc.append(t)
    finally:
        observability.OBS.enabled = was_enabled
        observability.reset()

    # Bit-identical across the oracle, the vector engine, and the
    # traced warm pass (collection never changes results).
    assert vector == oracle
    assert vector == warm

    t_vector = min(t_vec)
    t_oracle = min(t_orc)
    speedup = t_oracle / max(t_vector, 1e-9)
    events_per_s = events / max(t_vector, 1e-9)

    timings = perf_record["timings"]
    timings["simmpi_oracle_s"] = round(t_oracle, 4)
    timings["simmpi_vector_s"] = round(t_vector, 4)
    timings["simmpi_engine_speedup"] = round(speedup, 2)
    timings["simmpi_events_per_s"] = round(events_per_s, 1)

    report(render_table(
        [{
            "workload": f"64x32 neighbour exchange x{rounds}",
            "events": events,
            "oracle_s": f"{t_oracle:.3f}",
            "vector_s": f"{t_vector:.3f}",
            "events/s": f"{events_per_s:,.0f}",
            "speedup": f"x{speedup:.1f}",
            "identical": "yes",
        }],
        ["workload", "events", "oracle_s", "vector_s", "events/s",
         "speedup", "identical"],
        title="simmpi engine: per-object oracle vs FlowLedger vector",
    ))

    assert speedup >= 5.0, (
        f"ledger engine only x{speedup:.2f} over the oracle "
        f"(oracle {t_oracle:.3f}s, vector {t_vector:.3f}s); need >= x5"
    )


def test_trajectory_file_written(perf_record):
    """BENCH_perf.json exists and is a well-formed trajectory."""
    # Flush what we have so far without waiting for fixture teardown.
    _append_record({**perf_record, "partial": True})
    history = json.loads(BENCH_FILE.read_text())
    assert isinstance(history, list) and history
    last = history[-1]
    assert last["cpu_count"] == _CORES
    assert "timings" in last
    # Drop the probe record again: the module fixture writes the final one.
    BENCH_FILE.write_text(json.dumps(history[:-1], indent=2) + "\n")


def test_sanitizer_disabled_overhead_on_pairing(
    perf_record, report, monkeypatch
):
    """REPRO_CHECK's *disabled*-path cost on the pairing sweep.

    The contract sanitizer (``repro.contracts``) guards PathMatrix/
    StackedPathMatrix construction and solver entry behind
    ``contracts.enabled()`` — one env-dict lookup. This measures that
    lookup's cost on the production hot path by interleaving the real
    disabled path against a stubbed-out ``enabled`` (the
    pre-instrumentation baseline), and asserts the median overhead
    stays within the 1% budget. It also asserts the *enabled* path is
    bit-identical: the checks raise, they never modify.
    """
    import statistics

    from repro import contracts
    from repro.allocation.geometry import PartitionGeometry
    from repro.experiments.pairing import (
        PairingParameters,
        run_pairing_sweep,
    )

    geometries = [
        PartitionGeometry(dims)
        for dims in [(4, 2, 1, 1), (2, 2, 2, 1), (3, 2, 1, 1),
                     (4, 1, 1, 1), (2, 2, 1, 1), (8, 1, 1, 1)]
    ]
    params = PairingParameters(rounds=4)

    def sweep():
        return run_pairing_sweep(geometries, params, jobs=1)

    monkeypatch.delenv("REPRO_CHECK", raising=False)
    baseline_result = sweep()  # warm the memos for every pass below

    # Bit-identity first: contracts hot must not change a single bit.
    monkeypatch.setenv("REPRO_CHECK", "1")
    checked_result = sweep()
    assert checked_result == baseline_result
    monkeypatch.delenv("REPRO_CHECK", raising=False)

    def timed_run(stub: bool) -> float:
        if stub:
            original, contracts.enabled = contracts.enabled, lambda: False
            try:
                return _timed(sweep)[1]
            finally:
                contracts.enabled = original
        return _timed(sweep)[1]

    # Interleave A/B so drift (thermal, noisy neighbours) hits both.
    with_check: list[float] = []
    without: list[float] = []
    for _ in range(5):
        without.append(timed_run(stub=True))
        with_check.append(timed_run(stub=False))
    t_without = statistics.median(without)
    t_with = statistics.median(with_check)

    overhead_pct = 100.0 * (t_with - t_without) / max(t_without, 1e-9)
    timings = perf_record["timings"]
    timings["pairing_unchecked_s"] = round(t_without, 4)
    timings["pairing_check_disabled_s"] = round(t_with, 4)
    timings["lint_sanitizer_overhead_pct"] = round(overhead_pct, 2)

    report(render_table(
        [{
            "path": f"pairing sweep x{len(geometries)} (serial)",
            "stubbed_s": f"{t_without:.3f}",
            "disabled_s": f"{t_with:.3f}",
            "overhead": f"{overhead_pct:+.2f}%",
            "identical": "yes",
        }],
        ["path", "stubbed_s", "disabled_s", "overhead", "identical"],
        title="REPRO_CHECK sanitizer: disabled-path overhead on the "
        "pairing hot path",
    ))

    # The 1% budget, with a small absolute floor so sub-jitter
    # timings on fast boxes cannot flake the build.
    assert t_with <= t_without * 1.01 + 0.02, (
        f"sanitizer disabled-path overhead {overhead_pct:.2f}% "
        f"exceeds the 1% budget"
    )
