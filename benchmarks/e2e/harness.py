"""One workload in one process: set-up, warm-up, timed passes, trace.

``run.py`` starts this script once per set-up sample and once for the
measured run; it prints one JSON record on its last stdout line::

    python3 benchmarks/e2e/harness.py --workload W --seed S --seconds T \\
        --trace 0|1 --spawned-at M [--passes N] [--setup-only] [--spans P]

*M* is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import repro`` and
building the inputs (``CLOCK_MONOTONIC`` is system-wide on Linux).

Run shape: one untimed warm-up pass with observability on (it reads the
deterministic counts, such as ``simmpi.loop_events``), then timed passes
with tracing off until the next pass would overrun ``--seconds``
(``--passes N`` fixes the count instead).  Every pass starts from
``repro.caching.clear_all_caches()`` and ``gc.collect()``, and every
pass's output is checked.  With ``--trace 1`` one traced pass follows
the timed ones, so the end-to-end numbers never include it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import layers
import workloads
from repro import caching, observability

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
#: Timed passes that run even past the ``--seconds`` window.
MIN_PASSES = 3

#: In-program counters reported by the traced pass: metric -> counter.
COUNTS = {
    "netsim.fairness.rounds": "netsim.fairness.rounds",
    "netsim.fairness.flows": "netsim.fairness.flows",
    "netsim.fluid.rounds": "netsim.fluid.rounds",
    "simmpi.loop_events": "simmpi.loop_events",
    "simmpi.reroutes": "simmpi.fault_reroutes",
    "parallel.tasks": "parallel.tasks",
    "parallel.blocks": "parallel.blocks",
    "parallel.adaptive_serial": "parallel.adaptive_serial",
}


def _now() -> float:
    return time.perf_counter()  # repro: allow-wallclock benchmark timer; measures passes, never feeds results


def _cpu_s() -> float:
    """User+system CPU of this process and its reaped pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _reap_workers() -> None:
    """Wait until the pass's pool workers have exited.

    The resilient executor shuts its pool down without waiting, and
    ``RUSAGE_CHILDREN`` only counts reaped workers, so ``cpu_s`` and
    ``peak_rss_mb`` are read after this.
    """
    for proc in multiprocessing.active_children():
        proc.join(timeout=60)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux


def digest(canonical: Any) -> str:
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reference_digest(wl: workloads.Workload, seed: int, path: Path) -> str | None:
    """The pinned digest for this workload at *seed*, if there is one."""
    ref = json.loads(path.read_text())
    if wl.uses_seed and seed != ref["seed"]:
        return None
    return ref["digests"].get(wl.name)


def _reset(wl: workloads.Workload) -> None:
    """Untimed: per-pass state, empty memos, no garbage carried over."""
    wl.prepare()
    caching.clear_all_caches()
    gc.collect()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: layers.Tracer, wall: float, untraced: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: ``{name: (value, unit)}``."""
    counters = observability.OBS.counters
    gauges = observability.OBS.gauges
    out: dict[str, tuple[float, str]] = {}
    for layer, (self_s, calls) in layers.layer_totals(counters).items():
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.calls"] = (calls, "count")
    # Worker-side spans overlap the parent's wait, so "other" compares
    # the pass with this process's own outermost traced calls.
    out["other.self_s"] = (wall - tracer.top_level_s(), "s")
    out["trace.overhead_pct"] = (100.0 * (wall / untraced - 1.0), "%")
    for metric, counter in COUNTS.items():
        out[metric] = (counters.get(counter, 0.0), "count")
    out["simmpi.route_cache.hit_rate"] = (_ratio(
        counters.get("simmpi.route_cache.hits", 0.0),
        counters.get("simmpi.route_cache.hits", 0.0)
        + counters.get("simmpi.route_cache.misses", 0.0),
    ), "ratio")
    out["parallel.workers"] = (gauges.get("parallel.workers", 0.0), "count")
    out["parallel.shm_bytes"] = (counters.get("parallel.shm_bytes", 0.0), "B")
    out["resilience.resumed_frac"] = (_ratio(
        counters.get("resilience.resumed_tasks", 0.0),
        counters.get("resilience.tasks", 0.0),
    ), "ratio")
    stats = caching.cache_stats().values()
    out["caching.hit_rate"] = (_ratio(
        sum(s.hits for s in stats), sum(s.hits + s.misses for s in stats)
    ), "ratio")
    return out


def set_up(
    name: str, seed: int, workdir: Path, spawned_at: float | None
) -> tuple[workloads.Workload, float | None]:
    """The workload with its inputs built, and seconds since *spawned_at*."""
    wl = workloads.REGISTRY[name]()
    wl.setup(seed, workdir)
    if spawned_at is None:
        return wl, None
    return wl, time.monotonic() - spawned_at  # repro: allow-wallclock set-up timer; pairs with the parent's spawn stamp


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    *,
    workdir: Path,
    passes: int | None = None,
    trace: bool = False,
    reference: Path = REFERENCE,
    spans: str | None = None,
    spawned_at: float | None = None,
) -> dict[str, Any]:
    """Set up *name*, run its passes, and return the raw record."""
    wl, setup_s = set_up(name, seed, workdir, spawned_at)
    record: dict[str, Any] = {"workload": name, "seed": seed, "setup_s": setup_s}
    expected = reference_digest(wl, seed, reference)
    attempted = failed = 0
    problems: list[str] = []

    def verify(result: Any) -> str:
        nonlocal attempted, failed
        got = digest(wl.canonical(result))
        found = wl.check(result)
        if expected is not None and got != expected:
            found.append(f"digest {got} != expected {expected}")
        attempted += 1
        if found:
            failed += 1
            problems.extend(found[:3])
        return got

    observability.reset()
    observability.enable()
    try:
        _reset(wl)
        warm = wl.run()
    finally:
        observability.disable()
        _reap_workers()
    units = wl.units(dict(observability.OBS.counters))
    observability.reset()
    record["digest"] = verify(warm)
    if expected is None:
        expected = record["digest"]

    walls: list[float] = []
    cpus: list[float] = []
    start = _now()
    while True:
        _reset(wl)
        cpu0, t0 = _cpu_s(), _now()
        result = wl.run()
        walls.append(_now() - t0)
        _reap_workers()
        cpus.append(_cpu_s() - cpu0)
        verify(result)
        del result
        if passes is not None:
            if len(walls) >= passes:
                break
        elif len(walls) >= MIN_PASSES and (
            _now() - start + statistics.median(walls) > seconds
        ):
            break
    record.update(
        wall_s=walls, cpu_s=cpus, units=units, unit=wl.unit,
        peak_rss_mb=_peak_rss_mb(),
    )

    if trace:
        tracer = layers.Tracer()
        _reset(wl)
        observability.reset()
        observability.enable()
        try:
            with tracer.installed():
                t0 = _now()
                result = wl.run()
                wall = _now() - t0
        finally:
            observability.disable()
            _reap_workers()
        metrics = layer_metrics(tracer, wall, statistics.median(walls))
        observability.reset()
        verify(result)
        record["layers"] = {
            k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
        }
        if spans:
            tracer.write_jsonl(spans, {
                "workload": name, "seed": seed, "pass": len(walls) + 1,
                "wall_s": wall, "layers": {k: v for k, (v, _) in metrics.items()},
            })
    record.update(attempted=attempted, failed=failed, problems=problems[:10])
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.REGISTRY)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--workroot", required=True)
    args = parser.parse_args(argv)

    Path(args.workroot).mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workroot))
    try:
        if args.setup_only:
            _, setup_s = set_up(args.workload, args.seed, workdir, args.spawned_at)
            record: dict[str, Any] = {"setup_s": setup_s}
        else:
            record = run_workload(
                args.workload, args.seed, args.seconds, workdir=workdir,
                passes=args.passes, trace=bool(args.trace),
                spans=args.spans, spawned_at=args.spawned_at,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
