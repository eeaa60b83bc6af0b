"""Benchmark — zero-copy shared-memory transport vs per-task pickling.

The parallel-sweep bugfix has two halves, and this harness guards both:

* **Transport.** Moving a designsearch-shaped sweep (>= 64 tasks that
  share a large :class:`repro.netsim.batchroute.PathMatrix`, the way
  real sweep tasks share routing tables and fault planes) through the
  :mod:`repro.sharedmem` block transport must beat moving the same
  tasks through per-task pickle round-trips by at least 1.5x.  Per-task
  dispatch re-serializes the shared arrays for every task; the block
  transport copies them into a shared segment once per chunk and every
  worker attaches a view.

* **Crossover.** A sweep at or under the small-sweep cutoff run with
  ``jobs=4`` must cost within 10% (plus absolute slack) of the same
  sweep run serially — the executor must decline the pool instead of
  reproducing the once-measured inversion where ``jobs=4`` design
  search ran slower than serial.

The transport legs are measured in-process (encode + decode round
trips) rather than through pool wall-clock, so the comparison is
meaningful on single-core CI runners too: what is being timed is the
serialization work itself, which is the part the shared-memory path
removes.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_shm_transport.py -s
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro import sharedmem
from repro.analysis.report import render_table
from repro.netsim.batchroute import PathMatrix

pytestmark = pytest.mark.skipif(
    not sharedmem.shm_supported(),
    reason="multiprocessing.shared_memory unusable on this platform",
)

#: Acceptance floor from the issue: zero-copy beats per-task pickling
#: by at least this factor on a >= 64-task sweep with array payloads.
MIN_SPEEDUP = 1.5

#: Sweep shape: one task per candidate, dispatched as ``JOBS`` blocks.
N_TASKS = 64
JOBS = 4

#: Paths in the shared PathMatrix — ~1.5 MB of CSR arrays, the scale
#: at which re-pickling it per task dominated dispatch.
SHARED_PATHS = 48_000

REPEATS = 3


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _tasks() -> list[tuple[int, int, PathMatrix]]:
    """A designsearch-shaped sweep: small per-task params plus a large
    shared routing payload referenced by every task."""
    paths = [
        [j % 97, (j + 1) % 97, (j + 2) % 97] for j in range(SHARED_PATHS)
    ]
    shared = PathMatrix.from_paths(paths)
    return [(i, 1000 + i, shared) for i in range(N_TASKS)]


def _chunks(tasks: list, jobs: int) -> list[list]:
    size = (len(tasks) + jobs - 1) // jobs
    return [tasks[i: i + size] for i in range(0, len(tasks), size)]


def _pickle_leg(tasks: list) -> list:
    """Per-task pickling: one dumps+loads round trip per task."""
    return [pickle.loads(pickle.dumps(t, protocol=5)) for t in tasks]


def _shm_leg(tasks: list) -> list:
    """Block transport: encode ``JOBS`` chunks into shared segments,
    attach them back as zero-copy views (what each worker does).

    The returned PathMatrix views stay readable after the pool unlinks
    (the mapping lives until :func:`sharedmem.detach_segments`); the
    caller drops them and detaches when done, exactly like a worker.
    """
    out: list = []
    with sharedmem.SharedArrayPool() as pool:
        payloads = [pool.dumps(chunk) for chunk in _chunks(tasks, JOBS)]
        for payload in payloads:
            out.extend(sharedmem.shm_loads(payload))
    return out


def test_shm_transport_speedup(report):
    """Zero-copy block transport >= 1.5x per-task pickling."""
    tasks = _tasks()
    assert len(tasks) >= 64

    # Warm both legs once (codec registration, segment probe, pickle
    # memo tables) so the timed sections compare steady state.
    _pickle_leg(tasks[:2])
    _shm_leg(tasks[:2])
    sharedmem.detach_segments()

    pickle_s = min(
        _timed(lambda: _pickle_leg(tasks))[1] for _ in range(REPEATS)
    )
    shm_times = []
    for _ in range(REPEATS):
        out, t = _timed(lambda: _shm_leg(tasks))
        del out  # release the zero-copy views before closing mappings
        sharedmem.detach_segments()
        shm_times.append(t)
    shm_s = min(shm_times)

    # The speedup only counts if the transport moved identical bits.
    via_pickle = _pickle_leg(tasks)
    via_shm = _shm_leg(tasks)
    for (pi, pseed, ppm), (si, sseed, spm) in zip(via_pickle, via_shm):
        assert (pi, pseed) == (si, sseed)
        assert np.array_equal(ppm._link_ids, spm._link_ids)
        assert np.array_equal(ppm._offsets, spm._offsets)
    del via_shm, spm
    sharedmem.detach_segments()
    assert sharedmem.active_segments() == []

    speedup = pickle_s / max(shm_s, 1e-9)
    shared_kib = (
        tasks[0][2]._link_ids.nbytes + tasks[0][2]._offsets.nbytes
    ) // 1024

    report(render_table(
        [
            {
                "transport": name,
                "round_trip_s": f"{secs:.4f}",
                "vs_pickle": f"x{pickle_s / max(secs, 1e-9):.2f}",
            }
            for name, secs in [
                (f"per-task pickle x{N_TASKS}", pickle_s),
                (f"shm blocks x{JOBS}", shm_s),
            ]
        ],
        ["transport", "round_trip_s", "vs_pickle"],
        title=f"Sweep transport: {N_TASKS} tasks sharing "
        f"~{shared_kib} KiB of CSR arrays",
    ))

    assert speedup >= MIN_SPEEDUP, (
        f"shm transport only x{speedup:.2f} over per-task pickling "
        f"(pickle {pickle_s:.4f}s, shm {shm_s:.4f}s); "
        f"need >= x{MIN_SPEEDUP}"
    )


def test_small_sweep_parallel_matches_serial(report):
    """jobs=4 on a sub-cutoff sweep costs the same as serial.

    ``design_search(12, ...)`` enumerates 21 candidates — under the
    32-task cutoff — so the executor must run it in-process for any
    ``jobs`` value rather than paying pool startup it cannot amortize
    (the original parallel-slower-than-serial design-search bug).
    """
    from repro.caching import clear_all_caches
    from repro.experiments.designsearch import design_search
    from repro.machines.catalog import JUQUEEN

    def key(cands):
        return [
            (c.machine.midplane_dims, c.bandwidths,
             c.dominated_baseline, c.wins)
            for c in cands
        ]

    clear_all_caches()
    design_search(12, JUQUEEN, jobs=1)  # warm memos: compare dispatch
    serial_s = parallel_s = float("inf")
    for _ in range(REPEATS):
        serial, t = _timed(lambda: design_search(12, JUQUEEN, jobs=1))
        serial_s = min(serial_s, t)
        parallel, t = _timed(lambda: design_search(12, JUQUEEN, jobs=4))
        parallel_s = min(parallel_s, t)
    assert key(parallel) == key(serial)

    report(render_table(
        [{
            "grid": "design_search(12) — 21 candidates",
            "serial_s": f"{serial_s:.4f}",
            "jobs=4_s": f"{parallel_s:.4f}",
            "identical": "yes",
        }],
        ["grid", "serial_s", "jobs=4_s", "identical"],
        title="Small-sweep crossover: jobs=4 must not pay for a pool",
    ))

    # Within 10% plus absolute slack for scheduler jitter on tiny runs.
    assert parallel_s <= serial_s * 1.10 + 0.05, (
        f"jobs=4 took {parallel_s:.4f}s vs serial {serial_s:.4f}s on a "
        f"sub-cutoff sweep: the executor paid for a pool it cannot use"
    )
