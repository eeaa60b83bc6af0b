"""The deterministic sweep executor.

Every sweep-shaped experiment in this repository — pairing curves,
fault-study grids, design searches, variability streams — evaluates a
pure task function over a fixed grid of (geometry, seed) points.
:func:`sweep_map` runs all of them, serially or across worker
processes, while keeping the results **bit-identical** to
``[fn(t) for t in tasks]``:

* tasks are enumerated once, up front, in a deterministic order;
* randomness is injected only through explicit per-task seeds (see
  :func:`split_seeds`) derived from the caller's base seed, never from
  worker identity, scheduling order, or wall-clock;
* results are collected **in task order** regardless of completion
  order;
* ``jobs=1`` — and any environment where a process pool cannot be
  created (restricted sandboxes, missing ``/dev/shm``, recursive
  pools) — runs the same chunks in-process, so parallelism is an
  optimization, never a semantic.

One planner cuts the pending tasks into chunks: blocks through a
registered block form (:func:`register_block_runner`), else plain
``[fn(t) for t in chunk]`` lists.  One in-process loop and one pool
loop run the chunks.  The optional policy and checkpoint journal of
:mod:`repro.resilience` plug into both loops.

Task functions must be module-level callables and their arguments and
results picklable; the experiment drivers keep their workers at module
scope for exactly this reason.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

from . import env, observability, sharedmem
from ._validation import check_nonnegative_int, check_positive_int
from .resilience import (
    ResiliencePolicy,
    SweepCheckpoint,
    TaskFailure,
    _maybe_test_kill,
)

__all__ = [
    "sweep_map",
    "split_seeds",
    "resolve_jobs",
    "BlockRunner",
    "register_block_runner",
    "unregister_block_runner",
    "block_runner_for",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment knob: default worker count when a caller passes ``jobs=0``.
_JOBS_ENV = "REPRO_JOBS"


def _usable_cpus() -> int:
    """CPUs this process may run on.

    The affinity set where the platform has one (a ``taskset`` or
    cpuset limit), else the host's CPU count.
    """
    count = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        count = min(count, len(os.sched_getaffinity(0)))
    return count


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value to a concrete worker count.

    ``None`` or ``0`` means "auto": the ``REPRO_JOBS`` environment
    variable if set and valid, else the number of CPUs this process may
    run on.  Anything else must be a positive integer and is returned
    unchanged.

    An invalid ``REPRO_JOBS`` (negative, zero, empty, or non-numeric)
    is not silently swallowed: a :class:`RuntimeWarning` names the bad
    value before the explicit fall back to the CPU count.
    """
    if jobs is None or jobs == 0:
        raw = env.get_raw(_JOBS_ENV)
        if raw is not None:
            try:
                val: int | None = int(raw)
            except ValueError:
                val = None
            if val is not None and val >= 1:
                return val
            fallback = _usable_cpus()
            warnings.warn(
                f"ignoring invalid {_JOBS_ENV}={raw!r} (expected a "
                f"positive integer); falling back to the CPU count "
                f"({fallback})",
                RuntimeWarning,
                stacklevel=2,
            )
            return fallback
        return _usable_cpus()
    return check_positive_int(jobs, "jobs")


def split_seeds(seed: int, n: int) -> tuple[int, ...]:
    """*n* statistically independent child seeds of *seed*.

    Uses :class:`numpy.random.SeedSequence` spawning, so the children
    are a pure function of ``(seed, n)`` — the same grid gets the same
    seeds no matter how many workers evaluate it, and nearby base seeds
    do not produce correlated streams (unlike ``seed + i`` arithmetic).

    Examples
    --------
    >>> split_seeds(0, 3) == split_seeds(0, 3)
    True
    >>> len(set(split_seeds(7, 100)))
    100
    """
    check_nonnegative_int(seed, "seed")
    check_nonnegative_int(n, "n")
    ss = np.random.SeedSequence(seed)
    return tuple(int(child.generate_state(1)[0]) for child in ss.spawn(n))


# ----------------------------------------------------------------------
# Block dispatch: batchable task families
#
# Some task functions have a *block form* — a module-level callable that
# evaluates a whole list of tasks in one vectorized pass (e.g. the
# stacked fluid solver advancing hundreds of fault scenarios in one
# numpy water-fill) and returns one result per task.  Registering that
# block form lets :func:`sweep_map` dispatch scenario *blocks* instead
# of single tasks: the per-scenario python overhead amortizes across
# the block, and the pool moves far fewer (bigger) pickles.  Block
# forms are the only driver path: each registered task function is its
# block form applied to a block of one, and ``tests/oracles/`` holds the
# scalar references the differential suites pin them to.

#: Sweeps at or below this many tasks run serially in-process — pool
#: startup + pickling costs more than it saves at this size (forced
#: through a 2-worker pool, a 21-candidate design search ran ~6x
#: *slower* than serial; EXPERIMENTS.md, "One perf ledger").  Applies
#: to every sweep, checkpointed or not, except one with a task
#: timeout: only a pool worker can be timed out.
_SMALL_SWEEP_TASKS = 32

#: Scheduler cost model: these only have to get the *sign* of "does a
#: pool pay for itself" right, and tests monkeypatch them to force
#: either branch deterministically.  Both are measured on the fault
#: grid's pooled rest (Mira's (2,2,2,2), 42 tasks in 7 blocks on 2
#: forked workers, 2-CPU x86-64 Linux, 12 passes): the two workers'
#: first blocks started a median 3.9 and 4.1 ms after the probe ended
#: (3.3-15 ms over all passes), and a worker started its next block a
#: median 0.5 ms (0.3-4.4 ms) after finishing one.  Guesses of 15 ms
#: and 2 ms declined that pool at 2 ms per task, though the pooled
#: pass took 78 ms against 115 ms in-process (medians of 15
#: interleaved passes).
#: Cost of spawning one pool worker (fork + warmup).
_POOL_SPAWN_S = 0.004
#: Per-block dispatch cost (pickle + queue round-trip).
_DISPATCH_S = 0.0005
#: Adaptive chunk sizing aims for blocks of roughly this wall-clock.
_TARGET_BLOCK_S = 0.25


@dataclass(frozen=True)
class BlockRunner:
    """A registered block form of a task function.

    Attributes
    ----------
    block_fn:
        Module-level callable mapping a list of tasks to a list of
        results (one per task, in order, bit-identical to the task
        function applied per task).
    max_block_tasks:
        Upper bound on tasks per block — caps peak memory of the
        stacked solve.
    """

    block_fn: Callable[[Sequence[Any]], Sequence[Any]]
    max_block_tasks: int = 256


_BLOCK_RUNNERS: dict[Callable[..., Any], BlockRunner] = {}


def register_block_runner(
    task_fn: Callable[[_T], _R],
    block_fn: Callable[[Sequence[_T]], Sequence[_R]],
    *,
    max_block_tasks: int = 256,
) -> None:
    """Register *block_fn* as the batched form of *task_fn*.

    Both callables must be module-level (picklable) functions.  The
    contract is strict: ``block_fn(tasks)`` must return exactly
    ``[task_fn(t) for t in tasks]`` — the differential test suite
    enforces bit-identity, and :func:`sweep_map` validates the result
    count of every block.
    """
    check_positive_int(max_block_tasks, "max_block_tasks")
    _BLOCK_RUNNERS[task_fn] = BlockRunner(
        block_fn=block_fn, max_block_tasks=max_block_tasks
    )


def unregister_block_runner(task_fn: Callable[..., Any]) -> None:
    """Remove *task_fn*'s block registration (test hygiene)."""
    _BLOCK_RUNNERS.pop(task_fn, None)


def block_runner_for(
    fn: Callable[..., Any]
) -> BlockRunner | None:
    """The registered block runner for *fn*, or ``None``."""
    return _BLOCK_RUNNERS.get(fn)


def _block_size(n: int, workers: int, runner: BlockRunner | None) -> int:
    """Tasks per chunk for *n* tasks on *workers* workers.

    The pool aims for roughly four chunks per worker so stragglers
    load-balance.  In-process, a block form gets one maximal block (the
    stacked solve's amortization is the whole point) and a plain task
    function one task per chunk, so each execution is one attempt and
    is journaled before the next starts.  The runner's
    ``max_block_tasks`` caps either.
    """
    if workers > 1:
        size = -(-n // (workers * 4))
    else:
        size = n if runner is not None else 1
    if runner is not None:
        size = min(size, runner.max_block_tasks)
    return max(1, size)


def _plan_adaptive(
    n: int, workers: int, runner: BlockRunner | None, per_task_s: float
) -> tuple[int, int] | None:
    """Chunk plan ``(chunk_size, workers)`` for the post-probe rest.

    Sizes chunks from the *measured* per-task cost — small enough to
    load-balance (≈4 chunks per worker), but no finer than chunks of
    ``_TARGET_BLOCK_S`` wall-clock need — then projects pool cost
    (worker spawn + per-chunk dispatch + compute split across workers)
    against just finishing serially.  Returns ``None`` when the pool
    would not pay for itself: the crossover that made
    ``designsearch_parallel_s`` worse than serial is decided by
    arithmetic here, not hoped away.  Workers are capped at the planned
    chunk count — a pool process with no chunk to run is pure spawn
    cost.
    """
    workers = min(workers, n)
    by_balance = max(1, -(-n // (workers * 4)))
    by_time = (
        max(1, int(_TARGET_BLOCK_S / per_task_s))
        if per_task_s > 0
        else by_balance
    )
    cap = runner.max_block_tasks if runner is not None else n
    size = max(1, min(by_balance, by_time, cap))
    num_blocks = -(-n // size)
    workers = min(workers, num_blocks)
    if workers <= 1:
        return None
    serial_s = per_task_s * n
    pool_s = (
        workers * _POOL_SPAWN_S
        + num_blocks * _DISPATCH_S
        + serial_s / workers
    )
    if pool_s >= serial_s:
        return None
    return size, workers


def _run_chunk(
    fn: Callable[[Any], Any],
    block_fn: Callable[[Sequence[Any]], Sequence[Any]] | None,
    indices: Sequence[int],
    chunk: Sequence[Any],
) -> list[Any]:
    """Evaluate one chunk, in a worker or in-process.

    The test kill hook fires for every index first, so a chaos test
    targeting task ``i`` dies however the sweep was chunked.
    """
    for i in indices:
        _maybe_test_kill(i)
    if block_fn is None:
        return [fn(t) for t in chunk]
    with observability.span("parallel.block", tasks=len(chunk)):
        return list(block_fn(chunk))


@dataclass(frozen=True)
class _PoolChunk:
    """Picklable pool entry point: a chunk's results plus the worker's
    cumulative metric snapshot.

    The chunk may arrive as a :class:`repro.sharedmem.ShmPayload`
    (zero-copy views over the parent's segments); with ``shm`` large
    result buffers travel back through worker-owned segments, which
    the parent materializes and unlinks.
    """

    fn: Callable[[Any], Any]
    block_fn: Callable[[Sequence[Any]], Sequence[Any]] | None
    shm: bool

    def __call__(
        self, indices: Sequence[int], payload: Any
    ) -> tuple[Any, observability.TraceSnapshot]:
        chunk = sharedmem.shm_loads(payload)
        values: Any = _run_chunk(self.fn, self.block_fn, indices, chunk)
        if self.shm:
            values = sharedmem.maybe_shm_dumps(values)
        return values, observability.worker_snapshot()


def _pool_worker_init() -> None:
    """Pool initializer: zero fork-inherited observability counters and
    drop fork-inherited shared-segment mappings (workers re-attach on
    demand against their own cache)."""
    observability.reset_worker()
    sharedmem.detach_segments()


_PENDING = object()

#: A planned chunk: task indices, and the block form that runs them
#: (``None``: the task function, task by task).
_Chunk = tuple[list[int], Any]


class _PoolRestart(Exception):
    """Unwind the pool loop to rebuild the pool."""


class _Sweep:
    """One sweep's result slots, attempt counts and journal.

    Both loops report to it: :meth:`complete` fills (and journals) a
    chunk's slots, and :meth:`failed` turns a chunk that raised into
    the chunks to run next.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        tasks: list[Any],
        policy: ResiliencePolicy | None,
        journal: SweepCheckpoint | None,
    ):
        self.fn = fn
        self.tasks = tasks
        self.policy = policy
        self.journal = journal
        self.runner: BlockRunner | None = None
        self.results: list[Any] = [_PENDING] * len(tasks)
        self.attempts: dict[int, int] = {}
        self.keys: list[str] = []
        self.chunks_done = 0
        if journal is not None:
            self.keys, done = journal.resume(fn, tasks)
            for i, value in done.items():
                self.results[i] = value
            if done:
                observability.counter_add(
                    "resilience.resumed_tasks", len(done)
                )

    def pending(self) -> list[int]:
        return [i for i, r in enumerate(self.results) if r is _PENDING]

    def plan(self, indices: list[int], size: int) -> list[_Chunk]:
        block_fn = self.runner.block_fn if self.runner else None
        return [
            (indices[s : s + size], block_fn)
            for s in range(0, len(indices), size)
        ]

    @staticmethod
    def check(values: Sequence[Any], chunk: _Chunk) -> None:
        indices, block_fn = chunk
        if len(values) != len(indices):
            raise RuntimeError(
                f"block runner "
                f"{getattr(block_fn, '__qualname__', block_fn)!r} "
                f"returned {len(values)} results for a block of "
                f"{len(indices)} tasks"
            )

    def complete(self, chunk: _Chunk, values: Sequence[Any]) -> None:
        for i, value in zip(chunk[0], values):
            self.results[i] = value
            if self.journal is not None:
                self.journal.record(self.keys[i], i, value)
        self.chunks_done += 1

    def failed(self, chunk: _Chunk, exc: Exception) -> list[_Chunk]:
        """The chunks to run after *chunk* raised *exc*.

        Without a policy the exception propagates.  With one, a block
        (or a multi-task chunk) falls back to one plain chunk per task,
        and a single task retries, is quarantined, or re-raises.
        """
        if self.policy is None:
            raise exc
        indices, block_fn = chunk
        if block_fn is not None or len(indices) > 1:
            observability.counter_add("resilience.block_fallbacks")
            return [([i], None) for i in indices]
        if self.retry(indices[0]):
            return [chunk]
        self.fail(indices[0], exc)
        return []

    def retry(self, index: int) -> bool:
        """Count a failed attempt; whether the task may run again."""
        assert self.policy is not None
        attempt = self.attempts[index] = self.attempts.get(index, 0) + 1
        if attempt > self.policy.max_retries:
            return False
        observability.counter_add("resilience.retries")
        time.sleep(self.policy.backoff(attempt))  # repro: allow-wallclock retry backoff; delays rerun, never changes results
        return True

    def fail(self, index: int, exc: Exception) -> None:
        """A task exhausted its retries: quarantine it or raise."""
        assert self.policy is not None
        if not self.policy.quarantine:
            raise exc
        observability.counter_add("resilience.quarantined")
        text = repr(self.tasks[index])
        self.results[index] = TaskFailure(
            index=index,
            task=text if len(text) <= 120 else text[:117] + "...",
            error_type=type(exc).__name__,
            error=str(exc),
            attempts=self.attempts.get(index, 0),
        )


def _run_serial(sweep: _Sweep, pending: list[int]) -> None:
    """Run *pending* in-process: maximal blocks, or one task per chunk."""
    size = _block_size(len(pending), 1, sweep.runner)
    queue = deque(sweep.plan(pending, size))
    while queue:
        chunk = queue.popleft()
        indices, block_fn = chunk
        try:
            values = _run_chunk(
                sweep.fn, block_fn, indices,
                [sweep.tasks[i] for i in indices],
            )
            sweep.check(values, chunk)
        except Exception as exc:
            queue.extendleft(reversed(sweep.failed(chunk, exc)))
            continue
        sweep.complete(chunk, values)


def _probe(
    sweep: _Sweep, pending: list[int], workers: int
) -> tuple[int, int]:
    """Run the first pool-sized chunk in-process, timed; plan the rest.

    Returns ``(chunk_size, workers)`` for the pool, with ``workers`` 1
    when the measured cost says the pool would not pay for itself (see
    :func:`_plan_adaptive`).
    """
    probe = pending[: _block_size(len(pending), workers, sweep.runner)]
    start = time.perf_counter()  # repro: allow-wallclock chunk-size probe; steers scheduling only, never task results
    _run_serial(sweep, probe)
    probe_s = time.perf_counter() - start  # repro: allow-wallclock chunk-size probe; steers scheduling only, never task results
    rest = len(pending) - len(probe)
    if not rest:
        return 1, 1
    per_task = max(probe_s / len(probe), 1e-9)
    plan = _plan_adaptive(rest, workers, sweep.runner, per_task)
    if plan is None:
        observability.counter_add("parallel.adaptive_serial")
        return 1, 1
    return plan


def _pool_generation(
    sweep: _Sweep,
    executor: Any,
    chunks: list[_Chunk],
    shm: bool,
    snapshots: dict[int, observability.TraceSnapshot],
) -> None:
    """Run *chunks* on one pool until every one is done or dropped.

    A chunk that raised is resubmitted as :meth:`_Sweep.failed` plans.
    Raises :class:`_PoolRestart` when a worker died or a task timed
    out: the pool must go.  The executor is shut down on every exit.
    With the shared-memory transport the generation's chunks live in
    one parent-owned segment pool, unlinked when the generation
    completes **or** dies.
    """
    from concurrent.futures.process import BrokenProcessPool

    timeout = sweep.policy.task_timeout if sweep.policy else None
    tx = sharedmem.SharedArrayPool() if shm else None

    def submit(chunk: _Chunk) -> tuple[_Chunk, Any]:
        indices, block_fn = chunk
        payload: Any = [sweep.tasks[i] for i in indices]
        if tx is not None:
            payload = tx.dumps(payload)
        task = _PoolChunk(sweep.fn, block_fn, shm)
        return chunk, executor.submit(task, indices, payload)

    queue: deque[tuple[_Chunk, Any]] = deque()
    done = False
    try:
        queue.extend(map(submit, chunks))
        while queue:
            chunk, fut = queue.popleft()
            try:
                values, snap = fut.result(timeout=timeout)
                values = sharedmem.decode_result(values)
                sweep.check(values, chunk)
            except BrokenProcessPool:
                raise
            except Exception as exc:
                if not fut.done():
                    # Timed out: the worker is stuck on the task.
                    observability.counter_add("resilience.timeouts")
                    index = chunk[0][0]
                    if not sweep.retry(index):
                        sweep.fail(index, TimeoutError(
                            f"task exceeded {timeout}s wall-clock budget"
                        ))
                    raise _PoolRestart(f"task {index} timed out") from None
                retry = sweep.failed(chunk, exc)
                queue.extendleft(reversed(list(map(submit, retry))))
                continue
            last = snapshots.get(snap.pid)
            if last is None or snap.seq > last.seq:
                snapshots[snap.pid] = snap
            sweep.complete(chunk, values)
        done = True
    except BrokenProcessPool:
        # From a result wait, or from submit() when the pool died
        # between waits.
        raise _PoolRestart("worker process died") from None
    finally:
        executor.shutdown(wait=done, cancel_futures=True)
        # Results nobody consumed may hold worker-owned segments.
        for _chunk, fut in queue:
            if fut.done() and not fut.cancelled() and (
                fut.exception() is None
            ):
                sharedmem.release_payload(fut.result()[0])
        if tx is not None:
            observability.counter_add("parallel.shm_bytes", tx.bytes_used)
            tx.unlink()


def _run_pool(
    sweep: _Sweep, size: int, workers: int, transport: str | None
) -> str | None:
    """Run the pending tasks in a process pool, in chunks of *size*.

    The one place a pool is built: after a worker death or a timeout
    it is rebuilt, up to the policy's ``max_pool_rebuilds``, and chunks
    are re-planned over the tasks still pending (completed tasks were
    journaled one by one).  Each worker's final metric snapshot is
    merged once.  Returns ``None`` once no task is pending, else why
    the rest must run in-process.
    """
    from concurrent.futures import ProcessPoolExecutor

    shm = sharedmem.resolve_transport(transport) == "shm"
    max_rebuilds = (sweep.policy or ResiliencePolicy()).max_pool_rebuilds
    snapshots: dict[int, observability.TraceSnapshot] = {}
    rebuilds = 0
    try:
        while pending := sweep.pending():
            try:
                executor = ProcessPoolExecutor(
                    max_workers=workers, initializer=_pool_worker_init
                )
            except (
                ImportError, NotImplementedError, OSError, PermissionError
            ) as exc:
                return (
                    f"cannot create a process pool "
                    f"({type(exc).__name__}: {exc})"
                )
            try:
                _pool_generation(
                    sweep, executor, sweep.plan(pending, size), shm,
                    snapshots,
                )
            except _PoolRestart as err:
                rebuilds += 1
                observability.counter_add("resilience.pool_rebuilds")
                if rebuilds > max_rebuilds:
                    return (
                        f"process pool irrecoverable after {max_rebuilds} "
                        f"rebuild(s) (last: {err})"
                    )
                warnings.warn(
                    f"rebuilding worker pool ({err}); re-planning "
                    f"{len(sweep.pending())} unfinished task(s)",
                    RuntimeWarning,
                    stacklevel=3,
                )
    finally:
        for snap in snapshots.values():
            observability.merge_snapshot(snap)
    return None


def sweep_map(
    fn: Callable[[_T], _R],
    tasks: Iterable[_T],
    jobs: int | None = 1,
    *,
    policy: ResiliencePolicy | None = None,
    checkpoint: str | os.PathLike[str] | SweepCheckpoint | None = None,
    transport: str | None = None,
) -> list[_R]:
    """Map *fn* over *tasks*, optionally across worker processes.

    Parameters
    ----------
    fn:
        Pure task function.  For ``jobs > 1`` it must be a module-level
        callable with picklable arguments and results.
    tasks:
        The task grid; consumed eagerly so ordering is fixed before any
        worker starts.
    jobs:
        Worker processes.  ``1`` runs serially in-process; ``None``/``0``
        resolves via :func:`resolve_jobs` (``REPRO_JOBS`` or CPU count).
        The effective count is additionally capped at the CPUs this
        process may run on; when that cap leaves a single worker, the
        sweep runs serially (a one-worker pool is pure IPC overhead).
    policy:
        Optional :class:`repro.resilience.ResiliencePolicy`: bounded
        retries, per-task timeouts, the pool-rebuild budget, poison-task
        quarantine, and per-task fallback for a block that raises.
        ``None`` means no retries, no timeout and no quarantine: the
        first task exception propagates.
    checkpoint:
        Optional JSONL checkpoint path (or
        :class:`repro.resilience.SweepCheckpoint`): completed task
        results are journaled as they finish and a restarted sweep
        resumes from them instead of recomputing.
    transport:
        How chunk payloads reach the workers: ``"shm"`` ships large
        numpy buffers as zero-copy :mod:`repro.sharedmem` descriptors,
        ``"pickle"`` uses the classic pipe, and ``None``/``"auto"``
        (the default) picks shm whenever ``REPRO_SHM`` is not disabled
        and the platform supports it.  Transport never changes
        results — only how their bytes travel.

    Returns
    -------
    list
        One result per task, **in task order** — bit-identical to
        ``[fn(t) for t in tasks]`` (with ``policy.quarantine``, a
        :class:`repro.resilience.TaskFailure` at a poison task's slot).

    Notes
    -----
    When *fn* has a registered block runner (see
    :func:`register_block_runner`), chunks run through the runner's
    vectorized block function — same results, but hundreds of scenarios
    advance in one stacked solver call.

    Sweeps of at most ``_SMALL_SWEEP_TASKS`` pending tasks run
    in-process, where pool startup would dominate.  Larger ones run the
    first chunk in-process and time it; the measured cost sizes the
    remaining chunks and decides — see :func:`_plan_adaptive` — whether
    a pool pays for itself at all.  A sweep with a task timeout skips
    both and pools one task per chunk, since only a worker can be timed
    out.  A pool that cannot be created (or stays broken past the
    rebuild budget) degrades, with one :class:`RuntimeWarning`, to the
    in-process loop.

    Each pool result carries the worker's cumulative metric snapshot
    (:mod:`repro.observability`); the final snapshot per worker is
    merged into this process, so memo hit/miss accounting
    (:func:`repro.caching.cache_stats`) and — when tracing is enabled —
    counters and span totals reflect worker-side activity.
    """
    task_list = list(tasks)
    jobs = resolve_jobs(jobs)
    journal = checkpoint
    if journal is not None and not isinstance(journal, SweepCheckpoint):
        journal = SweepCheckpoint(journal)
    sweep = _Sweep(fn, task_list, policy, journal)
    timeout = None if policy is None else policy.task_timeout
    try:
        pending = sweep.pending()
        if timeout is None:
            sweep.runner = block_runner_for(fn)
        workers = max(1, min(jobs, len(pending), _usable_cpus()))
        if timeout is None and len(pending) <= _SMALL_SWEEP_TASKS:
            workers = 1  # pool overhead beats the savings at this size
        with observability.span(
            "parallel.sweep", tasks=len(pending), workers=workers
        ):
            size = 1
            if workers > 1 and timeout is None:
                size, workers = _probe(sweep, pending, workers)
            if workers > 1:
                reason = _run_pool(sweep, size, workers, transport)
                if reason is not None:
                    warnings.warn(
                        f"{reason}; degrading to serial execution for the "
                        f"remaining {len(sweep.pending())} task(s)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    observability.counter_add("parallel.fallback_serial")
                    workers = 1
            _run_serial(sweep, sweep.pending())
    finally:
        if journal is not None:
            journal.close()
    if observability.OBS.enabled:
        observability.counter_add("parallel.sweeps")
        observability.counter_add("parallel.tasks", len(pending))
        observability.counter_add("parallel.blocks", sweep.chunks_done)
        observability.gauge_set("parallel.workers", workers)
        if policy is not None or checkpoint is not None:
            observability.counter_add("resilience.sweeps")
            observability.counter_add("resilience.tasks", len(task_list))
    return sweep.results
