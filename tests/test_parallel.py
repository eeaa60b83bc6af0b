"""Unit tests for the deterministic sweep executor."""

from __future__ import annotations

import os

import pytest

from repro.parallel import (
    BlockRunner,
    _block_size,
    _usable_cpus,
    block_runner_for,
    register_block_runner,
    resolve_jobs,
    split_seeds,
    sweep_map,
    unregister_block_runner,
)


def square(x):
    return x * x


def failing(x):
    if x == 3:
        raise ValueError("task 3 exploded")
    return x


def seeded_sum(task):
    import numpy as np

    n, seed = task
    rng = np.random.default_rng(seed)
    return float(rng.random(n).sum())


class TestSweepMap:
    def test_serial_matches_plain_map(self):
        items = list(range(17))
        assert sweep_map(square, items, jobs=1) == [x * x for x in items]

    def test_parallel_matches_serial_in_order(self):
        items = list(range(23))
        serial = sweep_map(square, items, jobs=1)
        parallel = sweep_map(square, items, jobs=4)
        assert parallel == serial

    def test_parallel_seeded_results_bit_identical(self):
        tasks = [(100, s) for s in split_seeds(42, 12)]
        assert sweep_map(seeded_sum, tasks, jobs=4) == sweep_map(
            seeded_sum, tasks, jobs=1
        )

    def test_empty_grid(self):
        assert sweep_map(square, [], jobs=4) == []

    def test_single_task_stays_serial(self):
        assert sweep_map(square, [7], jobs=8) == [49]

    def test_task_exception_propagates_serial(self):
        with pytest.raises(ValueError, match="task 3"):
            sweep_map(failing, range(5), jobs=1)

    def test_task_exception_propagates_parallel(self):
        with pytest.raises(ValueError, match="task 3"):
            sweep_map(failing, range(5), jobs=2)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            sweep_map(square, [1, 2], jobs=-2)

    def test_consumes_generators_eagerly(self):
        gen = (x for x in range(6))
        assert sweep_map(square, gen, jobs=1) == [x * x for x in range(6)]


class TestCpuCap:
    """Regression: a jobs>1 sweep on a 1-CPU host must not spawn a pool
    (the pool was measured ~2x slower than serial there)."""

    def test_single_cpu_runs_serially(self, monkeypatch):
        import repro.parallel as parallel

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)

        def _no_pool(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError(
                "ProcessPoolExecutor created despite cpu_count=1"
            )

        import concurrent.futures

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _no_pool
        )
        items = list(range(9))
        assert sweep_map(square, items, jobs=4) == [x * x for x in items]

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        import repro.parallel as parallel

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "_POOL_SPAWN_S", 0.0)
        monkeypatch.setattr(parallel, "_DISPATCH_S", 0.0)
        seen: dict[str, int] = {}

        import concurrent.futures

        real_pool = concurrent.futures.ProcessPoolExecutor

        def _spy_pool(max_workers=None, **kwargs):
            seen["max_workers"] = max_workers
            return real_pool(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _spy_pool
        )
        # Above the small-sweep cutoff, else no pool is created at all.
        items = list(range(40))
        assert sweep_map(square, items, jobs=8) == [x * x for x in items]
        assert seen["max_workers"] == 2

    def test_single_cpu_fallback_emits_sweep_metrics(self, monkeypatch):
        """The serial fallback keeps the observability contract: the
        parallel.sweep span and task counters appear either way."""
        import repro.parallel as parallel
        from repro import observability

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
        s = observability.OBS
        saved = (
            s.enabled, s.events, s.dropped_events, s.stack,
            s.span_totals, s.counters, s.gauges, s.origin,
        )
        s.enabled = False
        s.reset()
        try:
            observability.enable()
            sweep_map(square, list(range(5)), jobs=2)
            assert s.counters["parallel.tasks"] == 5.0
            assert s.counters["parallel.sweeps"] == 1.0
            assert "parallel.sweep" in s.span_totals
            assert s.gauges["parallel.workers"] == 1.0
        finally:
            (
                s.enabled, s.events, s.dropped_events, s.stack,
                s.span_totals, s.counters, s.gauges, s.origin,
            ) = saved

    def test_pool_creation_failure_emits_sweep_metrics(self, monkeypatch):
        import concurrent.futures

        import repro.parallel as parallel
        from repro import observability

        def _broken_pool(*args, **kwargs):
            raise OSError("no process support")

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(parallel, "_POOL_SPAWN_S", 0.0)
        monkeypatch.setattr(parallel, "_DISPATCH_S", 0.0)
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _broken_pool
        )
        s = observability.OBS
        saved = (
            s.enabled, s.events, s.dropped_events, s.stack,
            s.span_totals, s.counters, s.gauges, s.origin,
        )
        s.enabled = False
        s.reset()
        try:
            observability.enable()
            items = list(range(40))
            with pytest.warns(
                RuntimeWarning, match="cannot create a process pool"
            ):
                result = sweep_map(square, items, jobs=4)
            assert result == [x * x for x in items]
            assert s.counters["parallel.tasks"] == 40.0
            assert "parallel.sweep" in s.span_totals
        finally:
            (
                s.enabled, s.events, s.dropped_events, s.stack,
                s.span_totals, s.counters, s.gauges, s.origin,
            ) = saved


#: Blocks executed by ``tracked_block`` (cleared by the fixture).
_BLOCK_CALLS: list[int] = []


def tracked_square(x):
    return x * x


def tracked_block(xs):
    _BLOCK_CALLS.append(len(xs))
    return [tracked_square(x) for x in xs]


def short_block(xs):
    """A broken block form: drops the last result."""
    return [x * x for x in xs][:-1]


@pytest.fixture
def tracked_runner():
    _BLOCK_CALLS.clear()
    register_block_runner(tracked_square, tracked_block)
    yield
    unregister_block_runner(tracked_square)


class TestBlockDispatch:
    """Sweeps whose task function has a registered block form."""

    def test_register_and_unregister(self, tracked_runner):
        runner = block_runner_for(tracked_square)
        assert runner is not None
        assert runner.block_fn is tracked_block
        unregister_block_runner(tracked_square)
        assert block_runner_for(tracked_square) is None

    def test_unregistered_fn_has_no_runner(self):
        assert block_runner_for(square) is None

    def test_sweep_routes_through_block_fn(self, tracked_runner):
        items = list(range(8))
        assert sweep_map(tracked_square, items, jobs=1) == [
            x * x for x in items
        ]
        # Small sweep, serial dispatch: one maximal block.
        assert _BLOCK_CALLS == [8]

    def test_single_task_sweep_runs_a_block_of_one(self, tracked_runner):
        assert sweep_map(tracked_square, [3], jobs=1) == [9]
        assert _BLOCK_CALLS == [1]

    def test_block_result_count_validated(self):
        register_block_runner(tracked_square, short_block)
        try:
            with pytest.raises(RuntimeError, match="3 results"):
                sweep_map(tracked_square, [1, 2, 3, 4], jobs=1)
        finally:
            unregister_block_runner(tracked_square)

    def test_rejects_bad_block_bounds(self):
        with pytest.raises(ValueError, match="max_block_tasks"):
            register_block_runner(
                tracked_square, tracked_block, max_block_tasks=0
            )
        assert block_runner_for(tracked_square) is None

    def test_small_sweep_never_spawns_a_pool(
        self, tracked_runner, monkeypatch
    ):
        """Crossover regression: block-family sweeps at or below the
        serial cutoff must not pay pool startup, whatever ``jobs``
        says (the designsearch seam where the pool measured slower
        than serial)."""
        import concurrent.futures

        import repro.parallel as parallel

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 8)

        def _no_pool(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError(
                "ProcessPoolExecutor created for a small blocked sweep"
            )

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _no_pool
        )
        items = list(range(parallel._SMALL_SWEEP_TASKS))
        assert sweep_map(tracked_square, items, jobs=8) == [
            x * x for x in items
        ]
        assert sum(_BLOCK_CALLS) == len(items)

    def test_large_sweep_pools_in_blocks(self, tracked_runner, monkeypatch):
        """Above the cutoff, the pool moves whole blocks, not tasks.

        The adaptive planner's modeled pool overhead is zeroed so the
        projected-cost comparison always picks the pool for these
        trivial tasks."""
        import concurrent.futures

        import repro.parallel as parallel

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "_POOL_SPAWN_S", 0.0)
        monkeypatch.setattr(parallel, "_DISPATCH_S", 0.0)
        seen: dict[str, int] = {}
        real_pool = concurrent.futures.ProcessPoolExecutor

        def _spy_pool(max_workers=None, **kwargs):
            seen["max_workers"] = max_workers
            return real_pool(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _spy_pool
        )
        items = list(range(40))
        assert sweep_map(tracked_square, items, jobs=4) == [
            x * x for x in items
        ]
        assert seen["max_workers"] == 2

    def test_block_size_serial_is_maximal(self):
        runner = BlockRunner(block_fn=tracked_block)
        assert _block_size(40, 1, runner) == 40

    def test_block_size_pool_targets_four_per_worker(self):
        runner = BlockRunner(block_fn=tracked_block)
        assert _block_size(100, 4, runner) == 7  # ceil(100 / 16)

    def test_block_size_capped_by_runner(self):
        runner = BlockRunner(block_fn=tracked_block, max_block_tasks=16)
        assert _block_size(500, 1, runner) == 16
        assert _block_size(500, 2, runner) == 16


    def test_cpu_affinity_caps_blocked_sweep(
        self, tracked_runner, monkeypatch
    ):
        """Under a one-CPU affinity limit on an 8-CPU host, ``jobs=8``
        must not spawn a pool."""
        import concurrent.futures

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

        def _no_pool(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError(
                "ProcessPoolExecutor created under a one-CPU affinity"
            )

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _no_pool
        )
        items = list(range(40))
        assert sweep_map(tracked_square, items, jobs=8) == [
            x * x for x in items
        ]
        assert sum(_BLOCK_CALLS) == len(items)


class TestPlainPathCrossover:
    """Satellite regression: the small-sweep serial cutoff applies to
    the plain per-task path, not only block-dispatched families."""

    def test_small_plain_sweep_never_spawns_a_pool(self, monkeypatch):
        import concurrent.futures

        import repro.parallel as parallel

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 8)

        def _no_pool(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError(
                "ProcessPoolExecutor created for a small plain sweep"
            )

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _no_pool
        )
        items = list(range(parallel._SMALL_SWEEP_TASKS))
        assert sweep_map(square, items, jobs=8) == [x * x for x in items]

    def test_cutoff_boundary_is_inclusive(self, monkeypatch):
        import concurrent.futures

        import repro.parallel as parallel

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(parallel, "_POOL_SPAWN_S", 0.0)
        monkeypatch.setattr(parallel, "_DISPATCH_S", 0.0)
        created = []
        real_pool = concurrent.futures.ProcessPoolExecutor

        def _spy_pool(*args, **kwargs):
            created.append(kwargs.get("max_workers"))
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _spy_pool
        )
        n = parallel._SMALL_SWEEP_TASKS
        sweep_map(square, list(range(n)), jobs=8)
        assert created == []  # exactly at the cutoff: serial
        sweep_map(square, list(range(n + 1)), jobs=8)
        assert len(created) == 1  # one past the cutoff: pooled


class TestAdaptiveScheduling:
    """The probe-and-plan crossover heuristic on block sweeps."""

    def test_plan_declines_pool_for_cheap_tasks(self):
        from repro.parallel import BlockRunner, _plan_adaptive

        runner = BlockRunner(block_fn=tracked_block)
        # 64 one-microsecond tasks: spawning any worker costs more
        # than the whole remaining sweep.
        assert _plan_adaptive(64, 4, runner, per_task_s=1e-6) is None

    def test_plan_accepts_pool_for_expensive_tasks(self):
        from repro.parallel import BlockRunner, _plan_adaptive

        runner = BlockRunner(block_fn=tracked_block)
        plan = _plan_adaptive(64, 4, runner, per_task_s=0.1)
        assert plan is not None
        size, workers = plan
        assert workers == 4
        assert 1 <= size <= 64

    def test_plan_caps_workers_at_block_count(self):
        """Satellite regression: more pool processes than planned
        blocks is pure spawn cost — the plan must shrink the pool."""
        from repro.parallel import BlockRunner, _plan_adaptive

        runner = BlockRunner(block_fn=tracked_block)
        # 4 expensive tasks, 8 requested workers: blocks of 1 leave
        # only 4 blocks to feed, so only 4 workers may spawn.
        plan = _plan_adaptive(4, 8, runner, per_task_s=1.0)
        assert plan is not None
        _size, workers = plan
        assert workers == 4

    def test_plan_pools_the_fault_grid_rest(self):
        """The fault grid's rest after its probe (42 of 49 scenarios)
        at the stacked water-fill's 2 ms per task: the measured spawn
        and dispatch costs make two workers pay."""
        from repro.experiments.faultstudy import _fluid_scenario
        from repro.parallel import _plan_adaptive, block_runner_for

        runner = block_runner_for(_fluid_scenario)
        assert _plan_adaptive(42, 2, runner, per_task_s=0.002) == (6, 2)

    def test_plan_respects_runner_block_cap(self):
        from repro.parallel import BlockRunner, _plan_adaptive

        runner = BlockRunner(block_fn=tracked_block, max_block_tasks=3)
        plan = _plan_adaptive(64, 2, runner, per_task_s=0.1)
        assert plan is not None
        size, _workers = plan
        assert size <= 3

    def test_adaptive_serial_fallback_is_correct(
        self, tracked_runner, monkeypatch
    ):
        """When the plan declines the pool, the sweep must finish
        serially with correct, ordered results — and never fork."""
        import concurrent.futures

        import repro.parallel as parallel

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 8)
        # Model an impossibly expensive pool so the plan says serial.
        monkeypatch.setattr(parallel, "_POOL_SPAWN_S", 1e9)

        def _no_pool(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError(
                "ProcessPoolExecutor created despite adaptive serial plan"
            )

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _no_pool
        )
        items = list(range(40))
        assert sweep_map(tracked_square, items, jobs=8) == [
            x * x for x in items
        ]
        assert sum(_BLOCK_CALLS) == len(items)

    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_pooled_block_sweep_bit_identical(
        self, tracked_runner, monkeypatch, transport
    ):
        """Both transports return exactly the serial results; the shm
        leg must leave no /dev/shm segments behind."""
        from repro import sharedmem

        import repro.parallel as parallel

        if transport == "shm" and not sharedmem.shm_supported():
            pytest.skip("shared memory unusable here")
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "_POOL_SPAWN_S", 0.0)
        monkeypatch.setattr(parallel, "_DISPATCH_S", 0.0)
        items = list(range(40))
        got = sweep_map(
            tracked_square, items, jobs=2, transport=transport
        )
        assert got == [x * x for x in items]
        assert sharedmem.active_segments() == []

    def test_rejects_unknown_transport(self, tracked_runner, monkeypatch):
        import repro.parallel as parallel

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "_POOL_SPAWN_S", 0.0)
        monkeypatch.setattr(parallel, "_DISPATCH_S", 0.0)
        with pytest.raises(ValueError, match="transport"):
            sweep_map(
                tracked_square, list(range(40)), jobs=2,
                transport="smoke-signals",
            )



class TestOneExecutor:
    """Differential: a block-runner function and a plain function give
    ``[fn(t) for t in tasks]`` through every path of the one executor —
    in-process and pooled, plain, checkpointed and resumed, and with no
    process pool available."""

    ITEMS = list(range(40))  # above the small-sweep cutoff

    @pytest.fixture(autouse=True)
    def pool_pays(self, monkeypatch):
        import repro.parallel as parallel

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "_POOL_SPAWN_S", 0.0)
        monkeypatch.setattr(parallel, "_DISPATCH_S", 0.0)

    @pytest.mark.parametrize(
        "mode", ["plain", "checkpointed", "resumed", "pool-failure"]
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("blocked", [True, False],
                             ids=["block-runner", "plain-fn"])
    def test_every_path_matches_plain_map(
        self, request, tmp_path, monkeypatch, blocked, jobs, mode
    ):
        import concurrent.futures
        import warnings

        fn = square
        if blocked:
            request.getfixturevalue("tracked_runner")
            fn = tracked_square
        expected = [fn(x) for x in self.ITEMS]
        kwargs = {}
        if mode in ("checkpointed", "resumed"):
            kwargs["checkpoint"] = tmp_path / "ckpt.jsonl"
        if mode == "resumed":
            assert sweep_map(fn, self.ITEMS, jobs=jobs, **kwargs) == expected
            # Keep the header and five records: 35 tasks stay pending,
            # still above the cutoff, so jobs=2 resumes through the pool.
            ckpt = kwargs["checkpoint"]
            lines = ckpt.read_text().splitlines()
            ckpt.write_text("\n".join(lines[:6]) + "\n")
        created = []
        real_pool = concurrent.futures.ProcessPoolExecutor

        def _spy_pool(*args, **kw):
            created.append(kw.get("max_workers"))
            if mode == "pool-failure":
                raise OSError("no process support")
            return real_pool(*args, **kw)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _spy_pool
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = sweep_map(fn, self.ITEMS, jobs=jobs, **kwargs)
        assert got == expected
        assert created == ([2] if jobs == 2 else [])
        if blocked:
            assert _BLOCK_CALLS
        fallbacks = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        want = 1 if (mode == "pool-failure" and jobs == 2) else 0
        assert len(fallbacks) == want, [str(w.message) for w in fallbacks]
        if mode in ("checkpointed", "resumed"):
            records = [
                line for line in
                kwargs["checkpoint"].read_text().splitlines()
                if '"type":"task"' in line
            ]
            assert len(records) == len(self.ITEMS)


class TestResolveJobs:
    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_auto_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == _usable_cpus()
        assert resolve_jobs(0) == _usable_cpus()

    def test_auto_honours_cpu_affinity(self, monkeypatch):
        """A ``taskset``/cpuset limit caps ``jobs=0``, not the host
        CPU count."""
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_jobs(0) == 1

    def test_auto_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(0) == 5

    def test_invalid_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS"):
            assert resolve_jobs(0) == _usable_cpus()

    @pytest.mark.parametrize("raw", ["-2", "0", "", "abc"])
    def test_invalid_env_warns_naming_value(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.warns(RuntimeWarning) as record:
            assert resolve_jobs(None) == _usable_cpus()
        message = str(record[0].message)
        assert "REPRO_JOBS" in message
        assert repr(raw) in message

    def test_valid_env_does_not_warn(self, monkeypatch, recwarn):
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert resolve_jobs(None) == 2
        assert not [
            w for w in recwarn if issubclass(w.category, RuntimeWarning)
        ]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestSplitSeeds:
    def test_deterministic(self):
        assert split_seeds(0, 8) == split_seeds(0, 8)
        assert split_seeds(123, 5) == split_seeds(123, 5)

    def test_distinct_children(self):
        assert len(set(split_seeds(7, 200))) == 200

    def test_prefix_stability(self):
        # Spawning is sequential: the first k children do not depend on n.
        assert split_seeds(9, 10)[:4] == split_seeds(9, 4)

    def test_different_parents_diverge(self):
        assert split_seeds(0, 4) != split_seeds(1, 4)

    def test_zero_children(self):
        assert split_seeds(5, 0) == ()

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            split_seeds(-1, 3)
