"""Unit tests for fault-tolerant sweeps.

Covers :mod:`repro.resilience` — policy validation, task key hashing,
the JSONL checkpoint journal — and what a policy or journal does
inside :func:`repro.parallel.sweep_map`: retry/quarantine semantics on
both the in-process and pool loops, worker-crash recovery, per-task
timeouts, and checkpoint/resume determinism.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path

import pytest

from repro import observability
from repro.parallel import sweep_map
from repro.resilience import (
    ResiliencePolicy,
    SweepCheckpoint,
    TaskFailure,
    resilient_sweep_map,
    task_key,
)


# ---------------------------------------------------------------------
# Module-level task functions (must be picklable for the pool path).


def _square(x):
    return x * x


#: The journal header name of ``_square``.
_SQUARE_FN = f"{_square.__module__}.{_square.__qualname__}"


def _boom(task):
    value, poison = task
    if value == poison:
        raise RuntimeError(f"poison task {value}")
    return value * 10


def _flaky(task):
    """Fail the first *fail_times* attempts, counted via the filesystem.

    The attempt files survive process boundaries (pool workers) and
    sweep restarts, so tests can both inject transient failures and
    count how often each task actually executed.
    """
    value, fail_times, attempts_dir = task
    p = Path(attempts_dir) / f"{value}.attempts"
    n = int(p.read_text()) if p.exists() else 0
    p.write_text(str(n + 1))
    if n < fail_times:
        raise RuntimeError(f"transient failure #{n} of task {value}")
    return value * 10


def _sleepy(task):
    value, sleep_s = task
    time.sleep(sleep_s)
    return value


def _attempt_counts(attempts_dir) -> dict[int, int]:
    return {
        int(p.stem): int(p.read_text())
        for p in Path(attempts_dir).glob("*.attempts")
    }


@pytest.fixture
def obs_state():
    """Enable observability for one test; restore the prior state."""
    was_enabled = observability.enabled()
    observability.enable()
    observability.reset()
    yield observability.OBS
    observability.OBS.enabled = was_enabled
    observability.reset()


FAST = dict(backoff_base=0.0, backoff_max=0.0)


# ---------------------------------------------------------------------


class TestResiliencePolicy:
    def test_defaults(self):
        p = ResiliencePolicy()
        assert p.max_retries == 2
        assert p.task_timeout is None
        assert not p.quarantine

    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(task_timeout=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(task_timeout=-1.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(backoff_base=-0.1)
        with pytest.raises(ValueError):
            ResiliencePolicy(max_pool_rebuilds=-1)

    def test_backoff_doubles_and_caps(self):
        p = ResiliencePolicy(backoff_base=0.1, backoff_max=0.35)
        assert p.backoff(1) == pytest.approx(0.1)
        assert p.backoff(2) == pytest.approx(0.2)
        assert p.backoff(3) == pytest.approx(0.35)  # capped
        assert p.backoff(10) == pytest.approx(0.35)


class TestTaskKey:
    def test_deterministic(self):
        t = ((4, 4), 3, 7, 1003, 2.0, "parity")
        assert task_key(t) == task_key(((4, 4), 3, 7, 1003, 2.0, "parity"))

    def test_distinct_tasks_distinct_keys(self):
        keys = {task_key((i, "x")) for i in range(100)}
        assert len(keys) == 100

    def test_hex_sha256(self):
        k = task_key((1, 2))
        assert len(k) == 64
        int(k, 16)  # hex-parsable


class TestSweepCheckpoint:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        ck = SweepCheckpoint(path)
        ck.open_for_append("mod.fn", 3)
        ck.record("k0", 0, {"bw": 1.5})
        ck.record("k2", 2, (7, "x"))
        ck.close()
        loaded = SweepCheckpoint(path).load("mod.fn")
        assert loaded == {"k0": {"bw": 1.5}, "k2": (7, "x")}

    def test_missing_file_loads_empty(self, tmp_path):
        assert SweepCheckpoint(tmp_path / "nope.jsonl").load("f") == {}

    def test_fn_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        ck = SweepCheckpoint(path)
        ck.open_for_append("mod.other_fn", 1)
        ck.record("k0", 0, 42)
        ck.close()
        with pytest.raises(ValueError, match="refusing to resume"):
            SweepCheckpoint(path).load("mod.fn")

    def test_torn_trailing_line_ignored(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        ck = SweepCheckpoint(path)
        ck.open_for_append("mod.fn", 2)
        ck.record("k0", 0, 11)
        ck.close()
        with path.open("a") as fh:
            fh.write('{"type": "task", "key": "k1", "resu')  # torn write
        assert SweepCheckpoint(path).load("mod.fn") == {"k0": 11}

    def test_torn_last_record_does_not_swallow_the_next(self, tmp_path):
        """A 4-task journal whose last record was torn, resumed as a
        6-task sweep: the first new record must not be glued onto the
        torn fragment (which lost it, loading back 5 of 6)."""
        ckpt = tmp_path / "ckpt.jsonl"
        resilient_sweep_map(_square, range(4), checkpoint=ckpt)
        text = ckpt.read_text()
        ckpt.write_text(text[: text.rindex("\n") - 10])  # torn, no newline
        assert resilient_sweep_map(
            _square, range(6), checkpoint=ckpt
        ) == [x * x for x in range(6)]
        loaded = SweepCheckpoint(ckpt).load(_SQUARE_FN)
        assert sorted(loaded.values()) == [x * x for x in range(6)]

    def test_torn_header_without_newline_keeps_resumed_records(
        self, tmp_path
    ):
        """A header torn mid-write (no newline): the resumed run's fresh
        header must start on its own line, else that run's records are
        all headerless and recomputed on the next resume."""
        ckpt = tmp_path / "ckpt.jsonl"
        ckpt.write_text('{"type": "header", "vers')
        assert resilient_sweep_map(
            _square, [1, 2, 3], checkpoint=ckpt
        ) == [1, 4, 9]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            loaded = SweepCheckpoint(ckpt).load(_SQUARE_FN)
        assert sorted(loaded.values()) == [1, 4, 9]

    def test_corrupt_result_payload_skipped(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        ck = SweepCheckpoint(path)
        ck.open_for_append("mod.fn", 2)
        ck.record("k0", 0, 11)
        ck.close()
        with path.open("a") as fh:
            fh.write(json.dumps({
                "type": "task", "key": "k1", "index": 1,
                "result": "bm90LXBpY2tsZQ==",  # not a pickle
            }) + "\n")
        assert SweepCheckpoint(path).load("mod.fn") == {"k0": 11}

    def test_reopen_does_not_duplicate_header(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        for _ in range(2):
            ck = SweepCheckpoint(path)
            ck.open_for_append("mod.fn", 2)
            ck.close()
        headers = [
            line for line in path.read_text().splitlines()
            if json.loads(line)["type"] == "header"
        ]
        assert len(headers) == 1

    def _torn_header_file(self, tmp_path):
        """A journal whose header was mangled mid-write but whose task
        records are intact (the killed-during-first-write scenario)."""
        path = tmp_path / "ckpt.jsonl"
        ck = SweepCheckpoint(path)
        ck.open_for_append("mod.fn", 2)
        ck.record("k0", 0, 11)
        ck.record("k1", 1, 22)
        ck.close()
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "header"
        lines[0] = lines[0][: len(lines[0]) // 2]  # tear the header
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_torn_header_skips_records_with_warning(self, tmp_path):
        """Regression: a torn header must not degrade into 'no fn
        validation' — records that cannot be attributed to a task
        function are recomputed, not silently resumed."""
        path = self._torn_header_file(tmp_path)
        with pytest.warns(RuntimeWarning, match="before any valid header"):
            loaded = SweepCheckpoint(path).load("mod.fn")
        assert loaded == {}

    def test_torn_header_never_resumes_other_functions(self, tmp_path):
        """The bug this pins down: with the header gone, records from
        *any* function's journal would previously load under any
        fn_name whose task keys collided."""
        path = self._torn_header_file(tmp_path)
        with pytest.warns(RuntimeWarning, match="recomputed"):
            loaded = SweepCheckpoint(path).load("other_mod.other_fn")
        assert loaded == {}

    def test_torn_header_self_heals_on_append(self, tmp_path):
        """open_for_append writes a fresh header over a torn one: the
        old headerless records stay dead, new records resume."""
        path = self._torn_header_file(tmp_path)
        ck = SweepCheckpoint(path)
        ck.open_for_append("mod.fn", 2)
        ck.record("k9", 0, 99)
        ck.close()
        with pytest.warns(RuntimeWarning, match="before any valid header"):
            loaded = SweepCheckpoint(path).load("mod.fn")
        assert loaded == {"k9": 99}
        # And the healed header validates the function name again.
        with pytest.raises(ValueError, match="refusing to resume"):
            SweepCheckpoint(path).load("other_mod.other_fn")

    def test_records_after_valid_header_still_load(self, tmp_path):
        """The gate keys on a *valid* header, wherever it sits — blank
        and torn lines before it do not poison the journal."""
        path = tmp_path / "ckpt.jsonl"
        ck = SweepCheckpoint(path)
        ck.open_for_append("mod.fn", 2)
        ck.record("k0", 0, 11)
        ck.close()
        content = path.read_text()
        path.write_text('\n{"type": "ta\n' + content)
        assert SweepCheckpoint(path).load("mod.fn") == {"k0": 11}


class TestSerialResilience:
    def test_plain_results_match_sweep_map(self):
        tasks = list(range(6))
        assert resilient_sweep_map(_square, tasks) == sweep_map(
            _square, tasks
        )

    def test_retry_recovers_transient_failures(self, tmp_path):
        tasks = [(i, 2 if i == 1 else 0, str(tmp_path)) for i in range(3)]
        out = resilient_sweep_map(
            _flaky, tasks,
            policy=ResiliencePolicy(max_retries=2, **FAST),
        )
        assert out == [0, 10, 20]
        # Task 1 ran 3 times (2 transient failures + 1 success).
        assert _attempt_counts(tmp_path) == {0: 1, 1: 3, 2: 1}

    def test_exhausted_retries_raise_by_default(self, tmp_path):
        tasks = [(0, 99, str(tmp_path))]  # always fails
        with pytest.raises(RuntimeError, match="transient failure"):
            resilient_sweep_map(
                _flaky, tasks,
                policy=ResiliencePolicy(max_retries=1, **FAST),
            )
        assert _attempt_counts(tmp_path) == {0: 2}  # 1 + 1 retry

    def test_quarantine_yields_task_failure_in_place(self, tmp_path):
        tasks = [(i, 99 if i == 1 else 0, str(tmp_path)) for i in range(3)]
        out = resilient_sweep_map(
            _flaky, tasks,
            policy=ResiliencePolicy(
                max_retries=1, quarantine=True, **FAST
            ),
        )
        assert out[0] == 0 and out[2] == 20
        failure = out[1]
        assert isinstance(failure, TaskFailure)
        assert failure.index == 1
        assert failure.error_type == "RuntimeError"
        assert failure.attempts == 2

    def test_zero_retries_fail_immediately(self, tmp_path):
        tasks = [(0, 99, str(tmp_path))]
        with pytest.raises(RuntimeError):
            resilient_sweep_map(
                _flaky, tasks,
                policy=ResiliencePolicy(max_retries=0, **FAST),
            )
        assert _attempt_counts(tmp_path) == {0: 1}

    def test_counters_surface_retries_and_quarantine(
        self, tmp_path, obs_state
    ):
        tasks = [(0, 1, str(tmp_path)), (1, 99, str(tmp_path))]
        resilient_sweep_map(
            _flaky, tasks,
            policy=ResiliencePolicy(
                max_retries=1, quarantine=True, **FAST
            ),
        )
        assert obs_state.counters["resilience.retries"] >= 2
        assert obs_state.counters["resilience.quarantined"] == 1
        assert obs_state.counters["resilience.sweeps"] == 1
        assert obs_state.counters["resilience.tasks"] == 2


class TestCheckpointResume:
    def test_full_resume_skips_all_tasks(self, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        tasks = [(i, 0, str(tmp_path)) for i in range(4)]
        first = resilient_sweep_map(_flaky, tasks, checkpoint=ckpt)
        second = resilient_sweep_map(_flaky, tasks, checkpoint=ckpt)
        assert first == second == [0, 10, 20, 30]
        # Nothing re-executed on resume.
        assert _attempt_counts(tmp_path) == {i: 1 for i in range(4)}

    def test_partial_resume_recomputes_only_missing(self, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        tasks = [(i, 0, str(tmp_path)) for i in range(5)]
        full = resilient_sweep_map(_flaky, tasks, checkpoint=ckpt)
        # Simulate a mid-sweep kill: keep header + first 2 task records.
        lines = ckpt.read_text().splitlines()
        ckpt.write_text("\n".join(lines[:3]) + "\n")
        resumed = resilient_sweep_map(_flaky, tasks, checkpoint=ckpt)
        assert resumed == full
        counts = _attempt_counts(tmp_path)
        assert sorted(counts.values()) == [1, 1, 2, 2, 2]

    def test_resumed_counter(self, tmp_path, obs_state):
        ckpt = tmp_path / "ckpt.jsonl"
        tasks = [(i, 0, str(tmp_path)) for i in range(3)]
        resilient_sweep_map(_flaky, tasks, checkpoint=ckpt)
        observability.reset()
        resilient_sweep_map(_flaky, tasks, checkpoint=ckpt)
        assert obs_state.counters["resilience.resumed_tasks"] == 3

    def test_checkpoint_from_other_function_rejected(self, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        resilient_sweep_map(_square, [1, 2], checkpoint=ckpt)
        with pytest.raises(ValueError, match="refusing to resume"):
            resilient_sweep_map(
                _flaky, [(0, 0, str(tmp_path))], checkpoint=ckpt
            )

    def test_checkpoint_from_other_grid_misses_cleanly(self, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        resilient_sweep_map(_square, [1, 2], checkpoint=ckpt)
        # Same function, disjoint task grid: every key misses.
        out = resilient_sweep_map(_square, [7, 8, 9], checkpoint=ckpt)
        assert out == [49, 64, 81]

    def test_failures_never_checkpointed(self, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        tasks = [(i, 99 if i == 1 else 0, str(tmp_path)) for i in range(3)]
        resilient_sweep_map(
            _flaky, tasks, checkpoint=ckpt,
            policy=ResiliencePolicy(
                max_retries=0, quarantine=True, **FAST
            ),
        )
        records = [
            json.loads(line) for line in ckpt.read_text().splitlines()
        ]
        task_records = [r for r in records if r["type"] == "task"]
        assert len(task_records) == 2  # the poison slot is absent
        assert {r["index"] for r in task_records} == {0, 2}
        # The resumed run retries the poison task (and it fails again,
        # because fail_times=99 ignores the accumulated attempts).
        out = resilient_sweep_map(
            _flaky, tasks, checkpoint=ckpt,
            policy=ResiliencePolicy(
                max_retries=0, quarantine=True, **FAST
            ),
        )
        assert isinstance(out[1], TaskFailure)


class TestPoolResilience:
    @pytest.fixture(autouse=True)
    def force_pool(self, monkeypatch):
        """Pretend to have CPUs and a free pool: the pool path must run
        even on a single-core runner, where the cap would silently
        serialize (and the serial kill hook would take pytest down with
        it), and for these few cheap tasks, which the small-sweep
        cutoff and the probe's cost model would keep in-process."""
        import repro.parallel as parallel

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(parallel, "_SMALL_SWEEP_TASKS", 0)
        monkeypatch.setattr(parallel, "_POOL_SPAWN_S", 0.0)
        monkeypatch.setattr(parallel, "_DISPATCH_S", 0.0)

    def test_parallel_matches_serial(self):
        tasks = list(range(8))
        serial = resilient_sweep_map(_square, tasks, jobs=1)
        parallel = resilient_sweep_map(_square, tasks, jobs=2)
        assert parallel == serial

    def test_parallel_exception_propagates(self):
        with pytest.raises(RuntimeError, match="poison task 2"):
            resilient_sweep_map(
                _boom, [(i, 2) for i in range(4)], jobs=2,
                policy=ResiliencePolicy(max_retries=0, **FAST),
            )

    def test_parallel_retry_recovers(self, tmp_path):
        tasks = [(i, 1 if i == 2 else 0, str(tmp_path)) for i in range(4)]
        out = resilient_sweep_map(
            _flaky, tasks, jobs=2,
            policy=ResiliencePolicy(max_retries=2, **FAST),
        )
        assert out == [0, 10, 20, 30]
        assert _attempt_counts(tmp_path)[2] == 2

    def test_parallel_quarantine(self, tmp_path):
        tasks = [(i, 99 if i == 0 else 0, str(tmp_path)) for i in range(4)]
        out = resilient_sweep_map(
            _flaky, tasks, jobs=2,
            policy=ResiliencePolicy(
                max_retries=1, quarantine=True, **FAST
            ),
        )
        assert isinstance(out[0], TaskFailure)
        assert out[1:] == [10, 20, 30]

    def test_worker_crash_rebuilds_pool(
        self, tmp_path, monkeypatch, obs_state
    ):
        """A worker hard-killed mid-task triggers rebuild + resubmit."""
        marker = tmp_path / "kill.marker"
        monkeypatch.setenv("REPRO_RESILIENCE_TEST_KILL", "2")
        monkeypatch.setenv(
            "REPRO_RESILIENCE_TEST_KILL_MARKER", str(marker)
        )
        tasks = list(range(6))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out = resilient_sweep_map(_square, tasks, jobs=2)
        assert out == [i * i for i in tasks]
        assert marker.exists()
        assert obs_state.counters["resilience.pool_rebuilds"] >= 1

    def test_timeout_quarantines_stuck_task(self, obs_state):
        tasks = [(0, 0.0), (1, 3.0)]  # task 1 sleeps past the budget
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out = resilient_sweep_map(
                _sleepy, tasks, jobs=2,
                policy=ResiliencePolicy(
                    max_retries=0, task_timeout=0.3,
                    quarantine=True, **FAST
                ),
            )
        assert out[0] == 0
        failure = out[1]
        assert isinstance(failure, TaskFailure)
        assert failure.error_type == "TimeoutError"
        assert obs_state.counters["resilience.timeouts"] >= 1

    def test_checkpoint_works_under_pool(self, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        tasks = [(i, 0, str(tmp_path)) for i in range(6)]
        first = resilient_sweep_map(
            _flaky, tasks, jobs=2, checkpoint=ckpt
        )
        second = resilient_sweep_map(
            _flaky, tasks, jobs=2, checkpoint=ckpt
        )
        assert first == second
        assert _attempt_counts(tmp_path) == {i: 1 for i in range(6)}


class TestSweepMapIntegration:
    def test_sweep_map_policy_routes_to_resilience(self, tmp_path):
        tasks = [(i, 1 if i == 0 else 0, str(tmp_path)) for i in range(3)]
        out = sweep_map(
            _flaky, tasks,
            policy=ResiliencePolicy(max_retries=1, **FAST),
        )
        assert out == [0, 10, 20]

    def test_sweep_map_checkpoint_routes_to_resilience(self, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        assert sweep_map(_square, [1, 2, 3], checkpoint=ckpt) == [1, 4, 9]
        assert ckpt.exists()
        assert sweep_map(_square, [1, 2, 3], checkpoint=ckpt) == [1, 4, 9]

    def test_sweep_map_plain_path_unchanged(self):
        # No policy/checkpoint: the fast path, no checkpoint side files.
        assert sweep_map(_square, [1, 2, 3]) == [1, 4, 9]


# ---------------------------------------------------------------------
# Array results on the resilient pool path.


def _big_result(x):
    import numpy as np

    rng = np.random.default_rng(x)
    return rng.random(9000)


def _big_result_block(xs):
    return [_big_result(x) for x in xs]


class TestPooledArrayResults:
    """A pooled sweep's numpy results journal as contents, so a resume
    reproduces them bit-identically."""

    @pytest.fixture
    def big_runner(self):
        from repro.parallel import (
            register_block_runner,
            unregister_block_runner,
        )

        register_block_runner(_big_result, _big_result_block)
        yield
        unregister_block_runner(_big_result)

    def test_checkpoint_resumes_pooled_array_results(
        self, tmp_path, big_runner, monkeypatch
    ):
        import numpy as np

        import repro.parallel as parallel

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "_POOL_SPAWN_S", 0.0)
        monkeypatch.setattr(parallel, "_DISPATCH_S", 0.0)
        ckpt = tmp_path / "ckpt.jsonl"
        tasks = list(range(40))  # above the small-sweep serial cutoff
        out = resilient_sweep_map(
            _big_result, tasks, jobs=2, checkpoint=ckpt
        )
        resumed = resilient_sweep_map(
            _big_result, tasks, jobs=1, checkpoint=ckpt
        )
        for a, b in zip(out, resumed):
            assert np.array_equal(a, b)
