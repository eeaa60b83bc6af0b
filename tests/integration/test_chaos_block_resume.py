"""Chaos integration: a *block-dispatched* sweep killed mid-run resumes.

The stacked rewrite executes fault sweeps as scenario blocks, but the
checkpoint contract is unchanged: completed work is journaled at
**scenario granularity**, never block granularity.  A sweep killed
between blocks must resume from exactly the individually-completed
scenarios — even if the resumed run plans a *different* blocking — and
produce bit-identical output.

Two legs:

* a subprocess driver killed by ``REPRO_RESILIENCE_TEST_KILL`` while the
  serial-blocked path is between blocks (``os._exit``, like a SIGKILL),
  resumed against its ``--checkpoint`` journal;
* a pooled ``sweep_map`` whose worker is killed mid-block, forcing the
  ``BrokenProcessPool`` → pool-rebuild → re-planned-blocks recovery
  path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import sharedmem
from repro.resilience import TEST_KILL_EXIT_CODE


@pytest.fixture(autouse=True)
def no_shm_leaks():
    """Chaos or not, /dev/shm must end every test as it began.

    Guards the shared-memory transport's lifecycle discipline across
    the three fates a dispatch generation can meet: normal completion,
    a worker killed mid-block, and a BrokenProcessPool rebuild."""
    if not sharedmem.shm_supported():
        yield
        return
    before = sharedmem.active_segments()
    yield
    sharedmem.detach_segments()
    assert sharedmem.active_segments() == before

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: Scenario index the kill hook fires at.  With ``max_block_tasks=2``
#: the 7-task sweep plans blocks [0,1], [2,3], [4,5], [6]; index 3 dies
#: at the *start* of the second block, after the first block's two
#: scenarios were journaled individually.
KILL_AT = 3

#: The driver re-registers the fluid-sweep block runner with tiny
#: blocks so a single-CPU run still executes multiple blocks, then runs
#: the same ``fluid_fault_sweep`` the CLI ``faults --fluid-sweep``
#: command calls (1 healthy + 2*3 fault scenarios = 7 tasks).
DRIVER = textwrap.dedent(
    """
    import sys

    from repro.allocation.geometry import PartitionGeometry
    from repro.experiments.faultstudy import (
        _fluid_scenario,
        _fluid_scenario_block,
        fluid_fault_sweep,
    )
    from repro.parallel import register_block_runner

    register_block_runner(
        _fluid_scenario, _fluid_scenario_block, max_block_tasks=2
    )
    ckpt = None if sys.argv[1] == "-" else sys.argv[1]
    rows = fluid_fault_sweep(
        PartitionGeometry((2, 2, 1, 1)),
        max_failures=2,
        trials=3,
        seed=5,
        jobs=1,
        checkpoint=ckpt,
    )
    for row in rows:
        print(row)
    """
).strip()


def _run_driver(script, args, cwd, extra_env=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_SRC)
    env.pop("REPRO_RESILIENCE_TEST_KILL", None)
    env.pop("REPRO_RESILIENCE_TEST_KILL_MARKER", None)
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=280,
    )


@pytest.fixture(scope="module")
def block_triple(tmp_path_factory):
    """Run the clean / killed / resumed triple once for all asserts."""
    tmp = tmp_path_factory.mktemp("block_chaos")
    script = tmp / "driver.py"
    script.write_text(DRIVER + "\n")

    clean = _run_driver(script, ["-"], tmp)
    assert clean.returncode == 0, clean.stderr

    killed = _run_driver(
        script,
        ["ckpt.jsonl"],
        tmp,
        extra_env={
            "REPRO_RESILIENCE_TEST_KILL": str(KILL_AT),
            "REPRO_RESILIENCE_TEST_KILL_MARKER": str(tmp / "kill.marker"),
        },
    )
    ckpt_after_kill = (tmp / "ckpt.jsonl").read_text()
    resumed = _run_driver(script, ["ckpt.jsonl"], tmp)
    return tmp, clean, killed, ckpt_after_kill, resumed


class TestBlockKillAndResume:
    def test_kill_fires_between_blocks(self, block_triple):
        tmp, _, killed, _, _ = block_triple
        assert killed.returncode == TEST_KILL_EXIT_CODE
        assert (tmp / "kill.marker").read_text() == str(KILL_AT)

    def test_checkpoint_is_scenario_granular(self, block_triple):
        """The journal after the kill holds the first block's scenarios
        as *individual* task records — not one opaque block record, and
        nothing from the block the kill interrupted."""
        _, _, _, ckpt_after_kill, _ = block_triple
        records = [
            json.loads(line)
            for line in ckpt_after_kill.splitlines()
        ]
        assert records[0]["type"] == "header"
        task_records = [r for r in records if r["type"] == "task"]
        assert [r["index"] for r in task_records] == [0, 1]
        # Scenario granularity: one record per scenario, each with its
        # own content-hash key.
        keys = {r["key"] for r in task_records}
        assert len(keys) == 2

    def test_resumed_output_bit_identical_to_clean_run(
        self, block_triple
    ):
        _, clean, _, _, resumed = block_triple
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == clean.stdout

    def test_clean_run_matches_scalar_oracle(self, block_triple):
        """The block-dispatched rows equal the per-scenario oracle's
        (``repr`` round-trips floats, so the text compare is exact)."""
        from repro.kernels.costmodel import LINK_BANDWIDTH_GB_PER_S
        from tests.oracles.scalar_sweeps import fault_scenario_row

        _, clean, _, _, _ = block_triple
        tasks = [
            ((2, 2, 1, 1), k, t, 5 + 1000 * k + t,
             LINK_BANDWIDTH_GB_PER_S, "parity")
            for k in range(3)
            for t in range(1 if k == 0 else 3)
        ]
        assert clean.stdout.splitlines() == [
            str(fault_scenario_row(task)) for task in tasks
        ]

    def test_resumed_run_completed_the_journal(self, block_triple):
        tmp, _, _, _, resumed = block_triple
        assert resumed.returncode == 0
        records = [
            json.loads(line)
            for line in (tmp / "ckpt.jsonl").read_text().splitlines()
            if json.loads(line)["type"] == "task"
        ]
        # 0 and 1 from the killed run; the rest appended by the resume,
        # re-planned into fresh blocks.
        assert sorted(r["index"] for r in records) == list(range(7))
        assert [r["index"] for r in records][:2] == [0, 1]


# ----------------------------------------------------------------------
# Pool path: a worker killed mid-block breaks the pool; the sweep must
# rebuild it and re-plan blocks over the remaining scenarios.


def _square(x: int) -> int:
    return x * x


def _square_block(xs) -> list[int]:
    return [_square(x) for x in xs]


@pytest.fixture
def pooled_blocks(monkeypatch):
    """Register two-task blocks for ``_square``/``_array_sum`` and make
    the pool pay: two CPUs and zero modeled pool overhead, so a 10-task
    sweep runs its first block in-process and the other four blocks in
    a two-worker pool."""
    import repro.parallel as parallel

    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "_SMALL_SWEEP_TASKS", 0)
    monkeypatch.setattr(parallel, "_POOL_SPAWN_S", 0.0)
    monkeypatch.setattr(parallel, "_DISPATCH_S", 0.0)
    for fn, block_fn in ((_square, _square_block),
                         (_array_sum, _array_sum_block)):
        parallel.register_block_runner(fn, block_fn, max_block_tasks=2)
    yield
    for fn in (_square, _array_sum):
        parallel.unregister_block_runner(fn)


def _arm_kill(monkeypatch, tmp_path, index=4):
    """Kill the worker that starts task *index*, once."""
    marker = tmp_path / "kill.marker"
    monkeypatch.setenv("REPRO_RESILIENCE_TEST_KILL", str(index))
    monkeypatch.setenv("REPRO_RESILIENCE_TEST_KILL_MARKER", str(marker))
    return marker


@pytest.fixture
def traced():
    from repro import observability

    was_enabled = observability.enabled()
    observability.enable()
    observability.reset()
    yield observability.OBS
    observability.OBS.enabled = was_enabled
    observability.reset()


class TestBlockPoolWorkerDeath:
    def test_broken_pool_rebuilds_and_replans(
        self, tmp_path, monkeypatch, pooled_blocks, traced
    ):
        from repro.parallel import sweep_map

        tasks = list(range(10))
        marker = _arm_kill(monkeypatch, tmp_path)
        with pytest.warns(RuntimeWarning, match="rebuilding worker pool"):
            out = sweep_map(_square, tasks, jobs=2)
        assert out == [x * x for x in tasks]
        assert traced.counters["resilience.pool_rebuilds"] >= 1
        assert marker.exists()


# ----------------------------------------------------------------------
# Shared-memory transport under chaos: segments must be reclaimed on
# every exit path — normal completion, a worker killed mid-block (the
# BrokenProcessPool rebuild), and the final degraded-serial fallback.
# The autouse ``no_shm_leaks`` fixture asserts the invariant for every
# test in this module; the tests below drive the transport through the
# specific fates.


def _array_sum(task):
    _i, arr = task
    return float(arr.sum())


def _array_sum_block(tasks):
    return [_array_sum(t) for t in tasks]


def _array_tasks():
    import numpy as np

    # Each task carries a 160 KB plane, well past MIN_SHARED_BYTES, so
    # every dispatched chunk genuinely creates shared segments.
    tasks = [(i, np.full(20_000, float(i))) for i in range(10)]
    expected = [float(arr.sum()) for _i, arr in tasks]
    return tasks, expected


@pytest.mark.skipif(
    not sharedmem.shm_supported(),
    reason="multiprocessing.shared_memory unusable on this platform",
)
class TestShmChaosCleanup:
    def test_normal_completion_leaves_no_segments(self, pooled_blocks):
        from repro.parallel import sweep_map

        tasks, expected = _array_tasks()
        assert sweep_map(
            _array_sum, tasks, jobs=2, transport="shm"
        ) == expected
        assert sharedmem.active_segments() == []

    def test_worker_kill_midblock_leaves_no_segments(
        self, tmp_path, monkeypatch, pooled_blocks, traced
    ):
        """A killed worker breaks the pool mid-generation: the rebuild
        must unlink that generation's segments before re-planning."""
        from repro.parallel import sweep_map

        tasks, expected = _array_tasks()
        marker = _arm_kill(monkeypatch, tmp_path)
        with pytest.warns(RuntimeWarning, match="rebuilding worker pool"):
            out = sweep_map(_array_sum, tasks, jobs=2, transport="shm")
        assert out == expected
        assert traced.counters["resilience.pool_rebuilds"] >= 1
        assert marker.exists()
        assert sharedmem.active_segments() == []

    def test_degraded_serial_fallback_leaves_no_segments(
        self, tmp_path, monkeypatch, pooled_blocks
    ):
        """Exhausting pool rebuilds degrades to serial blocks; the dead
        generations' segments must all be gone by then."""
        from repro.parallel import sweep_map
        from repro.resilience import ResiliencePolicy

        tasks, expected = _array_tasks()
        _arm_kill(monkeypatch, tmp_path)
        with pytest.warns(RuntimeWarning, match="degrading to"):
            out = sweep_map(
                _array_sum, tasks, jobs=2, transport="shm",
                policy=ResiliencePolicy(max_pool_rebuilds=0),
            )
        assert out == expected
        assert sharedmem.active_segments() == []
