"""Sweep resilience: the retry policy and the checkpoint journal.

:func:`repro.parallel.sweep_map` is the one sweep executor.  This
module holds the two things a caller can hand it to survive partial
failure, and nothing that executes tasks:

* :class:`ResiliencePolicy` (``sweep_map(..., policy=...)``) — bounded
  retries with exponential backoff (a retry re-runs the task's
  *original* arguments, so per-task seeds make it deterministic),
  per-task wall-clock timeouts on the pool, the pool-rebuild budget
  after worker deaths, and poison-task quarantine: a task that
  exhausts its retries yields a :class:`TaskFailure` at its slot
  instead of raising.  Without a policy a sweep has no retries, no
  timeout and no quarantine: the first task exception propagates.
* :class:`SweepCheckpoint` (``sweep_map(..., checkpoint=...)``) — an
  append-only JSONL journal of completed ``(task_key, result)``
  records.  A restarted sweep skips every task whose key is on disk
  and recomputes the rest, bit-identical to an uninterrupted run.
  Tasks are matched by :func:`task_key`, a SHA-256 hash of the pickled
  task, so a journal from a *different* grid simply misses.

:func:`resilient_sweep_map` is a forward to ``sweep_map`` kept for
existing callers.  The ``REPRO_RESILIENCE_TEST_KILL`` hook lets the
chaos tests kill a worker (or the driver) at a chosen task.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import warnings
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any, TypeVar

from . import env
from ._validation import check_nonnegative_int

__all__ = [
    "ResiliencePolicy",
    "TaskFailure",
    "SweepCheckpoint",
    "resilient_sweep_map",
    "task_key",
]

_T = TypeVar("_T")

#: Test hook: set to a task index to make the wrapped task call
#: ``os._exit`` *before* executing — a deterministic stand-in for a
#: worker SIGKILL.  In the pool path this kills one worker (exercising
#: ``BrokenProcessPool`` recovery); in the serial path it kills the
#: driver process itself (exercising checkpoint/resume).  With
#: ``REPRO_RESILIENCE_TEST_KILL_MARKER`` set to a file path the kill
#: fires only while the marker file does not exist (it is created just
#: before exiting), so a rebuilt pool or resumed run proceeds normally.
_KILL_ENV = "REPRO_RESILIENCE_TEST_KILL"
_KILL_MARKER_ENV = "REPRO_RESILIENCE_TEST_KILL_MARKER"

#: Exit code used by the kill hook, distinctive in CI logs.
TEST_KILL_EXIT_CODE = 43


@dataclass(frozen=True)
class ResiliencePolicy:
    """Failure handling for :func:`repro.parallel.sweep_map`.

    Attributes
    ----------
    max_retries:
        Additional attempts after the first failure of a task.  ``0``
        disables retries (a failing task immediately quarantines or
        raises).
    task_timeout:
        Per-task wall-clock budget in seconds, measured from when the
        parent starts waiting on that task's result.  ``None`` disables
        timeouts.  A timeout counts as a failed attempt *and* forces a
        pool rebuild — a stuck worker cannot be interrupted any other
        way.
    backoff_base:
        First retry delay in seconds; attempt *k* sleeps
        ``backoff_base * 2**(k-1)``, capped at ``backoff_max``.
    backoff_max:
        Upper bound on any single backoff sleep.
    quarantine:
        When true, a task that exhausts its retries yields a
        :class:`TaskFailure` at its result slot instead of raising.
        When false (the default), the sweep raises the task's last
        exception — matching plain ``sweep_map`` semantics.
    max_pool_rebuilds:
        How many times a broken/stuck pool is rebuilt before the sweep
        degrades to serial execution for the remaining tasks.  A sweep
        without a policy rebuilds up to the default number of times.

    A policy also turns a failed block into per-task execution: the
    block's tasks re-run one by one through the task function, with
    the retries above, so one poison scenario degrades its block and
    never the sweep.
    """

    max_retries: int = 2
    task_timeout: float | None = None
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    quarantine: bool = False
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        check_nonnegative_int(self.max_retries, "max_retries")
        check_nonnegative_int(self.max_pool_rebuilds, "max_pool_rebuilds")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be positive or None, got "
                f"{self.task_timeout!r}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")

    def backoff(self, attempt: int) -> float:
        """Sleep before retry *attempt* (1-based)."""
        return min(self.backoff_max, self.backoff_base * 2 ** (attempt - 1))


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of a quarantined (poison) task.

    Appears at the failed task's slot in the result list, so downstream
    code can count/report failures without losing positional alignment
    with the task grid.  ``error_type`` is the exception class name
    (``"TimeoutError"`` for per-task timeouts), ``attempts`` the total
    number of executions tried.
    """

    index: int
    task: str
    error_type: str
    error: str
    attempts: int

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"TaskFailure(#{self.index} {self.task}: "
            f"{self.error_type}: {self.error} after {self.attempts} "
            f"attempt(s))"
        )


def task_key(task: Any) -> str:
    """Stable content hash of a task tuple (checkpoint record key).

    SHA-256 over the pickle of the task.  Pickle output is a pure
    function of the task's structure for the plain tuples/dataclasses
    the experiment drivers use, so the same grid reproduces the same
    keys across processes and sessions.
    """
    return hashlib.sha256(
        pickle.dumps(task, protocol=4)
    ).hexdigest()


def _fn_name(fn: Callable[..., Any]) -> str:
    mod = getattr(fn, "__module__", "?")
    qual = getattr(fn, "__qualname__", repr(fn))
    return f"{mod}.{qual}"


class SweepCheckpoint:
    """Append-only JSONL journal of completed sweep tasks.

    Line 1 is a header ``{"type": "header", "version": 1, "fn": ...,
    "tasks": N}``; every subsequent line is ``{"type": "task", "key":
    sha256-hex, "index": i, "result": base64-pickle}``.  Records are
    flushed as they are written, so a killed run loses at most the line
    being written; a truncated or corrupt trailing line is ignored on
    load.  Failures are never checkpointed — a resumed run retries
    them.

    Resume is *best-effort but always correct*: tasks are matched by
    content hash, so a checkpoint written for a different grid (or a
    stale file) simply misses and the task is recomputed.  A checkpoint
    written by a *different task function* is rejected outright — same
    grid keys with a different ``fn`` would silently return the wrong
    results.
    """

    VERSION = 1

    def __init__(self, path: str | os.PathLike[str]):
        self.path = Path(path)
        self._handle: Any = None
        self._header_written = False

    # -- loading ----------------------------------------------------

    def load(self, fn_name: str) -> dict[str, Any]:
        """Completed ``{key: result}`` records, validating *fn_name*.

        Task records are accepted only **after** a valid header naming
        *fn_name* has been seen.  A torn or corrupt header must not
        degrade into "no validation": without this gate, a journal
        whose first line was mangled mid-write would silently resume
        records written by a *different task function* whenever the
        task keys happened to collide.  Headerless records are skipped
        (recompute is always correct) with a warning.
        """
        completed: dict[str, Any] = {}
        if not self.path.exists():
            return completed
        header_ok = False
        skipped_headerless = 0
        with self.path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    # Torn write from a killed run: ignore the line.
                    continue
                if rec.get("type") == "header":
                    got = rec.get("fn")
                    if got != fn_name:
                        raise ValueError(
                            f"checkpoint {self.path} was written for "
                            f"task function {got!r}, not {fn_name!r}; "
                            f"refusing to resume (delete the file or "
                            f"pass a different --checkpoint path)"
                        )
                    header_ok = True
                    continue
                if rec.get("type") != "task":
                    continue
                if not header_ok:
                    skipped_headerless += 1
                    continue
                try:
                    result = pickle.loads(
                        base64.b64decode(rec["result"])
                    )
                except Exception:
                    # Corrupt record: recompute that task.
                    continue
                completed[rec["key"]] = result
        if skipped_headerless:
            warnings.warn(
                f"checkpoint {self.path} has {skipped_headerless} task "
                f"record(s) before any valid header; they cannot be "
                f"attributed to a task function and will be recomputed",
                RuntimeWarning,
                stacklevel=2,
            )
        return completed

    def _has_valid_header(self) -> bool:
        """Whether any line of the file parses as a header record."""
        try:
            with self.path.open("r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if rec.get("type") == "header":
                        return True
        except OSError:
            return False
        return False

    def resume(
        self, fn: Callable[..., Any], tasks: Sequence[Any]
    ) -> tuple[list[str], dict[int, Any]]:
        """Open the journal for a sweep of *fn* over *tasks*.

        Returns every task's key and the journaled results of the tasks
        already done, as ``{task index: result}``; the journal is then
        open for :meth:`record`.
        """
        name = _fn_name(fn)
        keys = [task_key(t) for t in tasks]
        done = self.load(name)
        self.open_for_append(name, len(tasks))
        return keys, {i: done[k] for i, k in enumerate(keys) if k in done}

    # -- writing ----------------------------------------------------

    def open_for_append(self, fn_name: str, num_tasks: int) -> None:
        # A killed run can leave an unterminated last line (a torn
        # record or header).  It is ended with a newline first, else the
        # next record would be glued onto the fragment and lost with it.
        # A fresh header is also written when the existing file lacks a
        # valid one (torn first line): the old headerless records stay
        # dead — load() refuses them — but everything journaled from
        # here on resumes normally, so one torn header costs one
        # recompute, not the checkpoint file.
        size = self.path.stat().st_size if self.path.exists() else 0
        torn = size > 0 and not self._ends_with_newline()
        needs_header = size == 0 or not self._has_valid_header()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")
        if torn:
            self._handle.write("\n")
        if needs_header:
            self._write(
                {
                    "type": "header",
                    "version": self.VERSION,
                    "fn": fn_name,
                    "tasks": num_tasks,
                }
            )

    def _ends_with_newline(self) -> bool:
        with self.path.open("rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) == b"\n"

    def record(self, key: str, index: int, result: Any) -> None:
        if self._handle is None:
            return
        payload = base64.b64encode(
            pickle.dumps(result, protocol=4)
        ).decode("ascii")
        self._write(
            {"type": "task", "key": key, "index": index,
             "result": payload}
        )

    def _write(self, rec: dict[str, Any]) -> None:
        self._handle.write(json.dumps(rec, separators=(",", ":")) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ----------------------------------------------------------------------
# Test kill hook


def _maybe_test_kill(index: int) -> None:
    """Deterministic crash injection (see ``_KILL_ENV``)."""
    raw = env.get_raw(_KILL_ENV)
    if raw is None:
        return
    try:
        target = int(raw)
    except ValueError:
        return
    if index != target:
        return
    marker = env.get_raw(_KILL_MARKER_ENV)
    if marker:
        if os.path.exists(marker):
            return  # already killed once; behave normally now
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write(str(index))
    os._exit(TEST_KILL_EXIT_CODE)


def resilient_sweep_map(
    fn: Callable[[_T], Any],
    tasks: Iterable[_T],
    jobs: int | None = 1,
    *,
    policy: ResiliencePolicy | None = None,
    checkpoint: str | os.PathLike[str] | SweepCheckpoint | None = None,
    transport: str | None = None,
) -> list[Any]:
    """Forward to :func:`repro.parallel.sweep_map` (same arguments)."""
    from .parallel import sweep_map  # late: parallel imports this module

    return sweep_map(
        fn, tasks, jobs, policy=policy, checkpoint=checkpoint,
        transport=transport,
    )
