"""End-to-end benchmark of the reproduction: seven paper workloads.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
        [--trace 0|1] [--out results.json] [--spans spans.jsonl]
        [--passes N]

Each workload runs in its own subprocess (``harness.py``), one after
another; set-up is sampled in extra set-up-only subprocesses.  The
report names every metric with its unit, and the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics of one
traced pass.  ``--out`` writes medians, quartiles and samples for
``compare.py``; ``--spans`` appends the traced pass's spans as JSONL.
The exit status is 0 when every pass's output checked out, 1 when a
check or a run failed, 2 when ``src/repro`` is missing, and 3 when the
one requested workload needs more CPUs than this host has.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Scratch space for journals; removed by each subprocess on exit.
WORKROOT = ROOT / ".bench_build" / "e2e"

#: Default measuring window per workload, seconds (``run_seconds``).
DEFAULT_SECONDS = 12
#: Set-up samples per workload: the measured run plus set-up-only runs.
SETUP_SAMPLES = 5
#: Wall-clock budget for one workload's subprocesses, seconds.
WORKLOAD_BUDGET_S = 170.0

#: End-to-end metrics: name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}

if not (SRC / "repro").is_dir():
    print(f"error: {SRC / 'repro'} not found; run from a repository checkout",
          file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))
import workloads  # noqa: E402  (needs src/ on the path)


class BenchError(RuntimeError):
    """A workload subprocess failed, timed out or printed no record."""


def nproc() -> int:
    """CPUs this process may run on (what a worker pool can use)."""
    count = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        count = min(count, len(os.sched_getaffinity(0)))
    return count


def _child_env() -> dict[str, str]:
    # Measure the defaults: drop REPRO_* knobs a caller may have set,
    # and keep BLAS single-threaded so only the sweep pool adds CPUs.
    env = {
        k: v
        for k, v in os.environ.items()  # repro: allow-env-knob builds the child environment, reads no knob
        if not k.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args: argparse.Namespace, name: str, deadline: float,
           setup_only: bool) -> dict[str, Any]:
    """Run one harness subprocess and return its JSON record."""
    cmd = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workroot", str(WORKROOT),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.passes is not None:
        cmd += ["--passes", str(args.passes)]
    if args.spans and not setup_only:
        cmd += ["--spans", args.spans]
    cmd += ["--spawned-at", repr(time.monotonic())]  # repro: allow-wallclock set-up timer start, read back by the child
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT,
        start_new_session=True, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))  # repro: allow-wallclock subprocess timeout
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{name}: timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: harness exited with {proc.returncode}")
    return json.loads(lines[-1])


def _stats(samples: list[float], unit: str) -> dict[str, Any]:
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": statistics.median(samples), "unit": unit, "q1": q1,
        "q3": q3, "n": len(samples), "samples": samples,
    }


def summarize(record: dict[str, Any], setups: list[float]) -> dict[str, Any]:
    """Medians and quartiles of one workload's raw harness record."""
    samples = {
        "setup_s": setups,
        "wall_s": record["wall_s"],
        "cpu_s": record["cpu_s"],
        "peak_rss_mb": [record["peak_rss_mb"]],
        "work_per_s": [record["units"] / w for w in record["wall_s"]],
    }
    summary = {
        "passes": len(record["wall_s"]),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "failed_frac": record["failed"] / record["attempted"],
        "digest": record["digest"],
        "units_per_pass": record["units"],
        "unit": record["unit"],
        "problems": record["problems"],
        "metrics": {m: _stats(samples[m], u) for m, u in E2E_UNITS.items()},
    }
    if "layers" in record:
        summary["layers"] = record["layers"]
    return summary


def run_workload(args: argparse.Namespace, name: str) -> dict[str, Any]:
    """All subprocesses of one workload; a ``skipped`` entry on 1 CPU."""
    needed = workloads.REGISTRY[name].cpus
    if needed > nproc():
        return {"skipped": f"needs {needed} CPUs"}
    deadline = time.monotonic() + WORKLOAD_BUDGET_S  # repro: allow-wallclock subprocess budget

    def setups(count: int) -> list[float]:
        return [_spawn(args, name, deadline, setup_only=True)["setup_s"]
                for _ in range(count)]

    # Host load drifts over seconds, so the set-up samples bracket the
    # measured run instead of sitting in one burst before it.
    before = setups((SETUP_SAMPLES - 1) // 2)
    record = _spawn(args, name, deadline, setup_only=False)
    after = setups(SETUP_SAMPLES - 1 - len(before))
    return summarize(record, before + [record["setup_s"]] + after)


def _print_workload(name: str, summary: dict[str, Any]) -> None:
    if "skipped" in summary:
        print(f"{name}: skipped: {summary['skipped']}")
        return
    print(f"{name}: {summary['passes']} passes, "
          f"{summary['units_per_pass']:g} {summary['unit']} per pass, "
          f"failed {summary['failed']}/{summary['attempted']}")
    for metric, s in summary["metrics"].items():
        print(f"  {metric:<14} {s['value']:>12.6g} {s['unit']:<4} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    for problem in summary["problems"]:
        print(f"  FAILED: {problem}")
    for metric, m in summary.get("layers", {}).items():
        print(f"  {metric:<34} {m['value']:>12.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: seven paper workloads."
    )
    parser.add_argument("--workload", choices=workloads.REGISTRY,
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one traced pass, report per-layer metrics")
    parser.add_argument("--passes", type=int,
                        help="fixed timed-pass count instead of the window")
    parser.add_argument("--out", help="write the detailed results as JSON")
    parser.add_argument("--spans", help="append traced spans as JSON Lines")
    args = parser.parse_args(argv)
    if args.spans:
        args.spans = str(Path(args.spans).resolve())
        Path(args.spans).write_text("")

    names = [args.workload] if args.workload else list(workloads.REGISTRY)
    results: dict[str, Any] = {}
    try:
        for name in names:
            results[name] = run_workload(args, name)
            _print_workload(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ran = {n: s for n, s in results.items() if "skipped" not in s}
    if args.workload and not ran:
        return 3
    if args.out:
        Path(args.out).write_text(json.dumps({
            "schema": 1, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": nproc(),
            "python": platform.python_version(), "platform": platform.platform(),
            "workloads": results,
        }, indent=1) + "\n")

    metrics: dict[str, Any] = {}
    for name, s in ran.items():
        prefix = "" if args.workload else f"{name}."
        chosen = s["layers"] if args.trace else s["metrics"]
        for metric, m in chosen.items():
            metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(s["failed"] for s in ran.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in ran.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
