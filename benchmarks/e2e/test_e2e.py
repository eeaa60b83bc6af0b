"""Tests of the end-to-end benchmark (``pytest benchmarks/e2e``)."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import compare
import harness
import layers
import run
import workloads
from repro import observability
from repro.netsim import fairness, network
from repro.simmpi import engine

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def traced_counters():
    observability.reset()
    observability.enable()
    yield observability.OBS.counters
    observability.disable()
    observability.reset()


# --------------------------------------------------------------------- #
# Tracer


def test_self_time_of_nested_calls(traced_counters):
    tracer = layers.Tracer(layers={})
    inner = tracer.wrap("b", "inner", lambda x: x * 2)
    outer = tracer.wrap("a", "outer", lambda x: inner(x) + inner(x + 1))

    assert outer(1) == 6
    first, second, top = tracer.spans
    assert [s[2] for s in tracer.spans] == ["inner", "inner", "outer"]
    assert first[1] == second[1] == top[0] and top[1] is None
    children = sum(end - start for _, _, _, _, start, end, _ in (first, second))
    assert top[6] == pytest.approx((top[5] - top[4]) - children, abs=1e-12)
    assert tracer.top_level_s() == top[5] - top[4]
    assert traced_counters["bench.layer.a.calls"] == 1
    assert traced_counters["bench.layer.b.calls"] == 2
    # Self times partition the outermost call.
    total = traced_counters["bench.layer.a.self_s"] + traced_counters[
        "bench.layer.b.self_s"
    ]
    assert total == pytest.approx(tracer.top_level_s(), abs=1e-12)


def test_tracer_rebinds_import_aliases_and_restores_them(traced_counters):
    original = fairness.max_min_fair_rates
    raw_method = network.LinkNetwork.__dict__["path_to_links"]
    assert engine.max_min_fair_rates is original  # a from-import alias

    tracer = layers.Tracer()
    late = types.ModuleType("repro._bench_late_import")
    with tracer.installed():
        wrapped = fairness.max_min_fair_rates
        assert wrapped is not original
        assert engine.max_min_fair_rates is wrapped
        assert network.LinkNetwork.__dict__["path_to_links"] is not raw_method
        # A module imported while installed picks up the wrapper too.
        late.alias = wrapped
        sys.modules[late.__name__] = late
        engine.max_min_fair_rates(
            [np.array([0]), np.array([0, 1])], np.array([2.0, 2.0])
        )
    try:
        assert fairness.max_min_fair_rates is original
        assert engine.max_min_fair_rates is original
        assert late.alias is original
        assert network.LinkNetwork.__dict__["path_to_links"] is raw_method
    finally:
        del sys.modules[late.__name__]
    assert [(s[2], s[3]) for s in tracer.spans] == [
        ("repro.netsim.fairness:max_min_fair_rates", "netsim.fairness")
    ]
    assert traced_counters["bench.layer.netsim.fairness.calls"] == 1


# --------------------------------------------------------------------- #
# compare.py


def _stats(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"value": statistics.median(samples), "q1": q1, "q3": q3,
            "samples": samples, "unit": "s"}


def test_compare_verdicts():
    base = _stats([1.00, 1.01, 0.99, 1.00, 1.02, 0.98])
    slower = _stats([1.30, 1.31, 1.29, 1.30, 1.32, 1.28])
    faster = _stats([0.70, 0.71, 0.69, 0.70, 0.72, 0.68])
    noisy = _stats([0.6, 1.4, 0.8, 1.2, 1.0, 1.5])
    assert compare.verdict(base, base, 0.1, "lower") == "ok"
    assert compare.verdict(base, slower, 0.1, "lower") == "regressed"
    assert compare.verdict(base, faster, 0.1, "lower") == "improved"
    assert compare.verdict(base, noisy, 0.1, "lower") == "unresolved"
    # Higher-is-better flips the direction.
    assert compare.verdict(base, slower, 0.1, "higher") == "improved"
    # A wide spread still resolves when every run of one side wins.
    wide_slow = _stats([2.0, 3.0, 2.5, 4.0, 2.2, 3.5])
    assert compare.verdict(base, wide_slow, 0.1, "lower") == "regressed"


def test_compare_flags_any_failed_frac_rise():
    spec = {"end_to_end": []}
    a = {"workloads": {"w": {"failed_frac": 0.0, "metrics": {}}}}
    b = {"workloads": {"w": {"failed_frac": 0.1, "metrics": {}}}}
    assert compare.compare(a, b, spec) == [
        ("w", "failed_frac", "0 -> 0.1", "regressed")
    ]


# --------------------------------------------------------------------- #
# Harness and workloads


def test_wrong_reference_digest_fails_every_pass(tmp_path):
    ref = tmp_path / "reference.json"
    ref.write_text(json.dumps(
        {"seed": 0, "digests": {"simmpi_exchange": "0" * 64}}
    ))
    record = harness.run_workload(
        "simmpi_exchange", 0, 0.0, workdir=tmp_path, passes=1, reference=ref
    )
    assert record["attempted"] == 2  # warm-up and one timed pass
    assert record["failed"] == record["attempted"]


@pytest.mark.parametrize("name", ["simmpi_exchange", "isoperimetry_exact"])
def test_single_pass_smoke_run(name):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--passes", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.skipif(run.nproc() < 2, reason="needs 2 CPUs")
def test_worker_layer_counts_merge_into_the_parent(tmp_path, monkeypatch):
    traced = {}
    for jobs in (1, 2):
        monkeypatch.setattr(workloads.FaultSweep, "jobs", jobs)
        record = harness.run_workload(
            "fault_sweep", 0, 0.0, workdir=tmp_path, passes=1, trace=True
        )
        assert record["failed"] == 0
        traced[jobs] = {k: v["value"] for k, v in record["layers"].items()}
    assert traced[1]["parallel.workers"] == 1
    assert traced[2]["parallel.workers"] == 2
    # One random_link_failures call per scenario, wherever it ran.
    assert traced[2]["allocation.calls"] == traced[1]["allocation.calls"] == 49
    assert traced[2]["netsim.fairness.flows"] == traced[1]["netsim.fairness.flows"]


def test_pool_workloads_are_skipped_on_one_cpu(monkeypatch, capsys):
    monkeypatch.setattr(run, "nproc", lambda: 1)
    assert run.main(["--workload", "fault_resume"]) == 3
    assert capsys.readouterr().out == "fault_resume: skipped: needs 2 CPUs\n"


# --------------------------------------------------------------------- #
# BENCHMARK.json and reference digests agree with the code


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.REGISTRY)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    observability.reset()
    per_layer = harness.layer_metrics(layers.Tracer(), 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (_, unit) in per_layer.items()
    }
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]


def test_every_workload_has_a_pinned_digest():
    ref = json.loads(harness.REFERENCE.read_text())
    assert ref["seed"] == 0
    assert set(ref["digests"]) == set(workloads.REGISTRY)


def test_benchmark_lints_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(HERE), "--no-docs-check"],
        capture_output=True, text=True, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
