"""The seven workloads of the end-to-end benchmark.

Each workload is a class with the same life cycle, driven by
``harness.py``:

* ``setup(seed, workdir)`` builds the inputs from the seed (timed as
  ``setup_s``, together with interpreter start and ``import repro``);
* ``prepare()`` resets per-pass state outside the timed region;
* ``run()`` is one timed pass through the public ``repro`` API;
* ``canonical(result)`` is the JSON form hashed into the pass digest;
* ``check(result)`` lists violated paper invariants (empty when the
  output is correct, for any seed);
* ``units(counters)`` is the work one pass delivers, for ``work_per_s``.

Library functions are called through their modules (``pairing.f``
rather than ``from pairing import f``), so the layer tracer's rebinding
of module attributes also sees the benchmark's own top-level calls.
"""

from __future__ import annotations

import math
import random
import shutil
from pathlib import Path
from typing import Any

from repro import simmpi
from repro.allocation import enumeration, optimizer
from repro.allocation.geometry import PartitionGeometry
from repro.experiments import faultstudy, pairing, strongscaling
from repro.faults import FaultEvent, FaultSet, RepairEvent
from repro.isoperimetry import exact
from repro.machines.catalog import JUQUEEN, MIRA
from repro.topology import Torus

#: Relative tolerance of the paper-ratio and closed-form checks.
REL_TOL = 1e-9


class Workload:
    """Base class: a seeded input set and one pass over it."""

    name = ""
    #: CPUs the workload needs to measure what it claims (pool workers).
    cpus = 1
    #: Whether ``--seed`` changes the inputs.
    uses_seed = True
    #: What ``units`` counts, for ``work_per_s``.
    unit = ""

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def prepare(self) -> None:
        """Per-pass state reset, outside the timed region."""

    def run(self) -> Any:
        raise NotImplementedError

    def canonical(self, result: Any) -> Any:
        raise NotImplementedError

    def check(self, result: Any) -> list[str]:
        raise NotImplementedError

    def units(self, counters: dict[str, float]) -> float:
        raise NotImplementedError


class PairingSweep(Workload):
    """Figures 3/4 across whole machines: the stacked serial sweep."""

    name = "pairing_sweep"
    uses_seed = False
    unit = "geometries"

    def setup(self, seed: int, workdir: Path) -> None:
        super().setup(seed, workdir)
        self.cases = []
        for machine in (MIRA, JUQUEEN):
            for size in enumeration.achievable_midplane_counts(machine):
                self.cases.append((
                    optimizer.best_geometry_for_machine(machine, size),
                    optimizer.worst_geometry_for_machine(machine, size),
                ))
        self.geometries = list(
            dict.fromkeys(g for case in self.cases for g in case)
        )

    def run(self) -> Any:
        return pairing.run_pairing_sweep(self.geometries, jobs=1)

    def canonical(self, result: Any) -> Any:
        return [
            [list(r.geometry.dims), r.time_seconds, r.min_rate, r.max_rate,
             r.num_flows]
            for r in result
        ]

    def check(self, result: Any) -> list[str]:
        time_of = {r.geometry: r.time_seconds for r in result}
        problems = []
        for best, worst in self.cases:
            got = time_of[worst] / time_of[best]
            want = (
                best.normalized_bisection_bandwidth
                / worst.normalized_bisection_bandwidth
            )
            if not math.isclose(got, want, rel_tol=REL_TOL):
                problems.append(
                    f"{worst.dims}/{best.dims}: time ratio {got!r} != "
                    f"bisection ratio {want!r}"
                )
        return problems

    def units(self, counters: dict[str, float]) -> float:
        return len(self.geometries)


class FaultSweep(Workload):
    """Flow-level fault grid through the process pool."""

    name = "fault_sweep"
    cpus = 2
    unit = "scenarios"
    dims = (2, 2, 2, 2)
    max_failures = 4
    trials = 12
    #: Worker processes; tests set 1 to compare against the pool path.
    jobs = 2

    def setup(self, seed: int, workdir: Path) -> None:
        super().setup(seed, workdir)
        self.geometry = PartitionGeometry(self.dims)
        self.healthy = faultstudy.surviving_bisection_bandwidth(
            self.geometry.network(), FaultSet()
        )

    def sweep(self, **kwargs: Any) -> Any:
        return faultstudy.fluid_fault_sweep(
            self.geometry, max_failures=self.max_failures,
            trials=self.trials, seed=self.seed, jobs=self.jobs, **kwargs,
        )

    def run(self) -> Any:
        return self.sweep()

    def canonical(self, result: Any) -> Any:
        return [
            [r.failures, r.trial, r.seed, r.bandwidth,
             None if r.degraded is None else r.degraded.disconnected_flows]
            for r in result
        ]

    def check(self, result: Any) -> list[str]:
        problems = []
        if result[0].failures != 0 or not math.isclose(
            result[0].bandwidth, self.healthy, rel_tol=REL_TOL
        ):
            problems.append(
                f"K=0 row {result[0].bandwidth!r} != healthy cut "
                f"{self.healthy!r}"
            )
        limit = self.healthy * (1.0 + REL_TOL)
        problems += [
            f"K={r.failures} trial {r.trial}: {r.bandwidth!r} exceeds the "
            f"healthy cut {self.healthy!r}"
            for r in result
            if r.bandwidth > limit
        ]
        return problems

    def units(self, counters: dict[str, float]) -> float:
        return 1 + self.max_failures * self.trials


class FaultResume(FaultSweep):
    """The fault grid resumed from a checkpoint journal."""

    name = "fault_resume"
    #: Failure counts the set-up journal already holds.
    journaled_failures = 1

    def setup(self, seed: int, workdir: Path) -> None:
        super().setup(seed, workdir)
        self.journal = workdir / "journal.jsonl"
        self.pass_journal = workdir / "pass.jsonl"
        faultstudy.fluid_fault_sweep(
            self.geometry, max_failures=self.journaled_failures,
            trials=self.trials, seed=seed, jobs=1, checkpoint=self.journal,
        )
        self.expected: Any = None

    def prepare(self) -> None:
        shutil.copyfile(self.journal, self.pass_journal)

    def run(self) -> Any:
        return self.sweep(checkpoint=self.pass_journal)

    def check(self, result: Any) -> list[str]:
        if self.expected is None:
            # The uncheckpointed grid, computed once and never timed.
            self.expected = self.canonical(self.sweep())
        problems = super().check(result)
        if self.canonical(result) != self.expected:
            problems.append("resumed rows differ from the fault_sweep rows")
        return problems

    def units(self, counters: dict[str, float]) -> float:
        return self.max_failures * self.trials - (
            self.journaled_failures * self.trials
        )


class CapsStrongScaling(Workload):
    """Table 4's 4-midplane row: CAPS on the scalar per-pair router."""

    name = "caps_strong_scaling"
    uses_seed = False
    unit = "CAPS runs"
    table = [strongscaling.STRONG_SCALING_TABLE4[1]]

    def run(self) -> Any:
        return strongscaling.run_strong_scaling(table=self.table)

    def canonical(self, result: Any) -> Any:
        return [
            [curve, list(p.result.geometry.dims), p.communication_time,
             p.computation_time, list(p.result.step_times)]
            for curve in ("current", "proposed")
            for p in getattr(result, curve)
        ]

    def check(self, result: Any) -> list[str]:
        return [
            f"{cur.num_midplanes} midplanes: proposed "
            f"{prop.communication_time!r} > current "
            f"{cur.communication_time!r}"
            for cur, prop in zip(result.current, result.proposed)
            if prop.communication_time > cur.communication_time
        ]

    def units(self, counters: dict[str, float]) -> float:
        return 2 * len(self.table)


class SimmpiExchange(Workload):
    """Event-bound simmpi run: one completion per event, no contention."""

    name = "simmpi_exchange"
    unit = "simulated events"
    dims = (64, 32)
    rounds = 3

    def setup(self, seed: int, workdir: Path) -> None:
        super().setup(seed, workdir)
        self.torus = Torus(self.dims)
        n = self.torus.num_vertices
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        self.volumes = [
            [0.25 + 0.001 * perm[rank] + 0.05 * rnd
             for rnd in range(self.rounds)]
            for rank in range(n)
        ]
        self.pairs = [(rank, rank ^ 1) for rank in range(n)]
        # Each pair owns its two one-hop links, so a pair's round takes
        # its larger volume over the 2 GB/s link.
        self.makespan = max(
            sum(max(va, vb) for va, vb in zip(
                self.volumes[a], self.volumes[a ^ 1]
            ))
            for a in range(0, n, 2)
        ) / 2.0
        self.total_gb = sum(map(sum, self.volumes))

    def program(self, rank: int, size: int):
        for rnd, gb in enumerate(self.volumes[rank]):
            yield simmpi.SendRecv(peer=rank ^ 1, gb=gb, tag=rnd)

    def run(self) -> Any:
        world = simmpi.VirtualMpi(self.torus, link_bandwidth=2.0)
        world.warm_routes(self.pairs)
        return world.run(self.program)

    def canonical(self, result: Any) -> Any:
        return _run_record(result)

    def check(self, result: Any) -> list[str]:
        problems = []
        if not math.isclose(result.time, self.makespan, rel_tol=REL_TOL):
            problems.append(
                f"makespan {result.time!r} != dedicated-link closed form "
                f"{self.makespan!r}"
            )
        if not math.isclose(
            result.total_gb_sent, self.total_gb, rel_tol=REL_TOL
        ):
            problems.append(
                f"sent {result.total_gb_sent!r} GB, programs posted "
                f"{self.total_gb!r}"
            )
        return problems

    def units(self, counters: dict[str, float]) -> float:
        return counters["simmpi.loop_events"]


class SimmpiBisection(Workload):
    """Antipodal simmpi traffic across the bisection, healthy and faulted."""

    name = "simmpi_bisection"
    unit = "simulated events"
    geometries = ((4, 1, 1, 1), (2, 2, 1, 1))
    rounds = 4
    gb = 0.5
    failed_links = 4
    fail_at = 0.3
    repair_at = 0.9

    def setup(self, seed: int, workdir: Path) -> None:
        super().setup(seed, workdir)
        self.cases = []
        for dims in self.geometries:
            geometry = PartitionGeometry(dims)
            torus = geometry.bgq_network()
            verts = list(torus.vertices())
            index = {v: i for i, v in enumerate(verts)}
            peers = [index[torus.antipode(v)] for v in verts]
            # The seed picks the failed links among the bisection cut's.
            # Cut links are alike under the torus's translations, so the
            # pass cost hardly depends on the draw; over all links it
            # varied by 1.5x between seeds.
            k, _ = torus.best_perpendicular_bisection()
            half = torus.dims[k] // 2
            cut = [(u, v) for u, v, _ in torus.edges()
                   if (u[k] < half) != (v[k] < half)]
            faults = FaultSet(failed_links=random.Random(seed).sample(
                cut, self.failed_links
            ))
            timeline = (
                FaultEvent(self.fail_at, faults),
                RepairEvent(
                    self.repair_at, links=tuple(sorted(faults.failed_links))
                ),
            )
            # Theorem 3.1: every pair crosses the bisection, so one
            # direction carries half the ranks' volume over the cut.
            bound = (len(verts) / 2 * self.rounds * self.gb) / (
                geometry.normalized_bisection_bandwidth * 2.0
            )
            self.cases.append((torus, peers, timeline, bound))

    def run(self) -> Any:
        results = []
        for torus, peers, timeline, _ in self.cases:

            def program(rank: int, size: int, peers=peers):
                for rnd in range(self.rounds):
                    yield simmpi.SendRecv(peer=peers[rank], gb=self.gb, tag=rnd)

            pairs = list(enumerate(peers))
            for events in ((), timeline):
                world = simmpi.VirtualMpi(
                    torus, link_bandwidth=2.0, fault_events=events
                )
                world.warm_routes(pairs)
                results.append(world.run(program))
        return results

    def canonical(self, result: Any) -> Any:
        return [_run_record(r) for r in result]

    def check(self, result: Any) -> list[str]:
        cur_healthy, cur_faulted, prop_healthy, prop_faulted = result
        problems = []
        ratio = cur_healthy.time / prop_healthy.time
        if not math.isclose(ratio, 2.0, rel_tol=REL_TOL):
            problems.append(f"healthy current/proposed ratio {ratio!r} != 2")
        runs = ((cur_healthy, cur_faulted), (prop_healthy, prop_faulted))
        for (torus, _, _, bound), pair in zip(self.cases, runs):
            for r in pair:
                if r.time < bound * (1.0 - REL_TOL):
                    problems.append(
                        f"{torus.dims}: makespan {r.time!r} beats the "
                        f"Theorem 3.1 bound {bound!r}"
                    )
                sent = torus.num_vertices * self.rounds * self.gb
                if not math.isclose(r.total_gb_sent, sent, rel_tol=REL_TOL):
                    problems.append(
                        f"{torus.dims}: sent {r.total_gb_sent!r} GB, "
                        f"expected {sent!r}"
                    )
        return problems

    def units(self, counters: dict[str, float]) -> float:
        return counters["simmpi.loop_events"]


class IsoperimetryExact(Workload):
    """Brute-force conjecture probes: pure-Python subset enumeration."""

    name = "isoperimetry_exact"
    uses_seed = False
    unit = "subsets"
    probes = ((3, 6), (4, 5))

    def run(self) -> Any:
        return [exact.conjecture_counterexample(dims) for dims in self.probes]

    def canonical(self, result: Any) -> Any:
        return [[list(d), r] for d, r in zip(self.probes, result)]

    def check(self, result: Any) -> list[str]:
        return [
            f"{dims}: counterexample {r!r}"
            for dims, r in zip(self.probes, result)
            if r is not None
        ]

    def units(self, counters: dict[str, float]) -> float:
        total = 0
        for dims in self.probes:
            n = math.prod(dims)
            total += sum(math.comb(n, t) for t in range(1, n // 2 + 1))
        return total


def _run_record(r: Any) -> list:
    return [r.time, r.reroutes, r.restores, r.degraded_flow_seconds,
            [s.finish_time for s in r.ranks]]


#: Workloads by name, in the order the default run executes them.
REGISTRY: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        PairingSweep, FaultSweep, FaultResume, CapsStrongScaling,
        SimmpiExchange, SimmpiBisection, IsoperimetryExact,
    )
}
