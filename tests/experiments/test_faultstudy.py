"""Tests for the degraded-bisection study."""

from __future__ import annotations

import pytest

from repro.allocation.geometry import PartitionGeometry
from repro.experiments.faultstudy import (
    default_geometry_for_machine,
    degraded_bisection_study,
    surviving_bisection_bandwidth,
)
from repro.faults import FaultSet, midplane_drain, random_degradations
from repro.machines.catalog import JUQUEEN, MIRA
from repro.topology.torus import Torus


class TestSurvivingBisection:
    def test_healthy_equals_bisection_width(self):
        for dims in [(4, 4), (8,), (2, 4, 6)]:
            torus = Torus(dims)
            assert surviving_bisection_bandwidth(
                torus, FaultSet()
            ) == pytest.approx(torus.bisection_width())

    def test_crossing_failure_reduces_cut(self):
        torus = Torus((8,))
        healthy = surviving_bisection_bandwidth(torus, FaultSet())
        # (3,)-(4,) crosses the half cut of an 8-ring.
        cut = surviving_bisection_bandwidth(
            torus, FaultSet(failed_links=[((3,), (4,))])
        )
        assert cut == pytest.approx(healthy - 1.0)

    def test_non_crossing_failure_leaves_cut(self):
        torus = Torus((8,))
        healthy = surviving_bisection_bandwidth(torus, FaultSet())
        cut = surviving_bisection_bandwidth(
            torus, FaultSet(failed_links=[((1,), (2,))])
        )
        assert cut == pytest.approx(healthy)

    def test_degraded_crossing_link_scales(self):
        torus = Torus((8,))
        healthy = surviving_bisection_bandwidth(torus, FaultSet())
        cut = surviving_bisection_bandwidth(
            torus, FaultSet(degraded_links={((3,), (4,)): 0.25})
        )
        assert cut == pytest.approx(healthy - 0.75)

    def test_drained_node_loses_crossing_edges(self):
        torus = Torus((4, 4))
        healthy = surviving_bisection_bandwidth(torus, FaultSet())
        # Draining the coord-1 slab of dim 0 removes its dim-0 crossing
        # edges from the (0/1 | 2/3) cut: 4 links (1,y)-(2,y)... but the
        # best cut may move to the other dimension, so just check it
        # shrinks and stays non-negative.
        cut = surviving_bisection_bandwidth(
            torus, midplane_drain(torus, 0, 1)
        )
        assert 0.0 <= cut < healthy

    def test_degraded_link_at_drained_node_counted_once(self):
        torus = Torus((8,))
        drained = surviving_bisection_bandwidth(
            torus, FaultSet(failed_nodes=[(3,)])
        )
        both = surviving_bisection_bandwidth(
            torus,
            FaultSet(failed_nodes=[(3,)],
                     degraded_links={((3,), (4,)): 0.25}),
        )
        assert both == drained == pytest.approx(1.0)

    def test_never_negative(self):
        torus = Torus((2, 2))
        everything = FaultSet(
            failed_links=[(u, v) for u, v, _ in torus.edges()]
        )
        assert surviving_bisection_bandwidth(torus, everything) == 0.0

    def test_odd_torus_raises(self):
        with pytest.raises(ValueError, match="even"):
            surviving_bisection_bandwidth(Torus((3, 5)), FaultSet())


class TestDefaultGeometry:
    def test_mira_uses_predefined_list(self):
        geo = default_geometry_for_machine(MIRA, 16)
        assert geo == PartitionGeometry((4, 4, 1, 1))

    def test_juqueen_uses_worst_cuboid(self):
        geo = default_geometry_for_machine(JUQUEEN, 8)
        assert geo.num_midplanes == 8


class TestDegradedBisectionStudy:
    def test_healthy_row_matches_paper_tables(self):
        rows = degraded_bisection_study(
            MIRA, 16, max_failures=2, trials=3, seed=0
        )
        r0 = rows[0]
        assert r0.failures == 0 and r0.trials == 1
        # Table 1: default 4x4x1x1 has bisection 1024, optimal 2x2x2x2
        # has 2048 (node-level link counts x BG/Q weights).
        assert r0.default_mean_bw == pytest.approx(1024.0)
        assert r0.optimal_mean_bw == pytest.approx(2048.0)
        assert r0.ranking_stable_fraction == 1.0

    def test_rows_cover_all_failure_counts(self):
        rows = degraded_bisection_study(
            MIRA, 16, max_failures=3, trials=2, seed=0
        )
        assert [r.failures for r in rows] == [0, 1, 2, 3]
        assert all(r.trials == 2 for r in rows[1:])

    def test_deterministic(self):
        a = degraded_bisection_study(MIRA, 16, max_failures=2, trials=4, seed=5)
        b = degraded_bisection_study(MIRA, 16, max_failures=2, trials=4, seed=5)
        assert a == b

    def test_means_bounded_by_healthy_and_min(self):
        rows = degraded_bisection_study(
            MIRA, 16, max_failures=4, trials=5, seed=1
        )
        for r in rows:
            assert r.default_min_bw <= r.default_mean_bw <= 1024.0
            assert r.optimal_min_bw <= r.optimal_mean_bw <= 2048.0
            # k failures can cost at most 2k weighted links off any cut.
            assert r.default_min_bw >= 1024.0 - 2.0 * r.failures
            assert r.optimal_min_bw >= 2048.0 - 2.0 * r.failures

    def test_mira_ranking_stable_at_small_k(self):
        rows = degraded_bisection_study(
            MIRA, 16, max_failures=4, trials=10, seed=0
        )
        assert all(r.ranking_stable_fraction == 1.0 for r in rows)

    def test_fluid_check_passes_and_rows_unchanged(self):
        plain = degraded_bisection_study(
            MIRA, 4, max_failures=1, trials=2, seed=0
        )
        checked = degraded_bisection_study(
            MIRA, 4, max_failures=1, trials=2, seed=0, fluid_check=True
        )
        assert checked == plain

    def test_fluid_check_detects_mismatch(self, monkeypatch):
        import repro.experiments.faultstudy as faultstudy_mod
        import repro.experiments.pairing as pairing_mod

        monkeypatch.setattr(
            pairing_mod, "fluid_bisection_bandwidth", lambda g: -1.0
        )
        with pytest.raises(RuntimeError, match="fluid cross-check"):
            faultstudy_mod.degraded_bisection_study(
                MIRA, 4, max_failures=0, trials=1, fluid_check=True
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            degraded_bisection_study(MIRA, 0)
        with pytest.raises(ValueError):
            degraded_bisection_study(MIRA, 16, trials=0)
        with pytest.raises(ValueError):
            degraded_bisection_study(MIRA, 16, max_failures=-1)


def test_random_degradations_integrate_with_study_metric():
    torus = Torus((4, 4))
    faults = random_degradations(torus, 3, factor=0.5, seed=2)
    bw = surviving_bisection_bandwidth(torus, faults)
    healthy = surviving_bisection_bandwidth(torus, FaultSet())
    assert 0.0 < bw <= healthy


class TestFluidFaultSweep:
    """Flow-level fault scenarios: degraded rows, never aborts."""

    GEO = PartitionGeometry((1, 1, 1, 1))

    def test_healthy_row_equals_fluid_bisection(self):
        from repro.experiments.faultstudy import fluid_fault_sweep
        from repro.experiments.pairing import fluid_bisection_bandwidth

        rows = fluid_fault_sweep(self.GEO, max_failures=1, trials=1)
        assert rows[0].failures == 0
        assert rows[0].degraded is None
        assert rows[0].bandwidth == pytest.approx(
            fluid_bisection_bandwidth(self.GEO)
        )

    def test_grid_shape_and_seed_pairing(self):
        from repro.experiments.faultstudy import fluid_fault_sweep

        rows = fluid_fault_sweep(
            self.GEO, max_failures=2, trials=3, seed=5
        )
        assert [(r.failures, r.trial) for r in rows] == [
            (0, 0), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2),
        ]
        # Same seed arithmetic as degraded_bisection_study.
        assert [r.seed for r in rows] == [
            5, 1005, 1006, 1007, 2005, 2006, 2007,
        ]

    def test_deterministic_and_bounded(self):
        from repro.experiments.faultstudy import fluid_fault_sweep

        a = fluid_fault_sweep(self.GEO, max_failures=2, trials=2, seed=1)
        b = fluid_fault_sweep(self.GEO, max_failures=2, trials=2, seed=1)
        assert a == b
        healthy = a[0].bandwidth
        assert all(0.0 < r.bandwidth <= healthy for r in a)

    def test_disconnecting_scenario_degrades_not_raises(self, monkeypatch):
        """Isolate a vertex: its flows land in a DegradedResult row,
        exactly as the per-scenario oracle computes it."""
        import tests.oracles.scalar_sweeps as oracle
        from repro.experiments import faultstudy as fs

        torus = self.GEO.bgq_network()
        v = next(iter(torus.vertices()))
        incident = [(u, w) for u, w, _ in torus.edges()
                    if u == v or w == v]
        isolating = FaultSet(failed_links=incident)

        def draw(topo, k, seed=0, edges=None):
            return isolating if k > 0 else FaultSet()

        monkeypatch.setattr(fs, "random_link_failures", draw)
        monkeypatch.setattr(oracle, "random_link_failures", draw)
        rows = fs.fluid_fault_sweep(self.GEO, max_failures=1, trials=1)
        assert rows == [
            oracle.fault_scenario_row(
                (self.GEO.dims, k, 0, 1000 * k, 2.0, "parity")
            )
            for k in (0, 1)
        ]
        assert rows[0].degraded is None
        hit = rows[1]
        assert hit.degraded is not None
        # Both the isolated vertex's flow and its antipode's flow died.
        assert hit.degraded.disconnected_flows == 2
        assert v in hit.degraded.witness
        assert hit.degraded.scenario == (1, 0)
        assert hit.degraded.faults is isolating
        # The surviving flows still contribute bandwidth.
        assert 0.0 < hit.bandwidth < rows[0].bandwidth

    def test_checkpoint_resume_matches(self, tmp_path):
        from repro.experiments.faultstudy import fluid_fault_sweep

        ckpt = tmp_path / "fluid.jsonl"
        first = fluid_fault_sweep(
            self.GEO, max_failures=1, trials=2, checkpoint=ckpt
        )
        second = fluid_fault_sweep(
            self.GEO, max_failures=1, trials=2, checkpoint=ckpt
        )
        assert first == second

    def test_validation(self):
        from repro.experiments.faultstudy import fluid_fault_sweep

        with pytest.raises(ValueError):
            fluid_fault_sweep(self.GEO, max_failures=-1)
        with pytest.raises(ValueError):
            fluid_fault_sweep(self.GEO, trials=0)

    def test_blocks_of_one_geometry_route_healthy_pattern_once(
        self, monkeypatch
    ):
        """The healthy antipodal routes are memoized per geometry and
        tie rule: two blocks of one geometry route them once, and the
        rows stay equal to the per-scenario oracle's."""
        from repro.experiments import faultstudy as fs
        from tests.oracles.scalar_sweeps import fault_scenario_row

        routed = []
        real = fs.batch_dimension_ordered_routes

        def counting(*args, **kwargs):
            routed.append(kwargs.get("tie"))
            return real(*args, **kwargs)

        monkeypatch.setattr(fs, "_FLUID_CACHE", {})
        monkeypatch.setattr(fs, "batch_dimension_ordered_routes", counting)
        dims = PartitionGeometry((2, 1, 1, 1)).dims
        tasks = [
            (dims, k, t, 1000 * k + t, 2.0, tie)
            for tie in ("parity", "positive")
            for k in range(3)
            for t in range(2)
        ]
        rows = (
            fs._fluid_scenario_block(tasks[:3])
            + fs._fluid_scenario_block(tasks[3:6])
            + fs._fluid_scenario_block(tasks[6:])
        )
        assert routed == ["parity", "positive"]
        assert rows == [fault_scenario_row(t) for t in tasks]
