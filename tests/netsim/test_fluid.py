"""Unit tests for the fluid completion-time engine.

:class:`TestAgainstOracle` pins :class:`FluidSimulation` (a
one-scenario stacked run) to the scalar progress loop of
``tests/oracles/scalar_fluid.py``, bit for bit.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.netsim.batchroute import batch_dimension_ordered_routes
from repro.netsim.fluid import FluidSimulation, simulate_flows
from repro.netsim.network import LinkNetwork
from repro.netsim.routing import dimension_ordered_route
from repro.topology.torus import Torus
from tests.oracles.scalar_fluid import ScalarFluidSimulation


def _net_and_paths():
    t = Torus((4,))
    net = LinkNetwork(t, link_bandwidth=2.0)
    p01 = net.path_to_links(dimension_ordered_route(t, (0,), (1,)))
    p12 = net.path_to_links(dimension_ordered_route(t, (1,), (2,)))
    return net, p01, p12


class TestSingleFlows:
    def test_single_flow_time(self):
        net, p01, _ = _net_and_paths()
        assert simulate_flows(net, [p01], [6.0]) == pytest.approx(3.0)

    def test_disjoint_flows_parallel(self):
        net, p01, p12 = _net_and_paths()
        makespan = simulate_flows(net, [p01, p12], [6.0, 2.0])
        assert makespan == pytest.approx(3.0)

    def test_empty_flow_set(self):
        net, _, _ = _net_and_paths()
        assert simulate_flows(net, [], []) == 0.0


class TestProgressiveRefill:
    def test_rates_rise_after_completion(self):
        """Two flows share a 2 GB/s link at 1 GB/s each; the 2 GB flow
        finishes at t=2, then the 6 GB flow's remaining 4 GB moves at
        the full 2 GB/s, finishing at t=4."""
        t = Torus((4,))
        net = LinkNetwork(t, link_bandwidth=2.0)
        p = net.path_to_links(dimension_ordered_route(t, (0,), (1,)))
        makespan, results = FluidSimulation(
            net, [p, p], [2.0, 6.0]
        ).run()
        assert results[0].completion_time == pytest.approx(2.0)
        assert makespan == pytest.approx(4.0)

    def test_initial_rates_reported(self):
        t = Torus((4,))
        net = LinkNetwork(t, link_bandwidth=2.0)
        p = net.path_to_links(dimension_ordered_route(t, (0,), (1,)))
        _, results = FluidSimulation(net, [p, p], [1.0, 1.0]).run()
        assert all(r.initial_rate == pytest.approx(1.0) for r in results)

    def test_makespan_equals_max_completion(self):
        net, p01, p12 = _net_and_paths()
        makespan, results = FluidSimulation(
            net, [p01, p12, p01], [1.0, 5.0, 2.0]
        ).run()
        assert makespan == pytest.approx(
            max(r.completion_time for r in results)
        )

    def test_conservation(self):
        """Total completion-weighted capacity covers total volume."""
        net, p01, p12 = _net_and_paths()
        vols = [3.0, 1.0, 2.0]
        makespan, _ = FluidSimulation(net, [p01, p12, p01], vols).run()
        # Bottleneck link (0->1) carries 5 GB at 2 GB/s -> >= 2.5 s.
        assert makespan >= 2.5 - 1e-9


class TestValidation:
    def test_volume_path_mismatch(self):
        net, p01, _ = _net_and_paths()
        with pytest.raises(ValueError):
            FluidSimulation(net, [p01], [1.0, 2.0])

    def test_nonpositive_volume(self):
        net, p01, _ = _net_and_paths()
        with pytest.raises(ValueError):
            FluidSimulation(net, [p01], [0.0])

    def test_rejects_nan_input(self, monkeypatch):
        # The eager checks, not the REPRO_CHECK contract (which reports
        # NaN capacities as a ContractError first).
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        net, p01, p12 = _net_and_paths()
        with pytest.raises(ValueError, match="volumes must be positive"):
            FluidSimulation(net, [p01, p12], [1.0, np.nan])
        caps = net.capacities.copy()
        caps[p12[0]] = np.nan
        nan_net = types.SimpleNamespace(capacities=caps)
        with pytest.raises(ValueError, match="non-negative"):
            FluidSimulation(nan_net, [p01, p12], [1.0, 1.0]).solve()


class TestGroupedCompletion:
    """All flows finishing within _EPS of each other retire together."""

    def _symmetric_pairing(self, dims):
        from repro.experiments.pairing import pairing_path_matrix

        t = Torus(dims)
        net = LinkNetwork(t, link_bandwidth=2.0)
        return net, pairing_path_matrix(t)

    @pytest.mark.parametrize("dims", [(8, 4, 2), (4, 4), (8, 2)])
    def test_symmetric_pattern_solves_in_one_round(self, dims):
        net, pm = self._symmetric_pairing(dims)
        sim = FluidSimulation(net, pm, [3.0] * len(pm))
        makespan, results = sim.run()
        assert sim.rounds_used == 1
        assert all(
            r.completion_time == pytest.approx(makespan) for r in results
        )

    def test_staggered_volumes_still_converge(self):
        net, pm = self._symmetric_pairing((8, 2))
        vols = [1.0 + 0.25 * i for i in range(len(pm))]
        sim = FluidSimulation(net, pm, vols)
        makespan, results = sim.run()
        assert sim.rounds_used > 1
        assert makespan == pytest.approx(
            max(r.completion_time for r in results)
        )

    def test_volume_conservation_over_segments(self):
        """Sum of rate x dt segments equals each flow's volume (on the
        scalar oracle, which :class:`TestAgainstOracle` ties to the
        engine bit for bit)."""
        net, pm = self._symmetric_pairing((8, 2))
        vols = [1.0 + 0.25 * i for i in range(len(pm))]
        sim = ScalarFluidSimulation(net, pm, vols, record_segments=True)
        sim.run()
        delivered = np.zeros(len(pm))
        for dt, idx, rates in sim.segments:
            delivered[idx] += rates * dt
        assert delivered == pytest.approx(np.asarray(vols), rel=1e-9)

    def test_empty_path_flow_completes_at_time_zero(self):
        """A same-node flow (empty path) has rate inf and retires at
        t=0 instead of poisoning the remaining-volume arithmetic."""
        net, p01, _ = _net_and_paths()
        makespan, results = FluidSimulation(
            net, [np.empty(0, dtype=np.int64), p01], [1.0, 6.0]
        ).run()
        assert results[0].completion_time == 0.0
        assert results[0].initial_rate == np.inf
        assert makespan == pytest.approx(3.0)

    def test_solve_matches_run(self):
        net, pm = self._symmetric_pairing((4, 4))
        vols = [2.0] * len(pm)
        sim = FluidSimulation(net, pm, vols)
        makespan, completion, initial = sim.solve()
        makespan2, results = FluidSimulation(net, pm, vols).run()
        assert makespan == makespan2
        assert completion.tolist() == [
            r.completion_time for r in results
        ]
        assert initial.tolist() == [r.initial_rate for r in results]


class TestAgainstClosedForm:
    def test_pairing_time_is_volume_over_fair_rate(self):
        """For the symmetric pairing pattern, makespan = volume / rate."""
        t = Torus((8, 2))
        net = LinkNetwork(t, link_bandwidth=2.0)
        from repro.netsim.fairness import max_min_fair_rates
        from repro.netsim.traffic import bisection_pairing

        paths = [
            net.path_to_links(dimension_ordered_route(t, s, d))
            for s, d in bisection_pairing(t)
        ]
        rates = max_min_fair_rates(paths, net.capacities)
        vol = 3.0
        makespan = simulate_flows(net, paths, [vol] * len(paths))
        assert makespan == pytest.approx(vol / rates.min())


def _random_flows(seed, with_demands):
    """Batch-routed random flows on a random 1-D to 3-D torus; some
    sources equal their destinations, so some paths are empty."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(a) for a in rng.integers(2, 6, size=rng.integers(1, 4)))
    torus = Torus(dims)
    net = LinkNetwork(torus, link_bandwidth=float(rng.choice([1.0, 2.0, 3.5])))
    m = int(rng.integers(1, 25))
    src = rng.integers(0, torus.num_vertices, size=m)
    dst = rng.integers(0, torus.num_vertices, size=m)
    pm = batch_dimension_ordered_routes(torus, src, dst)
    volumes = rng.uniform(0.5, 4.0, size=m)
    demands = rng.uniform(0.2, 3.0, size=m) if with_demands else None
    return net, pm, volumes, demands


class TestAgainstOracle:
    """The engine equals the scalar loop bit for bit: makespan,
    completions, initial rates and ``rounds_used``."""

    def _assert_bitwise(self, net, paths, volumes, demands=None):
        sim = FluidSimulation(net, paths, volumes, demands)
        ref = ScalarFluidSimulation(net, paths, volumes, demands)
        makespan, completion, initial = sim.solve()
        ref_makespan, ref_completion, ref_initial = ref.solve()
        assert type(makespan) is float
        assert makespan == ref_makespan
        assert completion.tobytes() == ref_completion.tobytes()
        assert initial.tobytes() == ref_initial.tobytes()
        assert sim.rounds_used == ref.rounds_used
        return sim

    @pytest.mark.parametrize("with_demands", [False, True])
    @pytest.mark.parametrize("seed", range(16))
    def test_random_tori(self, seed, with_demands):
        self._assert_bitwise(*_random_flows(seed, with_demands))

    @pytest.mark.parametrize("demands", [None, [0.5, 4.0, 1.5, 0.25]])
    def test_empty_path_flows(self, demands):
        net, p01, p12 = _net_and_paths()
        empty = np.empty(0, dtype=np.int64)
        sim = self._assert_bitwise(
            net, [empty, p01, empty, p12], [1.0, 6.0, 2.0, 3.0], demands
        )
        assert sim.rounds_used >= 1

    def test_only_empty_paths(self):
        net, _, _ = _net_and_paths()
        empty = np.empty(0, dtype=np.int64)
        self._assert_bitwise(net, [empty, empty], [1.0, 2.0])

    def test_empty_flow_set(self):
        net, _, _ = _net_and_paths()
        sim = self._assert_bitwise(net, [], [])
        assert sim.rounds_used == 0

    def test_staggered_multi_round_volumes(self):
        net = LinkNetwork(Torus((8, 2)), link_bandwidth=2.0)
        from repro.experiments.pairing import pairing_path_matrix

        pm = pairing_path_matrix(net.topology)
        vols = [1.0 + 0.25 * i for i in range(len(pm))]
        sim = self._assert_bitwise(net, pm, vols)
        assert sim.rounds_used > 1

    def test_too_few_rounds_raise_in_both(self):
        net, p01, p12 = _net_and_paths()
        args = (net, [p01, p12, p01], [1.0, 5.0, 2.0])
        ref = ScalarFluidSimulation(*args)
        ref.solve()
        assert ref.rounds_used > 1
        match = r"did not converge within 1 rounds \(\d+ flows unfinished\)"
        for sim in (FluidSimulation(*args), ScalarFluidSimulation(*args)):
            with pytest.raises(RuntimeError, match=match):
                sim.solve(max_rounds=1)
