"""Unit tests for the fluid completion-time engine."""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.netsim.fluid import FluidSimulation, simulate_flows
from repro.netsim.network import LinkNetwork
from repro.netsim.routing import dimension_ordered_route
from repro.topology.torus import Torus


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
        """Sum of rate x dt segments equals each flow's volume."""
        net, pm = self._symmetric_pairing((8, 2))
        vols = [1.0 + 0.25 * i for i in range(len(pm))]
        sim = FluidSimulation(net, pm, vols, record_segments=True)
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
