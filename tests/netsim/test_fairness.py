"""Unit tests for max-min fair rate allocation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim.fairness import max_min_fair_rates


def _paths(*lists):
    return [np.asarray(p, dtype=np.int64) for p in lists]


class TestBasicSharing:
    def test_two_flows_share_one_link(self):
        rates = max_min_fair_rates(_paths([0], [0]), np.array([2.0]))
        assert np.allclose(rates, [1.0, 1.0])

    def test_single_flow_gets_capacity(self):
        rates = max_min_fair_rates(_paths([0, 1]), np.array([3.0, 5.0]))
        assert rates[0] == pytest.approx(3.0)

    def test_disjoint_flows_independent(self):
        rates = max_min_fair_rates(
            _paths([0], [1]), np.array([1.0, 4.0])
        )
        assert np.allclose(rates, [1.0, 4.0])

    def test_empty_path_unconstrained(self):
        rates = max_min_fair_rates(_paths([], [0]), np.array([2.0]))
        assert rates[0] == np.inf
        assert rates[1] == pytest.approx(2.0)

    def test_no_flows(self):
        assert len(max_min_fair_rates([], np.array([1.0]))) == 0


class TestWaterFilling:
    def test_classic_three_flow_example(self):
        """Flows A: link0, B: link0+link1, C: link1 with caps (1, 2):
        A and B share link0 at 0.5 each; C then gets 1.5 on link1."""
        rates = max_min_fair_rates(
            _paths([0], [0, 1], [1]), np.array([1.0, 2.0])
        )
        assert np.allclose(rates, [0.5, 0.5, 1.5])

    def test_long_flow_bottlenecked_once(self):
        # A long path through many links is limited by the tightest one.
        rates = max_min_fair_rates(
            _paths([0, 1, 2]), np.array([5.0, 1.0, 9.0])
        )
        assert rates[0] == pytest.approx(1.0)

    def test_rates_saturate_some_link(self):
        paths = _paths([0], [0, 1], [1], [1])
        caps = np.array([2.0, 3.0])
        rates = max_min_fair_rates(paths, caps)
        load = np.zeros(2)
        for p, r in zip(paths, rates):
            load[p] += r
        assert np.any(np.isclose(load, caps))
        assert np.all(load <= caps + 1e-9)

    def test_max_min_dominance(self):
        """No flow can be raised without lowering a slower one (spot
        check: the minimum rate is maximal)."""
        paths = _paths([0], [0, 1], [1])
        caps = np.array([1.0, 2.0])
        rates = max_min_fair_rates(paths, caps)
        assert rates.min() == pytest.approx(0.5)


class TestDemands:
    def test_demand_caps_rate(self):
        rates = max_min_fair_rates(
            _paths([0]), np.array([10.0]), demands=[3.0]
        )
        assert rates[0] == pytest.approx(3.0)

    def test_freed_capacity_redistributed(self):
        # Two flows on one 4-capacity link; one capped at 1 -> other gets 3.
        rates = max_min_fair_rates(
            _paths([0], [0]), np.array([4.0]), demands=[1.0, 10.0]
        )
        assert np.allclose(sorted(rates), [1.0, 3.0])

    def test_demand_validation(self):
        with pytest.raises(ValueError):
            max_min_fair_rates(_paths([0]), np.array([1.0]), demands=[0.0])
        with pytest.raises(ValueError):
            max_min_fair_rates(
                _paths([0]), np.array([1.0]), demands=[1.0, 2.0]
            )


class TestValidation:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            max_min_fair_rates(_paths([0]), np.array([0.0]))

    def test_rejects_nan_input(self, monkeypatch):
        # The eager checks, not the REPRO_CHECK contract (which reports
        # NaN capacities as a ContractError first).
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        paths = _paths([0], [1])
        with pytest.raises(ValueError, match="non-negative"):
            max_min_fair_rates(paths, np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="demands must be positive"):
            max_min_fair_rates(
                paths, np.array([1.0, 1.0]), demands=[np.nan, 1.0]
            )


class TestSymmetricPatterns:
    def test_ring_antipodal_rates_uniform(self):
        """Every flow in the symmetric pairing pattern gets the same
        max-min rate."""
        from repro.netsim.network import LinkNetwork
        from repro.netsim.routing import dimension_ordered_route
        from repro.netsim.traffic import bisection_pairing
        from repro.topology.torus import Torus

        t = Torus((8, 4, 2))
        net = LinkNetwork(t, link_bandwidth=2.0)
        paths = [
            net.path_to_links(dimension_ordered_route(t, s, d))
            for s, d in bisection_pairing(t)
        ]
        rates = max_min_fair_rates(paths, net.capacities)
        assert rates.max() == pytest.approx(rates.min())
