"""Cross-validation: independent code paths must agree.

These tests pit different implementations of the same quantity against
each other — the strongest correctness signal available without the
original hardware.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.geometry import PartitionGeometry
from repro.isoperimetry.cuboids import best_cuboid
from repro.netsim.fairness import max_min_fair_rates
from repro.netsim.fluid import simulate_flows
from repro.netsim.network import LinkNetwork
from repro.netsim.routing import dimension_ordered_route
from repro.netsim.schedule import RouteCache, TransferRound, simulate_rounds
from repro.netsim.traffic import bisection_pairing
from repro.topology.torus import Torus

# Midplane geometries of at most 8 midplanes, one per rotation class.
SMALL_GEOMETRIES = [
    dims
    for dims in itertools.product(range(1, 5), repeat=4)
    if list(dims) == sorted(dims, reverse=True) and math.prod(dims) <= 8
]


class TestCutComputations:
    """Four independent ways to compute a partition bisection agree."""

    @pytest.mark.parametrize(
        "dims", [(2, 2, 1, 1), (4, 1, 1, 1), (3, 2, 1, 1)]
    )
    def test_four_way_agreement(self, dims):
        geo = PartitionGeometry(dims)
        torus = geo.network()
        # 1. Closed form 256 P / A1.
        formula = 256 * geo.num_midplanes // geo.longest_dim
        # 2. Perpendicular-cut rule on the node torus.
        perp = torus.bisection_width()
        # 3. Exhaustive cuboid optimization at half size.
        _, cuboid = best_cuboid(torus.dims, torus.num_vertices // 2)
        # 4. Explicit halfspace cut weight.
        k, _ = torus.best_perpendicular_bisection()
        explicit = torus.cut_weight(torus.halfspace(k))
        assert formula == perp == cuboid == explicit

    def test_networkx_agreement(self):
        import networkx as nx

        torus = PartitionGeometry((2, 1, 1, 1)).network()
        k, _ = torus.best_perpendicular_bisection()
        half = torus.halfspace(k)
        g = torus.to_networkx()
        assert nx.cut_size(g, half) == torus.bisection_width()


class TestContentionModels:
    """Fluid and bottleneck models agree on synchronized patterns."""

    @pytest.mark.parametrize("dims", [(8, 4, 2), (6, 4, 4)])
    def test_fluid_equals_bottleneck_for_pairing(self, dims):
        torus = Torus(dims)
        net = LinkNetwork(torus, link_bandwidth=2.0)
        pairs = bisection_pairing(torus)
        paths = [
            net.path_to_links(dimension_ordered_route(torus, s, d))
            for s, d in pairs
        ]
        vol = 3.0
        fluid = simulate_flows(net, paths, [vol] * len(paths))
        bottleneck = net.bottleneck_time(paths, [vol] * len(paths))
        assert fluid == pytest.approx(bottleneck)

    def test_schedule_round_equals_bottleneck(self):
        torus = Torus((8, 2))
        net = LinkNetwork(torus, link_bandwidth=2.0)
        cache = RouteCache(net, torus)
        pairs = bisection_pairing(torus)
        verts = list(torus.vertices())
        idx = {v: i for i, v in enumerate(verts)}
        rnd = TransferRound(
            tuple(idx[s] for s, _ in pairs),
            tuple(idx[d] for _, d in pairs),
            1.0,
        )
        total, _ = simulate_rounds(cache, [rnd])
        paths = [
            net.path_to_links(dimension_ordered_route(torus, s, d))
            for s, d in pairs
        ]
        assert total == pytest.approx(
            net.bottleneck_time(paths, [1.0] * len(paths))
        )

    def test_fairness_rate_times_volume_bounds_fluid(self):
        """For equal volumes the fluid makespan equals volume over the
        minimum max-min rate (flows finish in rate order)."""
        torus = Torus((6, 2))
        net = LinkNetwork(torus, link_bandwidth=1.0)
        pairs = bisection_pairing(torus)
        paths = [
            net.path_to_links(dimension_ordered_route(torus, s, d))
            for s, d in pairs
        ]
        rates = max_min_fair_rates(paths, net.capacities)
        fluid = simulate_flows(net, paths, [2.0] * len(paths))
        assert fluid <= 2.0 / rates.min() + 1e-9


class TestModelVsTheory:
    def test_pairing_rate_from_bisection_formula(self):
        """Per-flow pairing rate = 2 * bisection_GBps / N, the per-node
        bisection share the paper reasons with."""
        for dims in [(4, 1, 1, 1), (2, 2, 1, 1), (3, 2, 1, 1)]:
            geo = PartitionGeometry(dims)
            torus = geo.bgq_network()
            net = LinkNetwork(torus, link_bandwidth=2.0)
            paths = [
                net.path_to_links(dimension_ordered_route(torus, s, d))
                for s, d in bisection_pairing(torus)
            ]
            rates = max_min_fair_rates(paths, net.capacities)
            expected = (
                2.0 * geo.normalized_bisection_bandwidth * 2.0
                / geo.num_nodes
            )
            assert rates.min() == pytest.approx(expected), dims

    @given(
        dims=st.sampled_from(SMALL_GEOMETRIES),
        ranks=st.sampled_from([7, 49, 98, 196, 343, 686, 1372, 2401, 4802]),
        multiple=st.integers(1, 48),
    )
    @settings(max_examples=40, deadline=None)
    def test_contention_bound_is_a_true_lower_bound(
        self, dims, ranks, multiple
    ):
        """The Ballard-et-al contention floor never exceeds a simulated
        CAPS communication time for the same volume, on any small
        partition geometry (default rounds schedule and embedding)."""
        from repro.analysis.contention import caps_contention
        from repro.experiments.matmul import run_caps_on_geometry

        geo = PartitionGeometry(dims)
        # 196 = 4 * 7^2: n divides evenly for f <= 4 and k <= 4.
        n = 196 * multiple
        bound = caps_contention(geo, ranks, n).bound_seconds
        sim = run_caps_on_geometry(
            geo, num_ranks=ranks, matrix_dim=n
        ).communication_time
        assert bound <= sim * (1.0 + 1e-12)
