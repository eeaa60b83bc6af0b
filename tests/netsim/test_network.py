"""Unit tests for the LinkNetwork directed-link model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim.batchroute import batch_dimension_ordered_routes
from repro.netsim.network import LinkNetwork
from repro.topology.clique_product import CliqueProduct
from repro.topology.torus import Torus


class TestConstruction:
    def test_two_directed_links_per_edge(self):
        t = Torus((4, 4))
        net = LinkNetwork(t)
        assert net.num_links == 2 * t.num_edges

    def test_capacity_scaling(self):
        net = LinkNetwork(Torus((4,)), link_bandwidth=2.0)
        assert np.all(net.capacities == 2.0)

    def test_weighted_topology_capacities(self):
        g = CliqueProduct((2, 2), weights=(1.0, 3.0))
        net = LinkNetwork(g, link_bandwidth=2.0)
        assert set(np.unique(net.capacities)) == {2.0, 6.0}

    def test_capacities_read_only(self):
        net = LinkNetwork(Torus((4,)))
        with pytest.raises(ValueError):
            net.capacities[0] = 5.0

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            LinkNetwork(Torus((4,)), link_bandwidth=0.0)


class TestLinkLookup:
    def test_link_id_roundtrip(self):
        net = LinkNetwork(Torus((4, 3)))
        for link in range(net.num_links):
            u, v = net.link_endpoints(link)
            assert net.link_id(u, v) == link

    def test_opposite_directions_distinct(self):
        net = LinkNetwork(Torus((4,)))
        a = net.link_id((0,), (1,))
        b = net.link_id((1,), (0,))
        assert a != b

    def test_nonadjacent_raises(self):
        net = LinkNetwork(Torus((4, 4)))
        with pytest.raises(KeyError):
            net.link_id((0, 0), (2, 0))


class TestPaths:
    def test_path_to_links(self):
        net = LinkNetwork(Torus((4,)))
        path = net.path_to_links([(0,), (1,), (2,)])
        assert len(path) == 2

    def test_empty_path(self):
        net = LinkNetwork(Torus((4,)))
        assert len(net.path_to_links([(0,)])) == 0
        assert len(net.path_to_links([])) == 0

    def test_load_accumulation(self):
        net = LinkNetwork(Torus((4,)))
        p = net.path_to_links([(0,), (1,), (2,)])
        load = net.load_of_flows([p, p], volumes=[1.0, 2.0])
        assert load[p[0]] == 3.0
        assert load.sum() == 6.0

    def test_weighted_load_pathmatrix_equals_list(self):
        torus = Torus((4, 3, 2))
        net = LinkNetwork(torus)
        n = torus.num_vertices
        src = np.repeat(np.arange(n), n)
        dst = np.tile(np.arange(n), n)
        pm = batch_dimension_ordered_routes(torus, src, dst)
        volumes = 0.1 + 0.37 * (np.arange(n * n) % 13)
        want = net.load_of_flows(list(pm), volumes=volumes.tolist())
        got = net.load_of_flows(pm, volumes=volumes)
        assert np.array_equal(got, want)

    def test_bottleneck_time(self):
        net = LinkNetwork(Torus((4,)), link_bandwidth=2.0)
        p = net.path_to_links([(0,), (1,)])
        # 6 GB over a 2 GB/s link -> 3 s.
        assert net.bottleneck_time([p], [6.0]) == pytest.approx(3.0)

    def test_bottleneck_no_flows(self):
        net = LinkNetwork(Torus((4,)))
        assert net.bottleneck_time([], []) == 0.0
