"""Batch route-cache warmup (:meth:`VirtualMpi.warm_routes`).

Prefetching a static communication pattern must (a) make every in-run
route lookup a cache hit and (b) cache exactly the paths the scalar
fault-aware router would have derived — on healthy and faulted
topologies and under ``REPRO_VECTOR=0`` alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import observability
from repro.faults import FaultSet
from repro.netsim.network import LinkNetwork
from repro.simmpi import SendRecv, VirtualMpi
from repro.simmpi.engine import _link_dim_table
from repro.topology import Torus
from tests.oracles.scalar_routes import scalar_links


def antipodal(rank, size):
    yield SendRecv(peer=(rank + size // 2) % size, gb=0.5)


def antipodal_pairs(size):
    return [(r, (r + size // 2) % size) for r in range(size)]


def counting_routes(monkeypatch):
    """Patch the engine's batch router to count its invocations."""
    import repro.simmpi.engine as engine_mod

    calls = {"n": 0}
    real = engine_mod.batch_fault_aware_routes

    def counted(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "batch_fault_aware_routes", counted)
    return calls


class TestWarmRoutes:
    def test_warmed_run_routes_nothing(self, monkeypatch):
        world = VirtualMpi(Torus((4, 4)), link_bandwidth=2.0)
        warmed = world.warm_routes(antipodal_pairs(world.size))
        assert warmed == world.size
        calls = counting_routes(monkeypatch)
        world.run(antipodal)
        assert calls["n"] == 0  # every route served from the warm cache

    def test_warmed_run_matches_cold_run(self):
        torus = Torus((4, 4))
        cold = VirtualMpi(torus, link_bandwidth=2.0).run(antipodal)
        warm_world = VirtualMpi(torus, link_bandwidth=2.0)
        warm_world.warm_routes(antipodal_pairs(warm_world.size))
        assert warm_world.run(antipodal) == cold

    def test_batch_paths_equal_scalar_paths(self, monkeypatch):
        torus = Torus((4, 3, 2))
        pairs = [(a, b) for a in range(6) for b in range(12, 18)]
        vec = VirtualMpi(torus)
        vec.warm_routes(pairs)
        monkeypatch.setenv("REPRO_VECTOR", "0")
        scal = VirtualMpi(torus)
        scal.warm_routes(pairs)
        assert set(vec._route_cache) == set(scal._route_cache)
        for key, path in vec._route_cache.items():
            assert path.tolist() == scal._route_cache[key].tolist()
            assert path.tolist() == scalar_links(torus, *key).tolist()

    def test_duplicates_and_cached_pairs_skipped(self):
        world = VirtualMpi(Torus((4, 4)))
        assert world.warm_routes([(0, 8), (0, 8), (1, 9)]) == 2
        assert world.warm_routes([(0, 8), (2, 10)]) == 1
        assert world.warm_routes([]) == 0

    def test_same_node_pair_caches_empty_path(self):
        world = VirtualMpi(Torus((4, 4)))
        assert world.warm_routes([(3, 3)]) == 1
        assert world._route_cache[(3, 3)].tolist() == []

    def test_out_of_range_rank_rejected(self):
        world = VirtualMpi(Torus((4, 4)))
        with pytest.raises(ValueError, match="out of range"):
            world.warm_routes([(0, 16)])
        with pytest.raises(ValueError, match="out of range"):
            world.warm_routes([(-1, 0)])

    def test_rank_to_node_dedupes_by_node(self):
        # Two ranks on one node: both pairs map to the same node key.
        world = VirtualMpi(Torus((4,)), rank_to_node=[0, 0, 1, 2])
        assert world.warm_routes([(0, 2), (1, 2)]) == 1

    def test_faulted_engine_warms_fault_aware_routes(self):
        ring = Torus((8,))
        faults = FaultSet(failed_links=[((1,), (2,))])
        world = VirtualMpi(ring, faults=faults)
        assert world.warm_routes([(0, 4)]) == 1
        assert (
            world._route_cache[(0, 4)].tolist()
            == scalar_links(ring, 0, 4, faults).tolist()
        )
        # The route detours the other way around the ring: different
        # links than the pristine natural route.
        pristine = VirtualMpi(ring)
        pristine.warm_routes([(0, 4)])
        assert (
            world._route_cache[(0, 4)].tolist()
            != pristine._route_cache[(0, 4)].tolist()
        )

    def test_scalar_env_knob_forces_scalar_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTOR", "0")
        torus = Torus((4, 4))
        world = VirtualMpi(torus)
        assert world.warm_routes(antipodal_pairs(world.size)) == 16
        for key, path in world._route_cache.items():
            assert path.tolist() == scalar_links(torus, *key).tolist()

    def test_warmed_counter_emitted(self):
        s = observability.OBS
        saved = (
            s.enabled, s.events, s.dropped_events, s.stack,
            s.span_totals, s.counters, s.gauges, s.origin,
        )
        s.enabled = False
        s.reset()
        try:
            observability.enable()
            world = VirtualMpi(Torus((4, 4)))
            world.warm_routes(antipodal_pairs(world.size))
            assert s.counters["simmpi.route_cache.warmed"] == 16.0
        finally:
            (
                s.enabled, s.events, s.dropped_events, s.stack,
                s.span_totals, s.counters, s.gauges, s.origin,
            ) = saved


class TestLinkDimTable:
    def test_memoized_across_engines(self):
        _link_dim_table.cache_clear()
        t = Torus((4, 3, 2))
        a = VirtualMpi(t)._link_dim_array()
        b = VirtualMpi(Torus((4, 3, 2)))._link_dim_array()
        assert a is b
        assert _link_dim_table.cache_info().hits >= 1

    def test_table_is_read_only(self):
        table = _link_dim_table(Torus((4, 2)))
        with pytest.raises(ValueError):
            table[0] = 0

    def test_table_matches_link_endpoints(self):
        t = Torus((4, 3, 2))
        world = VirtualMpi(t)
        table = world._link_dim_array()
        net = LinkNetwork(t)
        assert len(table) == net.num_links
        for link in range(net.num_links):
            u, v = net.link_endpoints(link)
            dim = next(i for i in range(len(u)) if u[i] != v[i])
            assert table[link] == dim

    def test_registered_with_cache_stats(self):
        from repro.caching import cache_stats

        assert _link_dim_table.cache.name in cache_stats()
