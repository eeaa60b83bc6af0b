"""Differential suite: the lex-min shortest-path DFS against the BFS sweep.

:func:`repro.netsim.batchroute.masked_bfs_links` first tries a
depth-first search over hops that cut the ring distance to the
destination (:func:`_lexmin_shortest_links`) and runs the level-by-level
masked BFS (:func:`_masked_bfs_sweep`) only when no surviving path has
the healthy length.  The DFS must therefore return exactly the BFS
route whenever it returns anything, and may return ``None`` only when
the BFS route is longer than the healthy distance or absent.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.geometry import PartitionGeometry
from repro.faults import FaultSet, random_link_failures
from repro.netsim import batchroute
from repro.netsim.batchroute import (
    _lexmin_shortest_links,
    _masked_bfs_sweep,
    batch_dimension_ordered_routes,
    batch_fault_aware_routes,
    fault_link_mask,
    link_layout,
    masked_bfs_links,
)
from repro.netsim.network import LinkNetwork
from repro.netsim.routing import fault_aware_route
from repro.topology.torus import Torus

# Length-1, length-2 and longer rings, up to four dimensions.
dims_strategy = st.lists(
    st.integers(min_value=1, max_value=6), min_size=1, max_size=4
).map(tuple).filter(lambda d: 2 <= math.prod(d) <= 96)


def healthy_distance(torus: Torus, src: int, dst: int) -> int:
    s = np.unravel_index(src, torus.dims)
    d = np.unravel_index(dst, torus.dims)
    return sum(
        min((int(b) - int(a)) % n, (int(a) - int(b)) % n)
        for a, b, n in zip(s, d, torus.dims)
    )


@st.composite
def masked_pairs(draw):
    """A torus, a random link mask (up to dense) with failed nodes, and
    a (src, dst) pair."""
    torus = Torus(draw(dims_strategy))
    n = torus.num_vertices
    n_links = n * link_layout(torus).degree
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 1 / 6, 0.35, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    verts = list(torus.vertices())
    dead = [
        verts[draw(st.integers(0, n - 1))]
        for _ in range(draw(st.integers(0, 2)))
    ]
    mask = (rng.random(n_links) < density) | fault_link_mask(
        torus, FaultSet(failed_nodes=dead)
    )
    src = draw(st.integers(0, n - 1))
    dst = draw(st.integers(0, n - 1))
    return torus, mask, src, dst


class TestDfsMatchesSweep:
    @given(masked_pairs())
    @settings(max_examples=400, deadline=None)
    def test_dfs_route_is_the_bfs_route(self, case):
        torus, mask, src, dst = case
        masked = set(np.flatnonzero(mask).tolist())
        dfs = _lexmin_shortest_links(torus, src, dst, masked)
        bfs = _masked_bfs_sweep(torus, src, dst, mask)
        healthy = healthy_distance(torus, src, dst)
        if dfs is None:
            assert bfs is None or len(bfs) > healthy
        else:
            assert bfs is not None
            assert dfs.tolist() == bfs.tolist()
            assert len(dfs) == healthy

    @given(masked_pairs())
    @settings(max_examples=150, deadline=None)
    def test_public_route_is_the_sweep_route(self, case):
        torus, mask, src, dst = case
        got = masked_bfs_links(torus, src, dst, mask)
        want = _masked_bfs_sweep(torus, src, dst, mask)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.tolist() == want.tolist()

    def test_healthy_mask_gives_a_shortest_route_from_every_source(self):
        torus = Torus((4, 3, 2))
        mask = np.zeros(
            torus.num_vertices * link_layout(torus).degree, dtype=bool
        )
        for src in range(torus.num_vertices):
            for dst in range(torus.num_vertices):
                dfs = _lexmin_shortest_links(torus, src, dst, set())
                assert len(dfs) == healthy_distance(torus, src, dst)
                assert (
                    dfs.tolist()
                    == _masked_bfs_sweep(torus, src, dst, mask).tolist()
                )


class TestWorkedExample:
    """4×4 torus, vertex (0, 0) to (1, 1), with the (0, 0)–(1, 0) cable
    failed.  Slots per vertex: 0 = dim 0 up, 1 = dim 0 down, 2 = dim 1
    up, 3 = dim 1 down; link id = rank · 4 + slot, rank = 4·x + y.

    Healthy, both two-hop routes tie and the lex-min one goes along
    dimension 0 first: slot 0 to (1, 0) = rank 4, then slot 2 (links
    0, 18).  With the cable cut, slot 0 out of (0, 0) is gone, and the
    lex-min survivor is slot 2 to (0, 1) = rank 1, then slot 0 (links
    2, 4) — still the healthy length, so the DFS finds it.
    """

    torus = Torus((4, 4))
    faults = FaultSet(failed_links=[((0, 0), (1, 0))])

    def test_healthy_route(self):
        pm = batch_dimension_ordered_routes(
            self.torus, np.array([0]), np.array([5])
        )
        assert pm[0].tolist() == [0, 18]

    def test_rerouted_route(self):
        mask = fault_link_mask(self.torus, self.faults)
        assert np.flatnonzero(mask).tolist() == [0, 17]
        assert _lexmin_shortest_links(self.torus, 0, 5, {0, 17}).tolist() == [
            2,
            4,
        ]
        pm, cut = batch_fault_aware_routes(
            self.torus, np.array([0]), np.array([5]), self.faults
        )
        assert pm[0].tolist() == [2, 4] and cut.size == 0
        scalar = fault_aware_route(self.torus, (0, 0), (1, 1), self.faults)
        assert scalar == [(0, 0), (0, 1), (1, 1)]
        assert LinkNetwork(self.torus).path_to_links(scalar).tolist() == [2, 4]

    def test_detour_falls_back_to_the_sweep(self):
        # Cutting both first hops of the healthy-length routes leaves
        # only detours: the DFS gives up and the sweep finds one.
        mask = fault_link_mask(
            self.torus,
            FaultSet(failed_links=[((0, 0), (1, 0)), ((0, 0), (0, 1))]),
        )
        masked = set(np.flatnonzero(mask).tolist())
        assert _lexmin_shortest_links(self.torus, 0, 5, masked) is None
        route = masked_bfs_links(self.torus, 0, 5, mask)
        assert len(route) == 4
        assert route.tolist() == _masked_bfs_sweep(
            self.torus, 0, 5, mask
        ).tolist()


def test_fault_sweep_reroutes_all_take_the_dfs(monkeypatch):
    """The e2e ``fault_sweep`` grid (Mira's 2×2×2×2 midplanes, node
    torus 8×8×8×8×2, K = 0..4, 12 trials, seed 0): all 464 reroutes
    have a surviving path of healthy length, and each equals the sweep's
    route link for link."""
    torus = PartitionGeometry((2, 2, 2, 2)).bgq_network()
    assert torus.dims == (8, 8, 8, 8, 2)
    edges = [(u, v) for u, v, _ in torus.edges()]
    src = np.arange(torus.num_vertices, dtype=np.int64)
    d = np.asarray(torus.dims)
    coords = np.stack(np.unravel_index(src, torus.dims), axis=1)
    dst = np.ravel_multi_index(
        tuple(((coords + d // 2) % d).T), torus.dims
    ).astype(np.int64)
    healthy = batch_dimension_ordered_routes(torus, src, dst)

    reroutes = []
    fallbacks = []
    dfs, sweep = _lexmin_shortest_links, _masked_bfs_sweep

    def counting_dfs(torus_, s, t, masked):
        reroutes.append((s, t))
        return dfs(torus_, s, t, masked)

    def counting_sweep(*args):
        fallbacks.append(args[1:3])
        return sweep(*args)

    monkeypatch.setattr(batchroute, "_lexmin_shortest_links", counting_dfs)
    monkeypatch.setattr(batchroute, "_masked_bfs_sweep", counting_sweep)
    for k in range(5):
        for t in range(1 if k == 0 else 12):
            faults = random_link_failures(
                torus, k, seed=1000 * k + t, edges=edges
            )
            before = len(reroutes)
            pm, cut = batch_fault_aware_routes(
                torus, src, dst, faults, healthy=healthy
            )
            assert cut.size == 0
            if k == 0:
                continue
            mask = fault_link_mask(torus, faults)
            for s, t_ in reroutes[before:]:
                want = sweep(torus, s, t_, mask)
                assert pm[s].tolist() == want.tolist()
    assert len(reroutes) == 464
    assert fallbacks == []


@pytest.mark.parametrize("dims", [(1,), (1, 1), (2,), (2, 1)])
def test_degenerate_tori(dims):
    torus = Torus(dims)
    n = torus.num_vertices
    mask = np.zeros(n * link_layout(torus).degree, dtype=bool)
    for src in range(n):
        for dst in range(n):
            got = masked_bfs_links(torus, src, dst, mask)
            want = _masked_bfs_sweep(torus, src, dst, mask)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.tolist() == want.tolist()
