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


class EnteredVertices(list):
    """The search's coordinate table, counting the vertices it enters.

    ``_lexmin_shortest_links`` reads ``coords[dst]`` once and then
    ``coords[u]`` once per vertex it enters.  A vertex it enters is
    either a dead end or on the final stack, so when it returns a route,
    ``entered - len(route) - 1`` is its dead-end count.
    """

    def __init__(self, coords):
        super().__init__(coords)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    @property
    def entered(self) -> int:
        return self.reads - 1


def count_entered(monkeypatch, torus: Torus) -> EnteredVertices:
    coords, nbr, cuts = batchroute._search_tables(torus)
    table = EnteredVertices(coords)
    monkeypatch.setattr(
        batchroute, "_search_tables", lambda _: (table, nbr, cuts)
    )
    return table


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
    have a surviving path of healthy length, each equals the sweep's
    route link for link, and none comes near the dead-end budget."""
    torus = PartitionGeometry((2, 2, 2, 2)).bgq_network()
    table = count_entered(monkeypatch, torus)
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
    dead_ends = []
    dfs, sweep = _lexmin_shortest_links, _masked_bfs_sweep

    def counting_dfs(torus_, s, t, masked):
        reroutes.append((s, t))
        table.reads = 0
        links = dfs(torus_, s, t, masked)
        dead_ends.append(table.entered - len(links) - 1)
        return links

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
    assert max(dead_ends) < batchroute._DEAD_END_BUDGET // 4


class TestDeadEndBudget:
    """On the 8×8×8×8×2 torus the distance-cutting box of a far pair
    holds thousands of vertices; the search gives up after
    ``_DEAD_END_BUDGET`` dead ends and the sweep finds the route."""

    torus = PartitionGeometry((2, 2, 2, 2)).bgq_network()

    def rank(self, vertex) -> int:
        return int(np.ravel_multi_index(vertex, self.torus.dims))

    def cut_cables(self, vertex, keep=lambda n: False):
        return FaultSet(failed_links=[
            (vertex, n) for n, _ in self.torus.neighbors(vertex)
            if not keep(n)
        ])

    def check(self, monkeypatch, dst_vertex, faults):
        dst = self.rank(dst_vertex)
        mask = fault_link_mask(self.torus, faults)
        masked = set(np.flatnonzero(mask).tolist())
        table = count_entered(monkeypatch, self.torus)
        assert _lexmin_shortest_links(self.torus, 0, dst, masked) is None
        # Entered = dead ends + the final stack (at most the healthy
        # distance plus the source).
        budget = batchroute._DEAD_END_BUDGET
        healthy = healthy_distance(self.torus, 0, dst)
        assert budget < table.entered <= budget + healthy + 1
        got = masked_bfs_links(self.torus, 0, dst, mask)
        want = _masked_bfs_sweep(self.torus, 0, dst, mask)
        return got, want

    def test_isolated_antipode(self, monkeypatch):
        # The antipode has lost all nine cables: disconnected.
        antipode = self.torus.antipode((0, 0, 0, 0, 0))
        got, want = self.check(
            monkeypatch, antipode, self.cut_cables(antipode)
        )
        assert got is None and want is None

    def test_detour_around_cut_near_side(self, monkeypatch):
        # (4, 3, 3, 3, 1) keeps only its cables to farther vertices, so
        # the route detours by two hops.
        far = (4, 3, 3, 3, 1)
        d = healthy_distance(self.torus, 0, self.rank(far))
        got, want = self.check(monkeypatch, far, self.cut_cables(
            far,
            keep=lambda n: healthy_distance(self.torus, 0, self.rank(n)) > d,
        ))
        assert len(want) == d + 2
        assert got.tolist() == want.tolist()


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
