"""Unit tests for the CSR path container and the batch router."""

from __future__ import annotations

import numpy as np
import pytest

from repro import env
from repro.faults import FaultSet
from repro.netsim.batchroute import (
    PathMatrix,
    batch_dimension_ordered_routes,
    fault_link_mask,
    link_layout,
    vertex_indices,
)
from repro.netsim.fairness import max_min_fair_rates
from repro.netsim.network import LinkNetwork
from repro.netsim.routing import dimension_ordered_route
from repro.topology.torus import Torus


class TestPathMatrix:
    def test_from_paths_roundtrip(self):
        arrays = [[0, 1, 2], [], [5], [3, 4]]
        pm = PathMatrix.from_paths(arrays)
        assert len(pm) == 4
        assert pm.total_links == 6
        assert [p.tolist() for p in pm] == arrays
        assert pm.lengths.tolist() == [3, 0, 1, 2]

    def test_from_paths_on_pathmatrix_is_identity(self):
        pm = PathMatrix.from_paths([[0], [1]])
        assert PathMatrix.from_paths(pm) is pm

    def test_negative_index_and_bounds(self):
        pm = PathMatrix.from_paths([[0, 1], [2]])
        assert pm[-1].tolist() == [2]
        with pytest.raises(IndexError):
            pm[2]
        with pytest.raises(IndexError):
            pm[-3]

    def test_arrays_are_read_only(self):
        pm = PathMatrix.from_paths([[0, 1], [2]])
        with pytest.raises(ValueError):
            pm.link_ids[0] = 9
        with pytest.raises(ValueError):
            pm[0][0] = 9

    def test_flow_ids_align_with_link_ids(self):
        pm = PathMatrix.from_paths([[7, 8], [], [9]])
        assert pm.flow_ids().tolist() == [0, 0, 2]
        assert pm.link_ids.tolist() == [7, 8, 9]

    def test_empty(self):
        pm = PathMatrix.from_paths([])
        assert len(pm) == 0 and pm.total_links == 0
        assert list(pm) == []

    def test_invalid_offsets_rejected(self):
        with pytest.raises(ValueError):
            PathMatrix(np.array([1, 2]), np.array([0, 1]))  # wrong tail
        with pytest.raises(ValueError):
            PathMatrix(np.array([1, 2]), np.array([0, 2, 1, 2]))


class TestVectorEnabled:
    """No flag knob spelling turns the batch router off or changes it.

    The batch router once had an off switch; these cases keep the guard
    that it has none. Each sets every registered flag knob (``REPRO_CHECK``
    among them, which turns on the PathMatrix contract checks) to one
    spelling and checks that the all-pairs batch routes of a small torus
    still equal the scalar router's, link for link. How
    :func:`repro.env.get_flag` reads each spelling is tested in
    ``tests/test_env.py``.
    """

    _DIMS = (4, 3)

    @classmethod
    def _scalar_routes(cls):
        if not hasattr(cls, "_reference"):
            t = Torus(cls._DIMS)
            net = LinkNetwork(t)
            verts = list(t.vertices())
            cls._reference = [
                net.path_to_links(dimension_ordered_route(t, s, d)).tolist()
                for s in verts
                for d in verts
            ]
        return cls._reference

    def _assert_spelling_keeps_batch_router(self, monkeypatch, raw):
        for k in env.knobs():
            if k.kind != "flag":
                continue
            if raw is None:
                monkeypatch.delenv(k.name, raising=False)
            else:
                monkeypatch.setenv(k.name, raw)
        t = Torus(self._DIMS)
        n = t.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), n)
        dst = np.tile(np.arange(n, dtype=np.int64), n)
        pm = batch_dimension_ordered_routes(t, src, dst)
        assert isinstance(pm, PathMatrix)
        assert [p.tolist() for p in pm] == self._scalar_routes()

    @pytest.mark.parametrize("raw", ["0", "false", "no", "off", "OFF"])
    def test_falsey_disables(self, monkeypatch, raw):
        self._assert_spelling_keeps_batch_router(monkeypatch, raw)

    @pytest.mark.parametrize("raw", ["1", "true", "yes", "on", ""])
    def test_other_values_enable(self, monkeypatch, raw):
        self._assert_spelling_keeps_batch_router(monkeypatch, raw)

    def test_unset_enables(self, monkeypatch):
        self._assert_spelling_keeps_batch_router(monkeypatch, None)


class TestBatchRouterValidation:
    def test_length_mismatch(self):
        t = Torus((4, 2))
        with pytest.raises(ValueError, match="sources"):
            batch_dimension_ordered_routes(
                t, np.array([0, 1]), np.array([2])
            )

    def test_node_index_bounds(self):
        t = Torus((4, 2))
        with pytest.raises(ValueError, match="node indices"):
            batch_dimension_ordered_routes(
                t, np.array([0]), np.array([8])
            )

    def test_bad_dim_order(self):
        t = Torus((4, 2))
        with pytest.raises(ValueError, match="permutation"):
            batch_dimension_ordered_routes(
                t, np.array([0]), np.array([1]), dim_order=[0, 0]
            )

    def test_bad_tie(self):
        t = Torus((4, 2))
        with pytest.raises(ValueError):
            batch_dimension_ordered_routes(
                t, np.array([0]), np.array([1]), tie="coin-flip"
            )

    def test_no_flows(self):
        t = Torus((4, 2))
        pm = batch_dimension_ordered_routes(
            t, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert len(pm) == 0

    def test_same_node_pairs_have_empty_paths(self):
        t = Torus((4, 2))
        pm = batch_dimension_ordered_routes(
            t, np.array([3, 5]), np.array([3, 5])
        )
        assert pm.lengths.tolist() == [0, 0]


class TestExhaustiveRoutes:
    """Every (src, dst) pair of small tori, link for link vs the oracle.

    Rings of length 1 to 7 put every wrap position of the running-sum
    expansion (each source coordinate, both directions, exact-half ties)
    under test.
    """

    @pytest.mark.parametrize(
        "dims", [(7, 2, 1), (6, 3), (5, 1, 4), (2, 7), (3, 6, 2)]
    )
    @pytest.mark.parametrize("tie", ["parity", "positive"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_all_pairs_match_scalar_router(self, dims, tie, reverse):
        t = Torus(dims)
        net = LinkNetwork(t)
        verts = list(t.vertices())
        n = len(verts)
        order = list(range(t.ndim))[:: -1 if reverse else 1]
        src = np.repeat(np.arange(n, dtype=np.int64), n)
        dst = np.tile(np.arange(n, dtype=np.int64), n)
        pm = batch_dimension_ordered_routes(
            t, src, dst, dim_order=order, tie=tie
        )
        for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
            route = dimension_ordered_route(
                t, verts[s], verts[d], dim_order=order, tie=tie
            )
            assert pm[i].tolist() == net.path_to_links(route).tolist()


class TestVertexIndices:
    def test_matches_vertices_order(self):
        t = Torus((3, 2))
        verts = list(t.vertices())
        idx = vertex_indices(t, verts)
        assert idx.tolist() == list(range(len(verts)))

    def test_rejects_wrong_arity(self):
        t = Torus((3, 2))
        with pytest.raises(ValueError):
            vertex_indices(t, [(1, 1, 1)])

    def test_empty(self):
        t = Torus((3, 2))
        assert len(vertex_indices(t, [])) == 0


class TestFaultLinkMask:
    """Fault entries that name no link or vertex of the torus cannot
    block anything: the mask ignores them."""

    torus = Torus((4, 3))
    ignored = FaultSet(
        failed_links=[
            ((0, 0), (2, 0)),  # same ring, not adjacent
            ((0, 0), (1, 1)),  # differs in two dimensions
            ((0, 0), (4, 0)),  # endpoint outside the torus
            ((0, 0), (0, 0, 1)),  # wrong arity
        ],
        failed_nodes=[(7, 1), (0, 0, 0), (-1, 0)],
    )

    def test_entries_outside_the_torus_mark_nothing(self):
        assert not fault_link_mask(self.torus, self.ignored).any()

    def test_ignored_entries_leave_real_faults_alone(self):
        real = FaultSet(
            failed_links=[((0, 0), (1, 0))], failed_nodes=[(2, 2)]
        )
        both = FaultSet(
            failed_links=list(real.failed_links)
            + list(self.ignored.failed_links),
            failed_nodes=list(real.failed_nodes)
            + list(self.ignored.failed_nodes),
        )
        net = LinkNetwork(self.torus)
        want = [
            real.blocks(*net.link_endpoints(link))
            for link in range(net.num_links)
        ]
        # One cable (two directions) and the node's 4 + 4 links.
        assert sum(want) == 10
        assert fault_link_mask(self.torus, both).tolist() == want

    def test_numpy_int_node_counts_like_blocks(self):
        faults = FaultSet(failed_nodes=[(np.int64(2), np.int64(2))])
        net = LinkNetwork(self.torus)
        want = net.with_faults(faults).capacities == 0
        assert want.sum() == 8
        assert fault_link_mask(self.torus, faults).tolist() == want.tolist()


class TestLayoutMemoized:
    def test_layout_cache_hits(self):
        link_layout.cache_clear()
        a = link_layout(Torus((4, 3, 2)))
        b = link_layout(Torus((4, 3, 2)))
        assert a is b
        info = link_layout.cache_info()
        assert info.hits >= 1

    def test_registered_name(self):
        from repro.caching import cache_stats

        assert link_layout.cache.name in cache_stats()


class TestFairnessPathMatrixParity:
    """The CSR-native solver must be bit-identical to the list API."""

    def _pairing_case(self, dims):
        t = Torus(dims)
        net = LinkNetwork(t, link_bandwidth=2.0)
        n = t.num_vertices
        src = np.arange(n, dtype=np.int64)
        dst = np.array(
            [
                int(
                    vertex_indices(t, [t.antipode(v)])[0]
                )
                for v in t.vertices()
            ],
            dtype=np.int64,
        )
        pm = batch_dimension_ordered_routes(t, src, dst)
        return net, pm

    @pytest.mark.parametrize("dims", [(8, 4, 2), (4, 4), (5, 3, 2)])
    def test_pathmatrix_equals_list_of_arrays(self, dims):
        net, pm = self._pairing_case(dims)
        as_lists = [pm[i] for i in range(len(pm))]
        r_pm = max_min_fair_rates(pm, net.capacities)
        r_list = max_min_fair_rates(as_lists, net.capacities)
        assert np.array_equal(r_pm, r_list)

    def test_active_subset_matches_sliced_solve(self):
        net, pm = self._pairing_case((8, 4, 2))
        keep = np.arange(0, len(pm), 3, dtype=np.int64)
        r_subset = max_min_fair_rates(pm, net.capacities, active=keep)
        r_manual = max_min_fair_rates(
            [pm[int(i)] for i in keep], net.capacities
        )
        assert np.array_equal(r_subset, r_manual)

    def test_active_with_demands_uses_global_indexing(self):
        net, pm = self._pairing_case((4, 4))
        demands = np.linspace(0.1, 0.5, len(pm))
        keep = np.array([1, 5, 7], dtype=np.int64)
        r = max_min_fair_rates(
            pm, net.capacities, demands, active=keep
        )
        # Tiny demands are met exactly for a sparse subset.
        assert r == pytest.approx(demands[keep])

    def test_active_bounds_checked(self):
        net, pm = self._pairing_case((4, 4))
        with pytest.raises(ValueError, match="active"):
            max_min_fair_rates(
                pm, net.capacities, active=np.array([len(pm)])
            )

    def test_zero_capacity_error_names_global_flow(self):
        pm = PathMatrix.from_paths([[0], [1], [1]])
        caps = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match=r"flow 1 crosses failed"):
            max_min_fair_rates(pm, caps)
        with pytest.raises(ValueError, match=r"flow 2 crosses failed"):
            max_min_fair_rates(
                pm, caps, active=np.array([0, 2])
            )
