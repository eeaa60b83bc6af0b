"""Differential suite: the column-wise batch router against the scalar
oracle (``tests/oracles/scalar_routes.py``), link for link.

:func:`repro.netsim.batchroute.batch_dimension_ordered_routes` fills one
column per live (length > 1) dimension of its segment planes, in
emission order, and expands the segments with two in-place running
sums.  It compacts away zero-hop segments only when some exist: the
all-pairs cases below (``src == dst`` flows, flows that need no hop in
some dimension) take the compacting branch, the antipodal cases on tori
without length-1 dimensions the branch that skips it.  The in-place
form that routes a scenario straight into its span of a stacked plane
must equal :meth:`StackedPathMatrix.from_scenarios` stacking.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.netsim.batchroute import (
    _route_links,
    batch_dimension_ordered_routes,
)
from repro.netsim.network import LinkNetwork
from repro.netsim.stacked import StackedPathMatrix
from repro.topology.torus import Torus
from tests.oracles.scalar_routes import scalar_ordered_links

TIES = ("parity", "positive")
# Length-1 and length-2 dimensions among odd and even rings.
ALL_PAIRS_TORI = [(5,), (2, 3), (3, 1, 4), (1, 2, 2), (4, 2, 1, 3)]
ANTIPODAL_TORI = [(6,), (4, 3), (2, 5, 4), (3, 2, 2, 4)]


def _check(torus: Torus, src, dst, tie: str) -> None:
    for order in itertools.permutations(range(torus.ndim)):
        pm = batch_dimension_ordered_routes(torus, src, dst, order, tie)
        want = scalar_ordered_links(torus, src, dst, order, tie)
        assert [p.tolist() for p in pm] == want, (torus.dims, order, tie)


@pytest.mark.parametrize("tie", TIES)
@pytest.mark.parametrize("dims", ALL_PAIRS_TORI, ids=str)
def test_all_pairs_every_dim_order(dims, tie):
    torus = Torus(dims)
    src, dst = np.divmod(np.arange(torus.num_vertices ** 2),
                         torus.num_vertices)
    _check(torus, src, dst, tie)


@pytest.mark.parametrize("tie", TIES)
@pytest.mark.parametrize("dims", ANTIPODAL_TORI, ids=str)
def test_antipodal_every_dim_order(dims, tie):
    torus = Torus(dims)
    verts = list(torus.vertices())
    index = {v: i for i, v in enumerate(verts)}
    dst = [index[torus.antipode(v)] for v in verts]
    pm = batch_dimension_ordered_routes(
        torus, np.arange(len(verts)), dst, tie=tie
    )
    # Every segment is live: each route is exactly the diameter.
    assert set(pm.lengths.tolist()) == {torus.diameter}
    _check(torus, np.arange(len(verts)), dst, tie)


def test_torus_without_live_dimensions():
    pm = batch_dimension_ordered_routes(Torus((1, 1)), [0, 0], [0, 0])
    assert pm.offsets.tolist() == [0, 0, 0]


def test_in_place_fill_at_link_base_matches_from_scenarios():
    rng = np.random.default_rng(7)
    cases = []
    for dims, tie in (((4, 3, 2), "parity"), ((2, 1, 5), "positive"),
                      ((3, 3), "parity")):
        torus = Torus(dims)
        n = torus.num_vertices
        src, dst = rng.integers(0, n, size=(2, 3 * n))
        dst[:n] = src[:n]  # hopless flows between routed ones
        cases.append((torus, src, dst, tie))
    ref = StackedPathMatrix.from_scenarios([
        (batch_dimension_ordered_routes(t, s, d, tie=tie),
         LinkNetwork(t).capacities, None)
        for t, s, d, tie in cases
    ])
    link_ids = np.full(len(ref.link_ids), -1, dtype=np.int64)
    for k, (torus, src, dst, tie) in enumerate(cases):
        f0, f1 = ref.flow_base[k], ref.flow_base[k + 1]
        e0, e1 = ref.offsets[f0], ref.offsets[f1]
        out, offsets = _route_links(
            torus, src, dst, tie=tie, out=link_ids[e0:e1],
            base=int(ref.link_base[k]),
        )
        assert np.shares_memory(out, link_ids)
        np.testing.assert_array_equal(
            offsets + e0, ref.offsets[f0 : f1 + 1]
        )
    np.testing.assert_array_equal(link_ids, ref.link_ids)


def test_in_place_fill_rejects_a_wrong_span():
    torus = Torus((4, 4))
    src = np.arange(16)
    dst = (src + 5) % 16
    need = batch_dimension_ordered_routes(torus, src, dst).total_links
    for size in (need - 1, need + 1):
        with pytest.raises(ValueError, match="span"):
            _route_links(torus, src, dst,
                         out=np.empty(size, dtype=np.int64))
