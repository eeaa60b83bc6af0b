"""Unit tests for the brute-force exact solver and conjecture probing."""

from __future__ import annotations

import pytest

from repro.isoperimetry.cuboids import best_cuboid
from repro.isoperimetry.exact import (
    ExactSolver,
    conjecture_counterexample,
    exact_isoperimetric_set,
    exact_min_perimeter,
    exact_profile,
)
from repro.topology.clique_product import CliqueProduct
from repro.topology.torus import Torus


class TestExactSolver:
    def test_ring_arc_perimeter(self):
        t = Torus((8,))
        solver = ExactSolver(t)
        for size in range(1, 5):
            cut, witness = solver.min_perimeter(size)
            assert cut == 2
            assert len(witness) == size

    def test_witness_achieves_cut(self, small_torus):
        solver = ExactSolver(small_torus)
        cut, witness = solver.min_perimeter(5)
        assert small_torus.cut_weight(witness) == cut

    def test_full_set_zero_perimeter(self):
        t = Torus((4,))
        cut, _ = ExactSolver(t).min_perimeter(4)
        assert cut == 0

    def test_too_large_graph_rejected(self):
        with pytest.raises(ValueError):
            ExactSolver(Torus((6, 5)))

    def test_size_validation(self, small_torus):
        solver = ExactSolver(small_torus)
        with pytest.raises(ValueError):
            solver.min_perimeter(0)
        with pytest.raises(ValueError):
            solver.min_perimeter(25)

    def test_exact_profile_halves(self):
        prof = exact_profile(Torus((4, 2)))
        assert set(prof) == {1, 2, 3, 4}
        assert prof[4] == 4.0  # bisection of the 4x2 torus

    def test_matches_cuboid_optimum_on_torus(self, small_torus):
        """On small tori the global optimum equals the best cuboid
        (evidence for the paper's conjecture)."""
        solver = ExactSolver(small_torus)
        for t in (2, 4, 6, 12):
            exact, _ = solver.min_perimeter(t)
            _, cub = best_cuboid(small_torus.dims, t)
            assert exact == cub, t

    def test_weighted_graph_path(self):
        g = CliqueProduct((2, 2), weights=(1.0, 3.0))
        solver = ExactSolver(g)
        assert not solver.is_uniform
        cut, witness = solver.min_perimeter(2)
        # Best pair joins the expensive (weight 3) edge, cutting the two
        # row edges (weight 1 each) x2 vertices = 2.0.
        assert cut == 2.0

    def test_largest_unit_cut(self):
        """K24's bisection cuts 12 x 12 = 144 edges: every unit-weight cut
        on at most 28 vertices (at most 28²/4) fits the uint8 table."""
        g = CliqueProduct((24,))
        cut, witness = ExactSolver(g).min_perimeter(12)
        assert cut == 144.0
        assert witness == set(list(g.vertices())[:12])  # the first mask

    def test_uniform_fast_path_flag(self, small_torus):
        assert ExactSolver(small_torus).is_uniform

    def test_small_set_expansion_single_vertex(self):
        t = Torus((4, 4))
        h1 = ExactSolver(t).small_set_expansion(1)
        assert h1 == 1.0

    def test_small_set_expansion_decreases(self):
        t = Torus((4, 2))
        s = ExactSolver(t)
        h1 = s.small_set_expansion(1)
        h4 = s.small_set_expansion(4)
        assert h4 <= h1

    def test_convenience_wrappers(self, small_torus):
        cut = exact_min_perimeter(small_torus, 4)
        witness = exact_isoperimetric_set(small_torus, 4)
        assert small_torus.cut_weight(witness) == cut


class TestConjecture:
    @pytest.mark.parametrize(
        "dims",
        [(4, 3), (5, 4), (4, 4), (3, 3), (6, 4), (5, 3), (6, 3), (7, 3), (8, 3)],
    )
    def test_no_counterexample_on_small_tori(self, dims):
        """The paper conjectures the Theorem 3.1 bound holds for
        arbitrary subsets; verify no small torus refutes it (every 2-D
        torus with all dimensions >= 3 and at most 24 vertices)."""
        assert conjecture_counterexample(dims) is None

    def test_3d_torus(self):
        assert conjecture_counterexample((3, 3, 3)) is None

    def test_rejects_length_two_dims(self):
        with pytest.raises(ValueError):
            conjecture_counterexample((4, 2))
