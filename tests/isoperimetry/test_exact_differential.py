"""The vectorized cut table against the per-subset Gosper oracle.

``ExactSolver`` scores every subset from one bit-doubled table; the
oracle (``tests/oracles/exact_enumeration.py``) enumerates each size with
Gosper's hack and sums each subset's cut edge by edge.  They must agree
exactly: the minimum perimeter, the witness vertex set (the first mask
in ascending order that reaches the minimum) and the small-set expansion.

Every size is compared on graphs of at most 16 vertices.  Above that,
sizes ``t <= n/2`` are compared and the small-set expansion is left to
the smaller graphs: the oracle's ``h_t`` re-enumerates every size up to
``t``, which costs seconds per call at 20 vertices.
"""

from __future__ import annotations

import pytest

from repro.isoperimetry.exact import ExactSolver
from repro.topology.clique_product import CliqueProduct
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus
from tests.oracles.exact_enumeration import GosperEnumerator

MAX_TORUS_VERTICES = 20
ALL_SIZES_VERTICES = 16


def _torus_dims(limit: int) -> list[tuple[int, ...]]:
    """Every torus shape (non-increasing dims, each >= 2) of at most
    *limit* vertices."""
    shapes = []
    for a in range(2, limit + 1):
        shapes.append((a,))
        shapes.extend(
            (a,) + rest for rest in _torus_dims(limit // a) if rest[0] <= a
        )
    return sorted(shapes)


def _assert_matches_oracle(topo) -> None:
    solver, oracle = ExactSolver(topo), GosperEnumerator(topo)
    n = topo.num_vertices
    sizes = range(1, (n if n <= ALL_SIZES_VERTICES else n // 2) + 1)
    for t in sizes:
        assert solver.min_perimeter(t) == oracle.min_perimeter(t), t
    if n <= ALL_SIZES_VERTICES:
        for t in range(1, n // 2 + 1):
            assert solver.small_set_expansion(t) == oracle.small_set_expansion(t), t


@pytest.mark.parametrize(
    "dims", _torus_dims(MAX_TORUS_VERTICES), ids=lambda d: "x".join(map(str, d))
)
def test_every_small_torus(dims):
    _assert_matches_oracle(Torus(dims))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hypercube(d):
    _assert_matches_oracle(Hypercube(d))


@pytest.mark.parametrize(
    "topo",
    [
        CliqueProduct((3, 2)),
        CliqueProduct((3, 3)),
        CliqueProduct((2, 2), weights=(1.0, 3.0)),
        CliqueProduct((3, 2), weights=(0.5, 2.0)),
        Mesh((4, 3)),
    ],
    ids=["K3xK2", "K3xK3", "K2xK2-w1-3", "K3xK2-w0.5-2", "mesh4x3"],
)
def test_other_families(topo):
    _assert_matches_oracle(topo)
