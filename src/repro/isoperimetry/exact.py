"""Exact edge-isoperimetric solvers for small graphs, from one cut table.

The solver scores *every* vertex subset, so it is limited to graphs of
at most 28 vertices.  It is the ground truth for Theorem 3.1 and the
Lemma 3.2/3.3 cuboids on small tori, for the paper's open conjecture (is
the bound optimal for *arbitrary* subsets? — :func:`conjecture_counterexample`)
and for exact small-set expansion.

Algorithm.  A subset is a bitmask over the densely indexed vertices.
Adding vertex ``h`` to a mask ``m < 2^h`` changes the perimeter by
``deg(h) - 2·w(h, m)``, with ``w(h, m)`` the capacity between ``h`` and
``m`` (a popcount of ``nbr(h) & m`` for unit weights).  So the masks in
``[2^h, 2^(h+1))`` are those of ``[0, 2^h)`` plus that offset (bit
doubling), and since ``w(h, m)`` sums over the bits of ``m`` it is a
row over the low 12 bits plus a column over the rest: one level is two
in-place broadcast adds, the whole table O(2^n) additions.

The stored table holds the ``2^(n-1)`` masks without the top vertex, as
``uint8`` for unit weights (a cut of a simple graph on ``n <= 28``
vertices is at most ``n²/4 = 196``, so wrapping adds end exact) or
``float64``, so peak memory is ``2^(n-1)`` × itemsize: 64 MB for the
27-vertex 3×3×3 torus.  The top vertex's masks are computed one
``2^12``-mask row at a time while scanning, and never stored.

One scan in ascending mask order serves every size: a fixed permutation
groups a row's masks by popcount (ascending within a group), and per size
the scan keeps the minimum perimeter and the *first* mask reaching it.
Gosper's hack visits same-size masks in ascending order, so witnesses and
ties are a per-subset enumeration's.  Weighted perimeters are summed in a
different order than edge by edge; they are exact for dyadic weights.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from .._validation import check_subset_size
from ..topology.base import Topology, Vertex

__all__ = [
    "ExactSolver",
    "exact_min_perimeter",
    "exact_isoperimetric_set",
    "exact_profile",
    "conjecture_counterexample",
]

#: Refuse to enumerate subsets of graphs larger than this.
MAX_BRUTE_FORCE_VERTICES = 28


def _bit_sums(coeffs: np.ndarray) -> np.ndarray:
    """``out[x] = sum_j coeffs[j]·bit_j(x)`` for all ``x < 2^len(coeffs)``,
    by doubling; unit coefficients give every ``x``'s popcount."""
    out = np.zeros(1 << len(coeffs), dtype=coeffs.dtype)
    for j, c in enumerate(coeffs):
        np.add(out[: 1 << j], c, out=out[1 << j : 2 << j])
    return out


class ExactSolver:
    """Exact edge-isoperimetric solver over a fixed topology.

    The first query builds the cut table and scans it once (see the
    module docstring): O(2^n) vectorized additions over ``2^(n-1)`` ×
    itemsize bytes of table.  The scan keeps every size's minimum and
    first witness, so later queries are lookups.  Edge weights are
    honoured, with an integer table when all weights equal 1.
    """

    def __init__(self, topo: Topology):
        n = topo.num_vertices
        if n > MAX_BRUTE_FORCE_VERTICES:
            raise ValueError(
                f"{topo.name} has {n} vertices; brute force is limited to "
                f"{MAX_BRUTE_FORCE_VERTICES}"
            )
        self._verts: list[Vertex] = list(topo.vertices())
        index = {v: i for i, v in enumerate(self._verts)}
        weight = np.zeros((n, n))
        self._uniform = True
        for i, v in enumerate(self._verts):
            for u, w in topo.neighbors(v):
                weight[i, index[u]] = w
                if w != 1.0:  # repro: allow-float-eq default weight is stored as exactly 1.0; uniformity is a stored-repr property
                    self._uniform = False
        self._dtype = np.uint8 if self._uniform else np.float64
        self._weight = weight.astype(np.int64) if self._uniform else weight
        self._degree = self._weight.sum(axis=1)
        self._n = n
        # A scan row is the masks sharing every bit above ``_low_bits``;
        # ``perm`` groups them by popcount, group j from ``starts[j]``.
        self._low_bits = min(12, max(n - 1, 0))
        sizes = _bit_sums(np.ones(self._low_bits, dtype=np.int64))
        self._perm = np.argsort(sizes, kind="stable")
        self._starts = np.searchsorted(sizes[self._perm], np.arange(self._low_bits + 1))
        self._best: tuple[np.ndarray, list[int]] | None = None
        self._expansion: np.ndarray | None = None

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def is_uniform(self) -> bool:
        """Whether all edge weights are 1 (cut weight == cut count)."""
        return self._uniform

    # ------------------------------------------------------------------ #

    def mask_to_set(self, mask: int) -> set[Vertex]:
        """Decode a bitmask into the corresponding vertex set."""
        return {v for i, v in enumerate(self._verts) if mask >> i & 1}

    def min_perimeter(self, t: int) -> tuple[float, set[Vertex]]:
        """Minimum perimeter over all subsets of size *t*, with a witness.

        Returns ``(cut, subset)``; the witness is the first subset in
        ascending bitmask order that reaches the minimum (deterministic).
        """
        t = check_subset_size(t, self._n)
        if self._best is None:
            best_cut = np.full(self._n + 1, np.inf)
            best_mask = [0] * (self._n + 1)
            for base, size, grouped in self._rows():
                mins = np.minimum.reduceat(grouped, self._starts)
                for j in np.flatnonzero(mins < best_cut[size : size + len(mins)]):
                    start = self._starts[j]
                    k = start + int(np.argmax(grouped[start:] == mins[j]))
                    best_cut[size + j] = mins[j]
                    best_mask[size + j] = base | int(self._perm[k])
            self._best = (best_cut, best_mask)
        return float(self._best[0][t]), self.mask_to_set(self._best[1][t])

    def small_set_expansion(self, t: int) -> float:
        """Exact small-set expansion ``h_t``: min over ``|A| <= t`` of
        ``cut(A) / (2·interior(A) + cut(A))``.

        For unweighted graphs the denominator is the total degree of
        ``A``; the weighted generalization uses capacities throughout.
        """
        t = check_subset_size(t, self._n)
        if self._expansion is None:
            degree = self._degree.astype(np.float64)
            low = _bit_sums(degree[: self._low_bits])[self._perm]
            high = _bit_sums(degree[self._low_bits :])
            best = np.full(self._n + 1, np.inf)
            ratio = np.empty(len(low))
            for base, size, grouped in self._rows():
                incident = low + high[base >> self._low_bits]
                ratio.fill(np.inf)
                np.divide(grouped, incident, out=ratio, where=incident > 0)
                seg = best[size : size + len(self._starts)]
                np.minimum(seg, np.minimum.reduceat(ratio, self._starts), out=seg)
            self._expansion = np.minimum.accumulate(best)
        return float(self._expansion[t])

    def _level(self, h: int) -> tuple[np.ndarray, np.ndarray]:
        """Perimeter change from adding vertex *h* to each mask below
        ``1 << h``: a low row plus a high column, in the table dtype."""
        coeffs = 2 * self._weight[h, :h]
        low = self._degree[h] - _bit_sums(coeffs[: self._low_bits])
        high = -_bit_sums(coeffs[self._low_bits :])
        return low.astype(self._dtype), high.astype(self._dtype)[:, None]

    def _rows(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """Build the table and yield ``(first mask, its popcount, row
        grouped by popcount)`` for every row, in ascending mask order."""
        top, bits = self._n - 1, self._low_bits
        table = np.zeros(1 << top, dtype=self._dtype)
        for h in range(top):
            low, high = self._level(h)
            dst = table[1 << h : 2 << h].reshape(len(high), -1)
            np.add(table[: 1 << h].reshape(len(high), -1), low, out=dst)
            np.add(dst, high, out=dst)
        rows = table.reshape(-1, 1 << bits)
        sizes = _bit_sums(np.ones(top - bits, dtype=np.int64))
        for r, row in enumerate(rows):
            yield r << bits, int(sizes[r]), row[self._perm]
        low, high = self._level(top)
        buf = np.empty(1 << bits, dtype=self._dtype)
        for r, row in enumerate(rows):
            np.add(row, low, out=buf)
            np.add(buf, high[r], out=buf)
            yield (1 << top) | (r << bits), int(sizes[r]) + 1, buf[self._perm]


def exact_min_perimeter(topo: Topology, t: int) -> float:
    """Minimum perimeter of any size-*t* subset of *topo* (brute force)."""
    return ExactSolver(topo).min_perimeter(t)[0]


def exact_isoperimetric_set(topo: Topology, t: int) -> set[Vertex]:
    """A minimum-perimeter subset of size *t* (brute force witness)."""
    return ExactSolver(topo).min_perimeter(t)[1]


def exact_profile(topo: Topology) -> dict[int, float]:
    """Exact isoperimetric profile: ``t -> min perimeter`` for all
    ``1 <= t <= |V| / 2``."""
    solver = ExactSolver(topo)
    return {
        t: solver.min_perimeter(t)[0]
        for t in range(1, topo.num_vertices // 2 + 1)
    }


def conjecture_counterexample(
    dims: Sequence[int],
) -> tuple[int, float, float] | None:
    """Probe the paper's open conjecture on one small torus.

    The conjecture (Section 3.1 / future work): the Theorem 3.1 lower
    bound holds for *arbitrary* subsets, not just cuboids.  This
    function scores every subset of the torus with the given dimensions
    once and compares, for every ``t <= |V|/2``, the true minimum
    perimeter against the bound.

    Note that arbitrary subsets *can* beat the best cuboid at sizes
    where the bound is not attained (a quasi-cuboid of 9 vertices in the
    5×4 torus has perimeter 10 < the best cuboid's 12) — that does not
    refute the conjecture, because the bound there is only 8.

    Requires every dimension to be at least 3 (proper cycles — the
    convention under which Equation 3 is stated; length-2 dimensions
    follow Harper's hypercube solution instead).

    Returns ``None`` if no counterexample is found (the conjecture holds
    for this torus), else ``(t, exact_min, bound)`` for the first ``t``
    where some subset has a strictly smaller perimeter than the bound.
    """
    from ..topology.torus import Torus
    from .bounds import torus_isoperimetric_bound

    torus = Torus(dims)
    if any(a < 3 for a in torus.dims):
        raise ValueError(
            "conjecture probing requires all dimensions >= 3 (got "
            f"{torus.dims}); Equation 3 is stated for proper cycles"
        )
    solver = ExactSolver(torus)
    for t in range(1, torus.num_vertices // 2 + 1):
        bound = torus_isoperimetric_bound(torus.dims, t).value
        exact, _ = solver.min_perimeter(t)
        if exact < bound - 1e-9:
            return (t, exact, bound)
    return None
