"""Per-subset Gosper enumeration oracle for the exact isoperimetric solver.

The scalar form of :class:`repro.isoperimetry.exact.ExactSolver`: vertices
are indexed densely, neighborhoods become bitmasks, a subset is one
``int``, and every subset of a size is visited in ascending mask order
with Gosper's hack (next integer with the same popcount).  Each subset's
perimeter and incident capacity are summed edge by edge in Python.

The vectorized cut table must match it exactly: the same minimum
perimeter, the same witness (the first mask reaching the minimum, in
ascending order) and the same small-set expansion.  Weighted values agree
bit for bit whenever the edge weights are dyadic (every partial sum is
exact in float64), as in every differential case.
"""

from __future__ import annotations

import math

from repro._validation import check_subset_size
from repro.topology.base import Topology, Vertex


def _gosper_next(x: int) -> int:
    """Next integer with the same popcount (Gosper's hack)."""
    c = x & -x
    r = x + c
    return (((r ^ x) >> 2) // c) | r


class GosperEnumerator:
    """Brute-force edge-isoperimetric solver, one subset at a time."""

    def __init__(self, topo: Topology):
        n = topo.num_vertices
        self._topo = topo
        self._verts: list[Vertex] = list(topo.vertices())
        self._index = {v: i for i, v in enumerate(self._verts)}
        self._nbr_masks: list[int] = [0] * n
        self._uniform = True
        weights: dict[tuple[int, int], float] = {}
        for v in self._verts:
            i = self._index[v]
            mask = 0
            for u, w in topo.neighbors(v):
                j = self._index[u]
                mask |= 1 << j
                weights[(i, j)] = w
                if w != 1.0:  # repro: allow-float-eq default weight is stored as exactly 1.0; uniformity is a stored-repr property
                    self._uniform = False
            self._nbr_masks[i] = mask
        self._weights = weights
        self._n = n

    def cut_of_mask(self, mask: int) -> float:
        """Perimeter (weighted) of the subset encoded by bitmask *mask*."""
        if self._uniform:
            total = 0
            m = mask
            while m:
                i = (m & -m).bit_length() - 1
                m &= m - 1
                total += (self._nbr_masks[i] & ~mask).bit_count()
            return float(total)
        total = 0.0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            outside = self._nbr_masks[i] & ~mask
            while outside:
                j = (outside & -outside).bit_length() - 1
                outside &= outside - 1
                total += self._weights[(i, j)]
        return total

    def mask_to_set(self, mask: int) -> set[Vertex]:
        """Decode a bitmask into the corresponding vertex set."""
        out: set[Vertex] = set()
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            out.add(self._verts[i])
        return out

    def min_perimeter(self, t: int) -> tuple[float, set[Vertex]]:
        """Minimum perimeter over all subsets of size *t*, with a witness.

        Returns ``(cut, subset)``; ties are broken by enumeration order
        (deterministic).
        """
        t = check_subset_size(t, self._n)
        best_cut = math.inf
        best_mask = 0
        mask = (1 << t) - 1
        limit = 1 << self._n
        while mask < limit:
            cut = self.cut_of_mask(mask)
            if cut < best_cut:
                best_cut = cut
                best_mask = mask
                if cut == 0:
                    break
            if mask == 0:
                break
            mask = _gosper_next(mask)
        return best_cut, self.mask_to_set(best_mask)

    def small_set_expansion(self, t: int) -> float:
        """Exact small-set expansion ``h_t``: min over ``|A| <= t`` of
        ``cut(A) / (2·interior(A) + cut(A))``.

        For unweighted graphs the denominator is the total degree of
        ``A``; the weighted generalization uses capacities throughout.
        """
        t = check_subset_size(t, self._n)
        best = math.inf
        for size in range(1, t + 1):
            mask = (1 << size) - 1
            limit = 1 << self._n
            while mask < limit:
                cut = self.cut_of_mask(mask)
                incident = self._incident_of_mask(mask)
                if incident > 0:
                    best = min(best, cut / incident)
                mask = _gosper_next(mask)
        return best

    def _incident_of_mask(self, mask: int) -> float:
        """Sum of weighted degrees of the subset (= 2·interior + cut)."""
        total = 0.0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            if self._uniform:
                total += self._nbr_masks[i].bit_count()
            else:
                nbrs = self._nbr_masks[i]
                while nbrs:
                    j = (nbrs & -nbrs).bit_length() - 1
                    nbrs &= nbrs - 1
                    total += self._weights[(i, j)]
        return total
