"""Weighted edge-isoperimetric analysis.

Section 5 of the paper points out that several practically relevant
networks need a *weighted* formulation of the edge-isoperimetric problem:

* low-dimensional tori such as Titan's 3-D torus, where dimensions may be
  provisioned with different link capacities;
* Dragonfly groups ``K_16 × K_6`` whose ``K_6`` links carry 3× the
  capacity, with inter-group links at 4×.

This module provides the weighted generalization of the cuboid machinery
of :mod:`repro.isoperimetry.cuboids` (per-dimension link capacities on a
torus), and weighted clique-product segment evaluation for Dragonfly-like
groups.  The brute-force oracle in :mod:`repro.isoperimetry.exact`
already honours weights, and the test-suite checks these functions
against it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .._validation import check_dims, check_subset_size
from .cuboids import _per_line_cut

__all__ = [
    "weighted_cuboid_perimeter",
    "best_weighted_cuboid",
    "weighted_torus_bisection",
    "dragonfly_group_cut",
]


def _check_weights(
    weights: Sequence[float] | None, ndim: int
) -> tuple[float, ...]:
    if weights is None:
        return (1.0,) * ndim
    ws = tuple(float(w) for w in weights)
    if len(ws) != ndim:
        raise ValueError(f"weights has {len(ws)} entries, expected {ndim}")
    if any(w <= 0 for w in ws):
        raise ValueError("all weights must be positive")
    return ws


def weighted_cuboid_perimeter(
    dims: Sequence[int],
    sides: Sequence[int],
    weights: Sequence[float] | None = None,
) -> float:
    """Weighted perimeter of an axis-aligned cuboid in a weighted torus.

    *weights[i]* is the capacity of every link of dimension *i*; the
    perimeter sums capacities of cut links.  With unit weights this
    coincides with :func:`repro.isoperimetry.cuboids.cuboid_perimeter`.

    Unlike the unweighted functions, *dims* are **not** sorted internally:
    weights are positional, so the caller's ordering is authoritative.
    """
    dims = check_dims(dims, "dims")
    sides = check_dims(sides, "sides")
    if len(sides) != len(dims):
        raise ValueError(
            f"sides has {len(sides)} entries but dims has {len(dims)}"
        )
    ws = _check_weights(weights, len(dims))
    t = math.prod(sides)
    total = 0.0
    for s, a, w in zip(sides, dims, ws):
        total += _per_line_cut(s, a) * (t // s) * w
    return total


def best_weighted_cuboid(
    dims: Sequence[int],
    t: int,
    weights: Sequence[float] | None = None,
) -> tuple[tuple[int, ...], float]:
    """Minimum weighted-perimeter cuboid of volume *t*: ``(sides, cut)``.

    Exhaustive over all side tuples (positional, unsorted — weights break
    the symmetry between equal dimensions).
    """
    dims = check_dims(dims, "dims")
    ws = _check_weights(weights, len(dims))
    t = check_subset_size(t, math.prod(dims))

    best: tuple[tuple[int, ...], float] | None = None

    def rec(i: int, remaining: int, prefix: tuple[int, ...]) -> None:
        nonlocal best
        if i == len(dims):
            if remaining == 1:
                cut = weighted_cuboid_perimeter(dims, prefix, ws)
                if best is None or cut < best[1]:
                    best = (prefix, cut)
            return
        rest = math.prod(dims[i + 1 :]) if i + 1 < len(dims) else 1
        for s in range(1, min(dims[i], remaining) + 1):
            if remaining % s != 0 or remaining // s > rest:
                continue
            rec(i + 1, remaining // s, prefix + (s,))

    rec(0, t, ())
    if best is None:
        raise ValueError(
            f"no cuboid of volume {t} fits inside torus {tuple(dims)}"
        )
    return best


def weighted_torus_bisection(
    dims: Sequence[int], weights: Sequence[float] | None = None
) -> float:
    """Weighted bisection of a torus with per-dimension link capacities.

    Scans perpendicular cuts of every even dimension; the familiar
    "cut the longest dimension" rule of the unweighted case no longer
    holds — a long dimension with wide links can be more expensive to cut
    than a short one with narrow links, which is exactly the effect the
    paper flags for Titan-class machines.
    """
    dims = check_dims(dims, "dims")
    ws = _check_weights(weights, len(dims))
    n = math.prod(dims)
    best = math.inf
    for k, (a, w) in enumerate(zip(dims, ws)):
        if a % 2 != 0 or a == 1:
            continue
        per_line = 2 if a >= 3 else 1
        best = min(best, per_line * (n // a) * w)
    if best is math.inf:
        raise ValueError(
            f"torus {tuple(dims)} has no even dimension; no perpendicular "
            "bisection exists"
        )
    return best


def dragonfly_group_cut(
    a: int = 16,
    h: int = 6,
    row_capacity: float = 1.0,
    col_capacity: float = 3.0,
    rows_taken: int = 8,
    cols_taken: int | None = None,
) -> float:
    """Weighted cut of an intra-group split of a Dragonfly group.

    A group is ``K_a × K_h`` with row links of capacity *row_capacity*
    and column links of capacity *col_capacity*.  Taking *rows_taken*
    rows (of the ``K_a`` clique) and optionally only *cols_taken* columns
    cuts:

    * row-clique edges between taken and untaken rows within each taken
      column, and
    * column-clique edges between taken and untaken columns within each
      taken row (if ``cols_taken`` is given).

    With the Aries capacities (1 and 3) this quantifies the paper's point
    that splitting across the ``K_6`` backplane is 3× as expensive per
    link as splitting the ``K_16`` rows.
    """
    if not 0 <= rows_taken <= a:
        raise ValueError(f"rows_taken must be in [0, {a}], got {rows_taken}")
    cols = h if cols_taken is None else cols_taken
    if not 0 <= cols <= h:
        raise ValueError(f"cols_taken must be in [0, {h}], got {cols_taken}")
    row_cut = rows_taken * (a - rows_taken) * cols * row_capacity
    col_cut = cols * (h - cols) * rows_taken * col_capacity
    return row_cut + col_cut
