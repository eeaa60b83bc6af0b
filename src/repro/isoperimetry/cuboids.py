"""Cuboid subsets of tori: exact perimeters, constructions, optimizers.

The paper's Lemma 3.2 constructs cuboids whose cut size matches the
Theorem 3.1 bound, and Lemma 3.3 shows those cuboids are isoperimetric
*among cuboids*.  This module provides:

* :func:`cuboid_perimeter` / :func:`cuboid_interior` — exact counting for
  an axis-aligned cuboid ``[s_1] × ... × [s_D]`` inside the torus
  ``[a_1] × ... × [a_D]`` under the simple-graph convention of
  :class:`repro.topology.torus.Torus`;
* :func:`lemma_3_2_cuboid` — the explicit construction ``S_r`` when
  ``(t / k_r)^{1/(D-r)}`` is an integer;
* :func:`enumerate_cuboid_shapes` / :func:`best_cuboid` — exhaustive
  optimization over all cuboid shapes of a given volume (the quantity the
  paper uses to rank partition geometries);
* :func:`cuboid_vertices` — materialize a cuboid as a vertex set for
  cross-checking against :meth:`Topology.cut_weight`.

All functions take torus dimensions in any order and sort internally when
the result is order-independent; shape tuples returned are aligned with
the *sorted descending* dimensions (the paper's canonical form).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence

from .._validation import check_dims, check_subset_size
from ..caching import memoized

__all__ = [
    "cuboid_perimeter",
    "cuboid_interior",
    "cuboid_vertices",
    "lemma_3_2_cuboid",
    "enumerate_cuboid_shapes",
    "best_cuboid",
    "worst_cuboid",
    "cuboid_profile",
]


def _per_line_cut(side: int, dim: int) -> int:
    """Cut edges contributed per line by an interval of *side* in a ring
    of length *dim* (simple-graph convention)."""
    if side > dim:
        raise ValueError(f"cuboid side {side} exceeds dimension {dim}")
    if side == dim or dim == 1:
        return 0
    if dim == 2:
        return 1  # single edge between the two layers
    return 2


def cuboid_perimeter(dims: Sequence[int], sides: Sequence[int]) -> int:
    """Exact perimeter ``|E(S, S̄)|`` of an axis-aligned cuboid.

    Parameters
    ----------
    dims:
        Torus dimensions ``(a_1, ..., a_D)``.
    sides:
        Cuboid side lengths ``(s_1, ..., s_D)`` with ``1 <= s_i <= a_i``,
        aligned positionally with *dims*.

    Notes
    -----
    Dimension ``i`` contributes ``c_i · t / s_i`` cut edges, where ``t``
    is the cuboid volume and ``c_i`` is 0 if the cuboid covers the
    dimension, 1 if ``a_i == 2`` (single edge), else 2 (both faces of a
    proper cycle).

    Examples
    --------
    >>> cuboid_perimeter((4, 4), (2, 2))   # a 2x2 square in the 4x4 torus
    8
    >>> cuboid_perimeter((4, 4), (4, 2))   # a full band
    8
    """
    dims = check_dims(dims, "dims")
    sides = check_dims(sides, "sides")
    if len(sides) != len(dims):
        raise ValueError(
            f"sides has {len(sides)} entries but dims has {len(dims)}"
        )
    t = math.prod(sides)
    total = 0
    for s, a in zip(sides, dims):
        total += _per_line_cut(s, a) * (t // s)
    return total


def cuboid_interior(dims: Sequence[int], sides: Sequence[int]) -> int:
    """Exact interior edge count ``|E(S, S)|`` of an axis-aligned cuboid.

    For each dimension, an interval of length ``s`` in a ring of length
    ``a`` induces ``s`` internal edges if it wraps (``s == a >= 3``),
    ``s - 1`` if it is a proper path, and 1 if ``s == a == 2``.
    """
    dims = check_dims(dims, "dims")
    sides = check_dims(sides, "sides")
    if len(sides) != len(dims):
        raise ValueError(
            f"sides has {len(sides)} entries but dims has {len(dims)}"
        )
    t = math.prod(sides)
    total = 0
    for s, a in zip(sides, dims):
        if a == 1:
            continue
        if s == a:
            per_line = s if a >= 3 else 1
        else:
            per_line = s - 1
        total += per_line * (t // s)
    return total


def cuboid_vertices(sides: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Vertices of the origin-anchored cuboid ``[s_1] × ... × [s_D]``."""
    sides = check_dims(sides, "sides")
    return itertools.product(*(range(s) for s in sides))


def lemma_3_2_cuboid(dims: Sequence[int], t: int) -> tuple[int, ...] | None:
    """The explicit optimal cuboid ``S_r`` of Lemma 3.2, when it exists.

    With dimensions sorted descending ``a_1 >= ... >= a_D``, tries every
    ``r``: the construction fully covers the ``r`` smallest dimensions
    (product ``k_r``) and is a cube of side ``(t / k_r)^{1/(D-r)}`` in the
    rest.  Returns the side tuple aligned with the sorted dimensions, or
    ``None`` if no ``r`` yields an integral side that fits.

    Examples
    --------
    >>> lemma_3_2_cuboid((6, 4, 2), 16)    # r = 2: side 2 x full 4 x full 2
    (2, 4, 2)
    """
    dims = check_dims(dims, "dims")
    a = sorted(dims, reverse=True)
    D = len(a)
    t = check_subset_size(t, math.prod(a))
    best: tuple[int, tuple[int, ...]] | None = None
    for r in range(D):
        k = math.prod(a[D - r :]) if r > 0 else 1
        if t % k != 0:
            continue
        q = t // k
        m = D - r
        side = round(q ** (1.0 / m))
        hit = None
        for cand in (side - 1, side, side + 1):
            if cand >= 1 and cand**m == q:
                hit = cand
                break
        if hit is None:
            continue
        if any(hit > a[i] for i in range(m)):
            continue
        shape = tuple([hit] * m + a[D - r :])
        per = cuboid_perimeter(tuple(a), shape)
        if best is None or per < best[0]:
            best = (per, shape)
    return best[1] if best else None


def enumerate_cuboid_shapes(
    dims: Sequence[int], t: int
) -> Iterator[tuple[int, ...]]:
    """All cuboid side tuples of volume *t* inside the torus *dims*.

    Dimensions are sorted descending internally; yielded tuples are
    aligned with the sorted dimensions.  Shapes that are identical up to
    the ordering of *equal* host dimensions are yielded once.
    """
    dims = check_dims(dims, "dims")
    a = sorted(dims, reverse=True)
    t = check_subset_size(t, math.prod(a))

    seen: set[tuple[int, ...]] = set()

    def rec(i: int, remaining: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == len(a):
            if remaining == 1:
                key = prefix
                if key not in seen:
                    seen.add(key)
                    yield prefix
            return
        # Upper bound on the product of the remaining dimensions.
        rest = math.prod(a[i + 1 :]) if i + 1 < len(a) else 1
        for s in range(1, min(a[i], remaining) + 1):
            if remaining % s != 0:
                continue
            if remaining // s > rest:
                continue
            yield from rec(i + 1, remaining // s, prefix + (s,))

    yield from rec(0, t, ())


@memoized()
def _cuboid_extremes(
    a: tuple[int, ...], t: int
) -> tuple[tuple[tuple[int, ...], int], tuple[tuple[int, ...], int]] | None:
    """((best shape, min per), (worst shape, max per)) or ``None``.

    One exhaustive enumeration serves both bounds; memoized because the
    isoperimetric profile and the allocation rankings re-evaluate the
    same (sorted torus, volume) pairs across sweep grids.
    """
    best: tuple[tuple[int, ...], int] | None = None
    worst: tuple[tuple[int, ...], int] | None = None
    for shape in enumerate_cuboid_shapes(a, t):
        per = cuboid_perimeter(a, shape)
        if best is None or per < best[1]:
            best = (shape, per)
        if worst is None or per > worst[1]:
            worst = (shape, per)
    if best is None or worst is None:
        return None
    return best, worst


def best_cuboid(dims: Sequence[int], t: int) -> tuple[tuple[int, ...], int]:
    """Minimum-perimeter cuboid of volume *t*: ``(shape, perimeter)``.

    This realizes Lemma 3.3's optimum by exhaustive search over all
    cuboid shapes, so it is correct even when the Lemma 3.2 construction
    does not exist for the given *t*.  Memoized per (sorted dims, t).

    Raises :class:`ValueError` when no cuboid of volume *t* fits.
    """
    dims = check_dims(dims, "dims")
    a = tuple(sorted(dims, reverse=True))
    extremes = _cuboid_extremes(a, check_subset_size(t, math.prod(a)))
    if extremes is None:
        raise ValueError(
            f"no cuboid of volume {t} fits inside torus {tuple(dims)}"
        )
    return extremes[0]


def worst_cuboid(dims: Sequence[int], t: int) -> tuple[tuple[int, ...], int]:
    """Maximum-perimeter cuboid of volume *t*: ``(shape, perimeter)``.

    Useful for bounding how *bad* an allocation geometry can get.
    Memoized per (sorted dims, t), sharing one enumeration with
    :func:`best_cuboid`.
    """
    dims = check_dims(dims, "dims")
    a = tuple(sorted(dims, reverse=True))
    extremes = _cuboid_extremes(a, check_subset_size(t, math.prod(a)))
    if extremes is None:
        raise ValueError(
            f"no cuboid of volume {t} fits inside torus {tuple(dims)}"
        )
    return extremes[1]


def cuboid_profile(dims: Sequence[int]) -> dict[int, int]:
    """Minimum cuboid perimeter for every achievable volume ``t <= |V|/2``.

    Returns a mapping ``t -> min perimeter`` covering every ``t`` for
    which some cuboid of volume ``t`` exists.  This is the cuboid
    isoperimetric profile of the torus, the object Figures 1 and 2 of the
    paper plot (restricted to midplane-aligned volumes).
    """
    dims = check_dims(dims, "dims")
    a = tuple(sorted(dims, reverse=True))
    total = math.prod(a)
    out: dict[int, int] = {}
    half = total // 2

    def rec(i: int, vol: int, shape: list[int]) -> None:
        if i == len(a):
            per = cuboid_perimeter(a, tuple(shape))
            if vol not in out or per < out[vol]:
                out[vol] = per
            return
        for s in range(1, a[i] + 1):
            nv = vol * s
            if nv > half:
                break  # larger sides only grow the volume further
            shape.append(s)
            rec(i + 1, nv, shape)
            shape.pop()

    rec(0, 1, [])
    return out
