"""Spectral approximations of expansion (Cheeger-style bounds).

The paper's related-work section points to spectral methods (Lee, Oveis
Gharan & Trevisan 2014) for approximating small-set expansion on
*arbitrary* graphs — useful when no combinatorial solution like
Theorem 3.1, Harper, or Lindsey is available.  This module provides the
classical machinery:

* :func:`algebraic_connectivity` — the second-smallest Laplacian
  eigenvalue ``λ_2`` (normalized or unnormalized);
* :func:`cheeger_bounds` — the discrete Cheeger inequality
  ``λ̂_2 / 2 <= h(G) <= sqrt(2 λ̂_2)`` for the conductance ``h(G)``
  (normalized Laplacian);
* :func:`fiedler_cut` — the sweep cut of the Fiedler vector, a concrete
  set witnessing expansion close to the Cheeger upper bound;
* :func:`spectral_expansion_estimate` — a convenience wrapper combining
  the above into lower/upper estimates plus a witness.

Dense :func:`scipy.linalg.eigh` is used below a size threshold and
sparse Lanczos above it; both paths are deterministic.
"""

from __future__ import annotations

import numpy as np

from ..topology.base import Topology, Vertex

__all__ = [
    "laplacian_matrix",
    "algebraic_connectivity",
    "cheeger_bounds",
    "fiedler_cut",
    "spectral_expansion_estimate",
]

#: Above this vertex count, use sparse eigensolvers.
DENSE_LIMIT = 600


def laplacian_matrix(
    topo: Topology, normalized: bool = False
) -> tuple[np.ndarray, list[Vertex]]:
    """Weighted (optionally normalized) Laplacian and the vertex order.

    Returns ``(L, vertices)`` where row/column ``i`` of ``L`` corresponds
    to ``vertices[i]``.
    """
    verts = list(topo.vertices())
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    L = np.zeros((n, n), dtype=float)
    for v in verts:
        i = index[v]
        for u, w in topo.neighbors(v):
            j = index[u]
            L[i, j] -= w
            L[i, i] += w
    if normalized:
        deg = np.diag(L).copy()
        with np.errstate(divide="ignore"):
            inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
        L = L * inv_sqrt[:, None] * inv_sqrt[None, :]
    return L, verts


def algebraic_connectivity(topo: Topology, normalized: bool = False) -> float:
    """Second-smallest eigenvalue of the (normalized) Laplacian.

    Zero iff the graph is disconnected.
    """
    L, _ = laplacian_matrix(topo, normalized=normalized)
    n = L.shape[0]
    if n <= 1:
        return 0.0
    if n <= DENSE_LIMIT:
        from scipy.linalg import eigh

        vals = eigh(L, eigvals_only=True, subset_by_index=(0, 1))
        return float(vals[1])
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import eigsh

    # A fixed start vector makes ARPACK repeatable; not the all-ones
    # vector, which is the Laplacian's null vector.
    v0 = np.random.default_rng(0).standard_normal(n)
    vals = eigsh(
        csr_matrix(L), k=2, which="SM", return_eigenvectors=False, tol=1e-9,
        v0=v0,
    )
    return float(sorted(vals)[1])


def cheeger_bounds(topo: Topology) -> tuple[float, float]:
    """Cheeger bounds ``(λ̂_2 / 2, sqrt(2 λ̂_2))`` on the conductance.

    The conductance here is ``min_S cut(S) / min(vol(S), vol(S̄))`` with
    volumes measured in weighted degree, matching the small-set expansion
    denominator of the paper at ``t = |V|/2``.
    """
    lam = algebraic_connectivity(topo, normalized=True)
    lam = max(lam, 0.0)
    return (lam / 2.0, float(np.sqrt(2.0 * lam)))


def fiedler_cut(topo: Topology) -> tuple[set[Vertex], float]:
    """Sweep cut of the Fiedler vector: ``(subset, conductance)``.

    Sorts vertices by the second eigenvector of the normalized Laplacian
    and returns the prefix with the best conductance — the constructive
    half of the Cheeger inequality.
    """
    L, verts = laplacian_matrix(topo, normalized=True)
    n = len(verts)
    if n < 2:
        raise ValueError("fiedler_cut requires at least 2 vertices")
    if n <= DENSE_LIMIT:
        from scipy.linalg import eigh

        _, vecs = eigh(L, subset_by_index=(0, 1))
        fiedler = vecs[:, 1]
    else:
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import eigsh

        v0 = np.random.default_rng(0).standard_normal(n)  # as above
        vals, vecs = eigsh(csr_matrix(L), k=2, which="SM", tol=1e-9, v0=v0)
        order = np.argsort(vals)
        fiedler = vecs[:, order[1]]
    order = np.argsort(fiedler, kind="stable")
    degrees = np.array([topo.weighted_degree(v) for v in verts])
    total_vol = degrees.sum()

    best_set: set[Vertex] = set()
    best_cond = np.inf
    current: set[Vertex] = set()
    vol = 0.0
    cut = 0.0
    for idx in order[:-1]:
        v = verts[idx]
        # Update the running cut: edges to inside vanish, to outside appear.
        for u, w in topo.neighbors(v):
            if u in current:
                cut -= w
            else:
                cut += w
        current.add(v)
        vol += degrees[idx]
        denom = min(vol, total_vol - vol)
        if denom > 0:
            cond = cut / denom
            if cond < best_cond:
                best_cond = cond
                best_set = set(current)
    return best_set, float(best_cond)


def spectral_expansion_estimate(topo: Topology) -> dict:
    """Lower/upper spectral estimates of conductance plus a witness cut.

    Returns a dict with keys ``lower`` (Cheeger lower bound), ``upper``
    (conductance of the Fiedler sweep cut — a certified upper bound
    because it is achieved by an explicit set), ``cheeger_upper``
    (``sqrt(2 λ̂_2)``) and ``witness`` (the sweep-cut set).
    """
    lower, cheeger_upper = cheeger_bounds(topo)
    witness, achieved = fiedler_cut(topo)
    return {
        "lower": lower,
        "upper": achieved,
        "cheeger_upper": cheeger_upper,
        "witness": witness,
    }
