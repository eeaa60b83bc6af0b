"""Flow-level network model: directed links with capacities.

The simulator works on a *directed* link graph: every undirected edge of
a :class:`~repro.topology.base.Topology` becomes two directed links, one
per direction, each with the edge's full capacity — matching Blue Gene/Q
links, which move 2 GB/s *per direction* simultaneously.

Links are indexed densely (``0 .. L-1``) so that flow paths become small
integer arrays and the fairness/load computations vectorize with NumPy.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from .._validation import check_positive_float
from ..topology.base import Topology, Vertex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults import FaultSet

__all__ = ["LinkNetwork"]


class LinkNetwork:
    """Directed-link view of a topology, with dense link indexing.

    Parameters
    ----------
    topo:
        The underlying topology.  Edge weights are interpreted as
        *relative* capacities and multiplied by *link_bandwidth*.
    link_bandwidth:
        Capacity of a unit-weight link, in bandwidth units of your choice
        (the experiments use GB/s).

    Examples
    --------
    >>> from repro.topology import Torus
    >>> net = LinkNetwork(Torus((4, 4)), link_bandwidth=2.0)
    >>> net.num_links        # 32 undirected edges, two directions each
    64
    """

    def __init__(self, topo: Topology, link_bandwidth: float = 1.0):
        bw = check_positive_float(link_bandwidth, "link_bandwidth")
        self._topo = topo
        self._bandwidth = bw
        self._faults: "FaultSet | None" = None
        # The vertex-tuple index is only needed by vertex-level APIs
        # (link_id / link_endpoints / path_to_links / with_faults); on a
        # torus the capacities follow analytically from the dense link
        # layout, so the O(V·deg) dict build is deferred until a
        # vertex-level call actually happens.  Batch-routed experiments
        # never pay for it.
        self._index: dict[tuple[Vertex, Vertex], int] | None = None
        self._endpoints: list[tuple[Vertex, Vertex]] | None = None
        caps = self._analytic_capacities()
        if caps is None:
            self._build_index()
        else:
            self._capacity = caps

    def _analytic_capacities(self) -> np.ndarray | None:
        """Per-link capacities without enumerating links, if possible.

        The dense id layout on a torus is ``vertex_rank * degree +
        slot`` (see :func:`repro.netsim.batchroute.link_layout`), so the
        capacity array is the per-slot dimension weights tiled over
        vertices — identical, entry for entry, to what the enumeration
        loop builds.
        """
        from ..topology.torus import Torus

        if type(self._topo) is not Torus:
            return None
        from .batchroute import link_layout

        layout = link_layout(self._topo)
        weights = np.asarray(self._topo.dim_weights, dtype=float)
        per_slot = weights[np.asarray(layout.slot_dims)] * self._bandwidth
        return np.tile(per_slot, self._topo.num_vertices)

    def _build_index(self) -> None:
        """Enumerate links first-seen, building the vertex-tuple index."""
        index: dict[tuple[Vertex, Vertex], int] = {}
        caps: list[float] = []
        ends: list[tuple[Vertex, Vertex]] = []
        for u in self._topo.vertices():
            for v, w in self._topo.neighbors(u):
                key = (u, v)
                if key not in index:
                    index[key] = len(caps)
                    caps.append(w * self._bandwidth)
                    ends.append(key)
        if not hasattr(self, "_capacity"):
            self._capacity = np.asarray(caps, dtype=float)
        elif len(caps) != len(self._capacity):  # pragma: no cover - defensive
            raise AssertionError(
                f"analytic layout produced {len(self._capacity)} links "
                f"but enumeration found {len(caps)}"
            )
        self._index = index
        self._endpoints = ends

    def _ensure_index(self) -> None:
        if self._index is None:
            self._build_index()

    @property
    def topology(self) -> Topology:
        """The underlying topology."""
        return self._topo

    @property
    def num_links(self) -> int:
        """Number of directed links."""
        return len(self._capacity)

    @property
    def link_bandwidth(self) -> float:
        """Capacity multiplier applied to unit-weight links."""
        return self._bandwidth

    @property
    def capacities(self) -> np.ndarray:
        """Per-link capacity array (read-only view)."""
        view = self._capacity.view()
        view.flags.writeable = False
        return view

    @property
    def faults(self) -> "FaultSet | None":
        """The fault set applied via :meth:`with_faults`, if any."""
        return self._faults

    def with_faults(self, faults: "FaultSet") -> "LinkNetwork":
        """A copy of this network with *faults* applied to capacities.

        Failed links (and links incident to failed nodes) get capacity
        0; degraded links get their capacity scaled by the fault set's
        factor.  Link indices are unchanged, so paths computed on the
        healthy network remain index-compatible — but routing must
        avoid zero-capacity links (see
        :func:`repro.netsim.routing.fault_aware_route`); the fairness
        solver rejects flows crossing them.
        """
        self._ensure_index()
        clone = object.__new__(LinkNetwork)
        clone._topo = self._topo
        clone._index = self._index
        clone._endpoints = self._endpoints
        clone._bandwidth = self._bandwidth
        caps = self._capacity.copy()
        for i, (u, v) in enumerate(self._endpoints):
            # Unconditional: multiplying by a factor of exactly 1.0 is
            # IEEE-exact, so healthy links keep bit-identical capacity.
            caps[i] *= faults.capacity_factor(u, v)
        clone._capacity = caps
        clone._faults = faults
        return clone

    def failed_link_ids(self) -> np.ndarray:
        """Dense indices of links with zero capacity (failed)."""
        return np.flatnonzero(self._capacity == 0.0)  # repro: allow-float-eq failed links carry an exact 0.0 sentinel (capacity_factor returns exact 0.0)

    def link_id(self, u: Vertex, v: Vertex) -> int:
        """Dense index of the directed link ``u -> v``.

        Raises :class:`KeyError` when ``u`` and ``v`` are not adjacent.
        """
        self._ensure_index()
        try:
            return self._index[(u, v)]
        except KeyError:
            raise KeyError(f"no directed link {u!r} -> {v!r}") from None

    def link_endpoints(self, link: int) -> tuple[Vertex, Vertex]:
        """Endpoints ``(u, v)`` of directed link index *link*."""
        self._ensure_index()
        return self._endpoints[link]

    def path_to_links(self, path: Iterable[Vertex]) -> np.ndarray:
        """Convert a vertex path to an array of directed link indices."""
        verts = list(path)
        if len(verts) < 2:
            return np.empty(0, dtype=np.int64)
        return np.asarray(
            [self.link_id(a, b) for a, b in zip(verts, verts[1:])],
            dtype=np.int64,
        )

    def load_of_flows(
        self,
        paths: Iterable[np.ndarray],
        volumes: Iterable[float] | None = None,
    ) -> np.ndarray:
        """Total volume crossing each link given flow *paths*.

        *volumes* defaults to 1 per flow.  Returns an array of length
        :attr:`num_links`.
        """
        from .batchroute import PathMatrix

        if isinstance(paths, PathMatrix):
            if volumes is None:
                # Unweighted loads are pure counts: one bincount over the
                # flat CSR link-id array (exact — integer accumulation).
                counts = np.bincount(
                    paths.link_ids, minlength=self.num_links
                )
                return counts.astype(float)
            # One weighted bincount: each link sums its flows' volumes in
            # flow order, the same additions as the per-flow loop below.
            weights = np.repeat(
                np.asarray(volumes, dtype=float), paths.lengths
            )
            return np.bincount(
                paths.link_ids, weights=weights, minlength=self.num_links
            )
        load = np.zeros(self.num_links, dtype=float)
        if volumes is None:
            for p in paths:
                if len(p):
                    np.add.at(load, p, 1.0)
        else:
            for p, v in zip(paths, volumes):
                if len(p):
                    np.add.at(load, p, float(v))
        return load

    def bottleneck_time(
        self,
        paths: Iterable[np.ndarray],
        volumes: Iterable[float],
    ) -> float:
        """Lower-bound completion time: max over links of load/capacity.

        This is the static link-load contention model: with perfect
        scheduling, all traffic finishes no earlier than the most loaded
        link allows.  For symmetric patterns (the bisection pairing
        benchmark) it coincides with the max-min fluid completion time.
        Unloaded links are ignored, so a failed (zero-capacity) link
        costs nothing until traffic crosses it, and then costs ``inf``.

        This is the round kernel of the bulk-synchronous schedules: CAPS
        (:mod:`repro.experiments.matmul`) and
        :func:`repro.netsim.schedule.simulate_rounds` pass one
        batch-routed :class:`~repro.netsim.batchroute.PathMatrix` per
        round, whose load is a single weighted ``bincount``.
        """
        load = self.load_of_flows(paths, volumes)
        with np.errstate(divide="ignore", invalid="ignore"):
            times = np.where(load > 0, load / self._capacity, 0.0)
        return float(times.max()) if len(times) else 0.0

    def __repr__(self) -> str:
        return (
            f"LinkNetwork({self._topo.name}, links={self.num_links}, "
            f"bandwidth={self._bandwidth})"
        )
