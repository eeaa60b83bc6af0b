"""Vectorized batch routing and the CSR path container.

The scalar router (:func:`repro.netsim.routing.dimension_ordered_route`)
walks one (src, dst) pair at a time through a Python loop, building a
``list[tuple[int, ...]]`` of intermediate vertices that the caller then
re-hashes into directed link ids via ``LinkNetwork.path_to_links``.
Every headline experiment routes *thousands* of pairs over the same
torus, so this module batches the whole computation:

* :func:`batch_dimension_ordered_routes` takes arrays of source and
  destination **node indices** (row-major order, matching
  ``Torus.vertices()``) and computes every dimension-ordered route at
  once — signed per-dimension deltas with wraparound and the
  parity/positive tie-breaks done as array arithmetic — emitting
  directed link ids directly, with no intermediate vertex tuples;
* :class:`PathMatrix` holds the result in CSR form: one flat
  ``link_ids`` array plus ``offsets``, with per-flow views,
  ``bincount``-ready flattening (:meth:`PathMatrix.flow_ids`), and a
  ``Sequence[np.ndarray]``-shaped iteration protocol so existing code
  that loops over per-flow arrays keeps working.

Link ids come from an analytic layout (:func:`link_layout`) that mirrors
``LinkNetwork``'s construction order exactly — ``LinkNetwork`` walks
``Torus.vertices()`` (row-major) and, per vertex, ``Torus.neighbors``
(dimensions ascending, + before −, one merged slot for length-2
dimensions) — so batch-routed ids are **bit-identical** to
``net.path_to_links(dimension_ordered_route(...))``.  Property tests
(``tests/properties/test_property_batchroute.py``) enforce this
link-for-link against the scalar oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .. import contracts
from ..caching import memoized
from ..topology.torus import Torus
from .routing import check_tie

__all__ = [
    "PathMatrix",
    "TorusLinkLayout",
    "link_layout",
    "batch_dimension_ordered_routes",
    "batch_fault_aware_routes",
    "fault_link_mask",
    "fault_capacity_plane",
    "masked_bfs_links",
    "vertex_indices",
]


class PathMatrix:
    """CSR-style container of per-flow directed-link paths.

    Parameters
    ----------
    link_ids:
        Flat int64 array: the concatenation of every flow's link ids.
    offsets:
        Int64 array of length ``num_flows + 1``; flow ``i``'s links are
        ``link_ids[offsets[i]:offsets[i+1]]``.

    The arrays are made read-only: flows share one backing buffer, and
    per-flow views are handed out freely (route caches, fairness
    solves), so in-place mutation would corrupt every consumer.

    Examples
    --------
    >>> pm = PathMatrix.from_paths([[0, 1], [], [2]])
    >>> len(pm), pm.total_links
    (3, 3)
    >>> pm[0].tolist(), pm[1].tolist()
    ([0, 1], [])
    """

    __slots__ = ("_link_ids", "_offsets", "_flow_ids")

    def __init__(self, link_ids: np.ndarray, offsets: np.ndarray):
        link_ids = np.ascontiguousarray(link_ids, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or len(offsets) < 1:
            raise ValueError("offsets must be a 1-D array of length >= 1")
        if link_ids.ndim != 1:
            raise ValueError("link_ids must be a 1-D array")
        if offsets[0] != 0 or offsets[-1] != len(link_ids):
            raise ValueError(
                f"offsets must run from 0 to len(link_ids)="
                f"{len(link_ids)}, got [{offsets[0]}, {offsets[-1]}]"
            )
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        link_ids.flags.writeable = False
        offsets.flags.writeable = False
        self._link_ids = link_ids
        self._offsets = offsets
        self._flow_ids: np.ndarray | None = None
        if contracts.enabled():
            contracts.check_path_matrix(self)

    # ------------------------------------------------------------------ #
    # Construction                                                         #
    # ------------------------------------------------------------------ #

    @classmethod
    def from_paths(
        cls, paths: Sequence[np.ndarray] | Iterable[Sequence[int]]
    ) -> "PathMatrix":
        """Build from a sequence of per-flow link-id arrays.

        The thin adapter between the historical ``Sequence[np.ndarray]``
        API and the CSR layout; round-trips exactly
        (``[pm[i] for i in range(len(pm))]`` equals the input).
        """
        if isinstance(paths, PathMatrix):
            return paths
        arrays = [np.asarray(p, dtype=np.int64).ravel() for p in paths]
        lengths = np.fromiter(
            (len(a) for a in arrays), dtype=np.int64, count=len(arrays)
        )
        offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        flat = (
            np.concatenate(arrays)
            if arrays
            else np.empty(0, dtype=np.int64)
        )
        return cls(flat, offsets)

    @classmethod
    def unchecked(
        cls, link_ids: np.ndarray, offsets: np.ndarray
    ) -> "PathMatrix":
        """Wrap already-valid CSR planes without the O(n) validation.

        For trusted internal producers whose invariants hold by
        construction — the simmpi :class:`~repro.simmpi.ledger.FlowLedger`
        re-derives a live view of its arena after every flow add, so the
        monotonicity/bounds re-checks of ``__init__`` would be paid per
        event.  The arrays must be contiguous int64 with
        ``offsets[0] == 0`` and ``offsets[-1] == len(link_ids)``; only
        read-only *views* are taken, so a writable backing arena stays
        writable for its owner.  Under ``REPRO_CHECK`` the construction
        contract still runs.
        """
        link_view = link_ids.view()
        link_view.flags.writeable = False
        offset_view = offsets.view()
        offset_view.flags.writeable = False
        pm = cls.__new__(cls)
        pm._link_ids = link_view
        pm._offsets = offset_view
        pm._flow_ids = None
        if contracts.enabled():
            contracts.check_path_matrix(pm)
        return pm

    # ------------------------------------------------------------------ #
    # Shared-memory codec                                                  #
    # ------------------------------------------------------------------ #

    def to_shared(self, pool) -> dict:
        """Descriptor handles for zero-copy transport.

        Places the CSR planes into *pool* (a
        :class:`repro.sharedmem.SharedArrayPool`) and returns the
        small ``{slot: ArrayDescriptor}`` mapping that crosses the
        worker pipe instead of the arrays themselves.
        """
        return {
            "link_ids": pool.put_array(self._link_ids),
            "offsets": pool.put_array(self._offsets),
        }

    @classmethod
    def from_shared(cls, handles: dict) -> "PathMatrix":
        """Rebuild from :meth:`to_shared` handles as read-only views.

        Zero-copy: the arrays are attached straight out of the shared
        segments, and the constructor's validation is skipped — the
        handles came from an already-validated instance.  The views
        are only valid while the producing pool's segments live (the
        sweep dispatch that created them).
        """
        from ..sharedmem import attach_array

        pm = cls.__new__(cls)
        pm._link_ids = attach_array(handles["link_ids"])
        pm._offsets = attach_array(handles["offsets"])
        pm._flow_ids = None
        return pm

    # ------------------------------------------------------------------ #
    # Structure                                                            #
    # ------------------------------------------------------------------ #

    @property
    def link_ids(self) -> np.ndarray:
        """Flat link-id array (read-only) — ``bincount``-ready."""
        return self._link_ids

    @property
    def offsets(self) -> np.ndarray:
        """CSR offsets array of length ``len(self) + 1`` (read-only)."""
        return self._offsets

    @property
    def lengths(self) -> np.ndarray:
        """Per-flow path lengths (hop counts)."""
        return np.diff(self._offsets)

    @property
    def total_links(self) -> int:
        """Total link traversals across all flows (``len(link_ids)``)."""
        return len(self._link_ids)

    def flow_ids(self) -> np.ndarray:
        """Flow index of every entry of :attr:`link_ids` (read-only).

        The companion array for grouped reductions: per-flow "any link
        saturated" or per-flow load sums become single ``np.bincount``
        calls over ``(flow_ids, link_ids)``.  Computed lazily once.
        """
        if self._flow_ids is None:
            ids = np.repeat(
                np.arange(len(self), dtype=np.int64), self.lengths
            )
            ids.flags.writeable = False
            self._flow_ids = ids
        return self._flow_ids

    # ------------------------------------------------------------------ #
    # Sequence protocol                                                    #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, i: int) -> np.ndarray:
        """Flow *i*'s link ids as a zero-copy (read-only) view."""
        if not -len(self) <= i < len(self):
            raise IndexError(f"flow index {i} out of range for {self!r}")
        if i < 0:
            i += len(self)
        return self._link_ids[self._offsets[i] : self._offsets[i + 1]]

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __repr__(self) -> str:
        return (
            f"PathMatrix(flows={len(self)}, links={self.total_links})"
        )


# Shared-memory sweeps reduce PathMatrix to its descriptor handles
# instead of pickling the CSR bytes (see repro.sharedmem).
from ..sharedmem import register_shared_codec  # noqa: E402

register_shared_codec(PathMatrix)


@dataclass(frozen=True)
class TorusLinkLayout:
    """Analytic dense-link-id layout of a torus ``LinkNetwork``.

    ``LinkNetwork`` assigns ids first-seen while walking row-major
    vertices and per-vertex neighbors; on a torus that walk is fully
    regular, so ids factor as ``vertex_rank * degree + slot``:

    Attributes
    ----------
    dims:
        Torus dimension lengths.
    strides:
        Row-major vertex strides (``C`` order, as ``Torus.vertices()``).
    degree:
        Directed links per vertex (length-2 dimensions contribute one
        merged slot, length >= 3 two, length 1 none).
    slot_up, slot_down:
        Per-dimension slot offset of the +/− directed link out of a
        vertex (equal for length-2 dimensions; −1 for length-1).
    slot_dims:
        Dimension index of each of the ``degree`` slots — tiled over
        vertices this is the per-link "link class" table.
    """

    dims: tuple[int, ...]
    strides: np.ndarray
    degree: int
    slot_up: np.ndarray
    slot_down: np.ndarray
    slot_dims: np.ndarray

    def link_id(self, vertex_rank: int, dim: int, step: int) -> int:
        """Dense id of the link leaving *vertex_rank* along *dim*.

        *step* is +1 or −1; for length-2 dimensions both map to the
        single merged slot.  The scalar mirror of the batch arithmetic,
        exposed for tests.
        """
        slot = self.slot_up[dim] if step > 0 else self.slot_down[dim]
        if slot < 0:
            raise ValueError(f"dimension {dim} of {self.dims} has no links")
        return int(vertex_rank) * self.degree + int(slot)


@memoized(maxsize=256, key=lambda torus: torus)
def link_layout(torus: Torus) -> TorusLinkLayout:
    """The (memoized) analytic link layout of *torus*.

    One layout per distinct torus is computed ever; repeated batch
    routes, engines, and sweeps share it through :mod:`repro.caching`.
    """
    dims = torus.dims
    ndim = len(dims)
    strides = np.empty(ndim, dtype=np.int64)
    acc = 1
    for k in range(ndim - 1, -1, -1):
        strides[k] = acc
        acc *= dims[k]
    slot_up = np.full(ndim, -1, dtype=np.int64)
    slot_down = np.full(ndim, -1, dtype=np.int64)
    slots: list[int] = []
    cursor = 0
    for k, a in enumerate(dims):
        if a == 1:
            continue
        if a == 2:
            slot_up[k] = slot_down[k] = cursor
            slots.append(k)
            cursor += 1
        else:
            slot_up[k] = cursor
            slot_down[k] = cursor + 1
            slots.extend((k, k))
            cursor += 2
    slot_dims = np.asarray(slots, dtype=np.int64)
    for arr in (strides, slot_up, slot_down, slot_dims):
        arr.flags.writeable = False
    return TorusLinkLayout(
        dims=dims,
        strides=strides,
        degree=cursor,
        slot_up=slot_up,
        slot_down=slot_down,
        slot_dims=slot_dims,
    )


def vertex_indices(
    torus: Torus, vertices: Sequence[Sequence[int]]
) -> np.ndarray:
    """Row-major node indices of *vertices* (the ``Torus.vertices()`` rank).

    The bridge from vertex-tuple traffic patterns
    (:mod:`repro.netsim.traffic`) to the node-index arrays the batch
    router consumes.
    """
    coords = np.asarray(list(vertices), dtype=np.int64)
    if coords.size == 0:
        return np.empty(0, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != torus.ndim:
        raise ValueError(
            f"expected {torus.ndim}-coordinate vertices for {torus.name}"
        )
    return np.ravel_multi_index(tuple(coords.T), torus.dims).astype(
        np.int64
    )


def batch_dimension_ordered_routes(
    torus: Torus,
    src: np.ndarray,
    dst: np.ndarray,
    dim_order: Sequence[int] | None = None,
    tie: str = "parity",
) -> PathMatrix:
    """Dimension-ordered routes for *all* (src, dst) pairs at once.

    Parameters
    ----------
    torus:
        The torus network (healthy topology; for faulted networks use
        :func:`batch_fault_aware_routes`).
        Degraded — reduced but non-zero — link capacities do not change
        dimension-ordered routes, so batch routing remains valid there.
    src, dst:
        Equal-length integer arrays of node indices in row-major
        (``Torus.vertices()``) order; see :func:`vertex_indices`.
    dim_order:
        Dimension-correction order (default ``0..D-1``), as in the
        scalar router.
    tie:
        ``"parity"`` or ``"positive"`` — identical semantics to
        :func:`~repro.netsim.routing.dimension_ordered_route`,
        including the per-source-coordinate parity split of exact-half
        ring distances.

    Returns
    -------
    PathMatrix
        Flow ``i``'s links equal
        ``net.path_to_links(dimension_ordered_route(torus, src_i,
        dst_i, dim_order, tie))`` for a ``LinkNetwork`` over *torus*,
        link id for link id.
    """
    return PathMatrix(*_route_links(torus, src, dst, dim_order, tie))


def _route_links(
    torus: Torus,
    src: np.ndarray,
    dst: np.ndarray,
    dim_order: Sequence[int] | None = None,
    tie: str = "parity",
    out: np.ndarray | None = None,
    base: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`batch_dimension_ordered_routes`' ``(link_ids, offsets)``,
    each id plus *base*; the ids go straight into *out* if given, which
    they must fill exactly (a stack builder passes each scenario's span).
    """
    check_tie(tie)
    n_nodes = torus.num_vertices
    src = np.ascontiguousarray(src, dtype=np.int64).ravel()
    dst = np.ascontiguousarray(dst, dtype=np.int64).ravel()
    if len(src) != len(dst):
        raise ValueError(f"{len(src)} sources but {len(dst)} destinations")
    for name, arr in (("src", src), ("dst", dst)):
        if arr.size and (arr.min() < 0 or arr.max() >= n_nodes):
            raise ValueError(
                f"{name} node indices must be in [0, {n_nodes - 1}] "
                f"for {torus.name}"
            )
    if dim_order is None:
        order = list(range(torus.ndim))
    else:
        order = [int(k) for k in dim_order]
        if sorted(order) != list(range(torus.ndim)):
            raise ValueError(
                f"dim_order must be a permutation of 0..{torus.ndim - 1}, "
                f"got {tuple(dim_order)}"
            )
    # Length-1 dimensions never move a route.
    live = [k for k in order if torus.dims[k] > 1]
    planes, lengths, flow_last = _segment_planes(torus, src, dst, live, tie)
    offsets = np.zeros(len(src) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    if out is None:
        out = np.empty(total, dtype=np.int64)
    elif len(out) != total:
        raise ValueError(f"{total} routed links for a span of {len(out)}")
    if total == 0:
        return out, offsets

    planes = planes.reshape(5, -1)
    if not planes[0].all():
        # Compact to the live segments (hops > 0), in emission order.
        planes = planes[:, np.flatnonzero(planes[0])]
    seg_len, delta, jump, wrap, close = planes
    # Running sum, in place: spread each segment's per-hop delta (a
    # running sum of the delta changes at the segment starts), then
    # overwrite each segment start with its jump and each wrap hop with
    # its ring-closing step.  A flow's first jump, taken from 0, also
    # drops the previous flow's last link; the very first adds *base*.
    seg_start = np.cumsum(seg_len)
    seg_start -= seg_len
    out.fill(0)
    out[0] = delta[0]
    out[seg_start[1:]] = delta[1:] - delta[:-1]
    np.cumsum(out, out=out)
    out[seg_start] = jump
    routed = np.flatnonzero(lengths)
    out[offsets[routed[1:]]] -= flow_last[routed[:-1]]
    out[0] += base
    wraps = wrap < seg_len
    wrap += seg_start
    out[wrap[wraps]] = close[wraps]
    np.cumsum(out, out=out)
    return out, offsets


def _segment_planes(
    torus: Torus, src: np.ndarray, dst: np.ndarray, live: list[int], tie: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment planes, route lengths and last links (0 if none) of flows.

    The ``(5, flows, len(live))`` planes hold, one column per live
    dimension in emission order, each segment's hop count, per-hop
    link-id delta, jump from the flow's previous link (0 before its
    first) to its first, the hop that wraps the ring (a segment is
    shorter than its ring, so it wraps at most once) and that hop's
    ring-closing step.  Length-2 dimensions have one merged slot.
    """
    layout, dims, n_flows = link_layout(torus), torus.dims, len(src)
    planes = np.empty((5, n_flows, len(live)), dtype=np.int64)
    hops, delta, jump, wrap, close = planes
    # The vertex rank each segment starts from, and each flow's last link.
    start = src.copy()
    flow_last = np.zeros(n_flows, dtype=np.int64)
    lengths = np.zeros(n_flows, dtype=np.int64)
    for j, k in enumerate(live):
        a, stride = dims[k], int(layout.strides[k])
        s = src // stride % a
        move = dst // stride % a - s
        up = move % a
        down = a - up
        h = np.minimum(up, down, out=hops[:, j])
        lengths += h
        pos = up < down
        if tie == "positive":
            pos |= up == down
        else:  # parity: + from even source coordinates, − from odd
            pos |= (up == down) & (s % 2 == 0)
        dl = np.where(pos, stride * layout.degree, -stride * layout.degree)
        delta[:, j] = dl
        f = np.where(pos, layout.slot_up[k], layout.slot_down[k])
        f += start * layout.degree
        np.subtract(f, flow_last, out=jump[:, j])
        w = np.where(pos, a - s, s + 1)
        wrap[:, j] = w
        np.multiply(dl, 1 - a, out=close[:, j])
        f += dl * (h - 1 - a * (w < h))  # the segment's last link
        np.copyto(flow_last, f, where=h > 0)
        start += move * stride
    return planes, lengths, flow_last


def fault_link_mask(torus: Torus, faults) -> np.ndarray:
    """Boolean unusable-link mask over the dense link-id space.

    Entry ``mask[link_id]`` is true when the directed link is failed
    outright or either endpoint node is down — the same links for which
    :meth:`repro.faults.FaultSet.blocks` is true.  Degraded (reduced
    but non-zero capacity) links stay false: they still carry traffic
    and do not change dimension-ordered routes.

    Fault entries that are not edges/vertices of *torus* are ignored —
    a link that does not exist cannot be crossed — matching
    ``LinkNetwork.with_faults``, which also only consults the fault set
    for links the network actually has.  Link ids come from
    :func:`_directed_link_id`.

    Fault sets are small (a handful of failures against thousands of
    links), so this is a Python loop over the faults, not over the
    links.
    """
    layout = link_layout(torus)
    mask = np.zeros(torus.num_vertices * layout.degree, dtype=bool)
    if faults is None or faults.is_empty():
        return mask
    for u, v in faults.failed_links:
        link = _directed_link_id(torus, u, v)
        if link is not None:
            mask[link] = True
    for n in faults.failed_nodes:
        # Coordinates equal to ints (numpy ints included) name the
        # vertex, as they do for FaultSet.blocks.
        node = tuple(int(c) for c in n)
        if node != tuple(n) or not torus.contains(node):
            continue
        # The node's own out-links, and each neighbor's link into it.
        for v, _w in torus.neighbors(node):
            mask[_directed_link_id(torus, node, v)] = True
            mask[_directed_link_id(torus, v, node)] = True
    return mask


def _directed_link_id(torus: Torus, u, v) -> int | None:
    """Dense id of the directed link ``u -> v``, or ``None`` if absent.

    Accepts arbitrary vertex tuples: entries that are not vertices of
    *torus* or not torus edges yield ``None`` (a fault naming a
    non-existent link cannot affect any real link).
    """
    layout = link_layout(torus)
    dims = torus.dims
    ndim = torus.ndim
    if len(u) != ndim or len(v) != ndim:
        return None
    if any(not 0 <= u[k] < dims[k] for k in range(ndim)):
        return None
    if any(not 0 <= v[k] < dims[k] for k in range(ndim)):
        return None
    diff = [k for k in range(ndim) if u[k] != v[k]]
    if len(diff) != 1:
        return None
    k = diff[0]
    a = dims[k]
    if (u[k] + 1) % a == v[k]:
        slot = layout.slot_up[k]
    elif (v[k] + 1) % a == u[k]:
        slot = layout.slot_down[k]
    else:
        return None
    if slot < 0:
        return None
    rank = int(
        sum(int(u[i]) * int(layout.strides[i]) for i in range(ndim))
    )
    return rank * layout.degree + int(slot)


def fault_capacity_plane(
    torus: Torus, capacities: np.ndarray, faults
) -> np.ndarray:
    """Per-link capacities of *torus* with *faults* applied.

    The vectorized equivalent of
    ``LinkNetwork.with_faults(faults).capacities`` for a network built
    over *torus* with base *capacities*: degraded links are multiplied
    by their factor exactly as ``with_faults`` does (same float op, so
    the result is bit-identical), blocked links — failed outright or
    with a down endpoint — go to ``0.0``.  Fault sets are small, so the
    degraded/blocked bookkeeping loops over the faults, never over the
    links.
    """
    caps = np.array(capacities, dtype=float, copy=True)
    if faults is None or faults.is_empty():
        return caps
    expected = torus.num_vertices * link_layout(torus).degree
    if len(caps) != expected:
        raise ValueError(
            f"capacity plane has {len(caps)} slots but the analytic "
            f"layout of {torus.name} expects {expected}"
        )
    mask = fault_link_mask(torus, faults)
    for (u, v), factor in faults.degraded_links.items():
        lid = _directed_link_id(torus, u, v)
        # A degraded link that is also blocked ends at zero either way
        # (``capacity_factor`` lets the block win); skip the multiply so
        # the arithmetic below matches ``with_faults`` exactly.
        if lid is None or mask[lid]:
            continue
        caps[lid] *= factor
    caps[mask] = 0.0
    return caps


#: Dead ends after which the reroute search gives up and the level
#: sweep runs instead: about one sweep's cost on the 8×8×8×8×2 torus.
_DEAD_END_BUDGET = 512


@memoized(maxsize=256, key=lambda torus: torus)
def _neighbor_table(torus: Torus) -> np.ndarray:
    """``(num_vertices, degree)`` neighbor ranks in slot order (memoized).

    Row ``u``, column ``s`` is the rank of the vertex reached through
    vertex ``u``'s slot ``s`` — the same neighbor enumeration order as
    ``Torus.neighbors`` (dimensions ascending, + before −, one merged
    slot for length-2 dimensions), which is what makes the vectorized
    BFS tie-breaks below identical to the scalar
    :func:`repro.netsim.routing.bfs_route`.
    """
    layout = link_layout(torus)
    n = torus.num_vertices
    ranks = np.arange(n, dtype=np.int64)
    coords = np.stack(np.unravel_index(ranks, torus.dims), axis=1)
    out = np.empty((n, layout.degree), dtype=np.int64)
    for s in range(layout.degree):
        k = int(layout.slot_dims[s])
        step = 1 if s == int(layout.slot_up[k]) else -1
        c = coords.copy()
        c[:, k] = (c[:, k] + step) % torus.dims[k]
        out[:, s] = np.ravel_multi_index(tuple(c.T), torus.dims)
    out.flags.writeable = False
    return out


@memoized(maxsize=256, key=lambda torus: torus)
def _search_tables(torus: Torus) -> tuple[list, list, list]:
    """Coordinates, neighbor ranks and ``cuts`` as Python lists (memoized):
    ``cuts[k][t][c]`` lists the slots along dimension ``k`` whose hop out
    of coordinate ``c`` cuts the ring distance to ``t``.
    """
    layout = link_layout(torus)
    cuts = []
    for k, a in enumerate(torus.dims):
        steps = ((int(layout.slot_up[k]), 1), (int(layout.slot_down[k]), -1))
        rings = [[min((t - c) % a, (c - t) % a) for c in range(a)]
                 for t in range(a)]
        cuts.append([
            [sorted({s for s, d in steps if r[(c + d) % a] < r[c]})
             for c in range(a)]
            for r in rings
        ])
    return list(torus.vertices()), _neighbor_table(torus).tolist(), cuts


def masked_bfs_links(
    torus: Torus, src_rank: int, dst_rank: int, mask: np.ndarray
) -> np.ndarray | None:
    """Link ids of :func:`repro.netsim.routing.bfs_route` around ``mask``.

    ``mask`` is a :func:`fault_link_mask`; the route is empty for
    ``src == dst`` and ``None`` if *dst* is unreachable.  The caller
    handles endpoint liveness.  That route is the lexicographically
    smallest slot sequence among the shortest surviving paths: each BFS
    level's frontier is sorted by its tree paths' slot sequences, and a
    vertex's parent is its first ``(frontier position, slot)``.  If a
    surviving path is as short as the healthy torus distance, the
    shortest paths are those whose every hop cuts the ring distance to
    *dst*, and a depth-first search over such hops in slot order finds
    the route first.  Only if it finds none (a detour or a
    disconnection), or gives up after ``_DEAD_END_BUDGET`` dead ends,
    does the level sweep run.
    """
    masked = set(np.flatnonzero(mask).tolist())
    return _reroute_links(torus, src_rank, dst_rank, mask, masked)


def _reroute_links(
    torus: Torus, src: int, dst: int, mask: np.ndarray, masked: set[int]
) -> np.ndarray | None:
    """The :func:`masked_bfs_links` route; ``masked`` holds ``mask``'s ids."""
    links = _lexmin_shortest_links(torus, src, dst, masked)
    if links is None:
        links = _masked_bfs_sweep(torus, src, dst, mask)
    return links


def _lexmin_shortest_links(
    torus: Torus, src_rank: int, dst_rank: int, masked: set[int]
) -> np.ndarray | None:
    """The lex-min surviving path of healthy length, or ``None`` (none,
    or none found within the dead-end budget)."""
    degree = link_layout(torus).degree
    coords, nbr, cuts = _search_tables(torus)
    cut = [cuts[k][t] for k, t in enumerate(coords[dst_rank])]

    def hops(u: int) -> list[tuple[int, int]]:
        # Reversed, so that pop() takes the smallest slot first.
        row, base = nbr[u], u * degree
        return [(base + s, row[s]) for k, c in enumerate(coords[u])
                for s in cut[k][c] if base + s not in masked][::-1]

    # A vertex that leads nowhere is never re-entered: O(V·degree) hops,
    # and at most _DEAD_END_BUDGET dead ends before the sweep takes over.
    dead, path = set(), []
    stack = [(src_rank, hops(src_rank))]
    while stack and stack[-1][0] != dst_rank:
        u, todo = stack[-1]
        if not todo:
            if len(dead) == _DEAD_END_BUDGET:
                return None
            dead.add(u)
            stack.pop()
            del path[-1:]
        else:
            link, v = todo.pop()
            if v not in dead:
                path.append(link)
                stack.append((v, hops(v)))
    return np.asarray(path, dtype=np.int64) if stack else None


def _masked_bfs_sweep(
    torus: Torus, src_rank: int, dst_rank: int, mask: np.ndarray
) -> np.ndarray | None:
    """The :func:`masked_bfs_links` route by a vectorized level sweep.

    Keeping each vertex's first (frontier position, slot) candidate is
    the scalar loop's ``v not in prev`` rule: the same tie-breaks.
    """
    if src_rank == dst_rank:
        return np.empty(0, dtype=np.int64)
    layout = link_layout(torus)
    degree = layout.degree
    if degree == 0:
        return None
    nbr = _neighbor_table(torus)
    visited = np.zeros(torus.num_vertices, dtype=bool)
    visited[src_rank] = True
    via_link = np.full(torus.num_vertices, -1, dtype=np.int64)
    frontier = np.asarray([src_rank], dtype=np.int64)
    slots = np.arange(degree, dtype=np.int64)
    # Reused scatter buffer for the per-level first-occurrence dedup.
    order = np.full(torus.num_vertices, -1, dtype=np.int64)
    while frontier.size:
        links = (frontier[:, None] * degree + slots[None, :]).ravel()
        v = nbr[frontier].ravel()
        ok = ~(mask[links] | visited[v])
        v_ok = v[ok]
        if not v_ok.size:
            return None
        link_ok = links[ok]
        # First occurrence per vertex in enumeration order — what
        # ``np.unique(v_ok, return_index=True)`` computes, but via a
        # linear reverse scatter (last write wins → smallest index
        # survives) instead of a sort.
        order[v_ok[::-1]] = np.arange(
            v_ok.size - 1, -1, -1, dtype=np.int64
        )
        uniq = np.flatnonzero(order >= 0)
        first = order[uniq]
        order[uniq] = -1  # reset only the touched slots
        visited[uniq] = True
        via_link[uniq] = link_ok[first]
        if visited[dst_rank]:
            out: list[int] = []
            cur = dst_rank
            while cur != src_rank:
                lk = int(via_link[cur])
                out.append(lk)
                cur = lk // degree
            out.reverse()
            return np.asarray(out, dtype=np.int64)
        frontier = v_ok[np.sort(first)]
    return None  # pragma: no cover - loop exits via v_ok.size above


def batch_fault_aware_routes(
    torus: Torus,
    src: np.ndarray,
    dst: np.ndarray,
    faults=None,
    tie: str = "parity",
    healthy: PathMatrix | None = None,
) -> tuple[PathMatrix, np.ndarray]:
    """Fault-masked batch routing: vectorized where healthy, degraded
    per-flow where not.

    All flows are first routed by the vectorized
    :func:`batch_dimension_ordered_routes`; only flows whose natural
    path crosses a blocked link (or whose endpoint node is down) fall
    back to a BFS reroute on the surviving links with
    :func:`masked_bfs_links` (link for link the scalar
    :func:`~repro.netsim.routing.fault_aware_route`; property-tested).
    A flow with *no* surviving route does not raise — it gets an empty
    path and its index is reported, so one severed pair degrades that
    flow, not the whole batch (per-scenario degradation, the sweep
    callers turn these into :class:`repro.faults.DegradedResult` rows).

    Parameters
    ----------
    healthy:
        Optional pre-computed healthy route matrix — exactly
        ``batch_dimension_ordered_routes(torus, src, dst, tie=tie)`` —
        so sweep callers evaluating many fault sets over one traffic
        pattern route the healthy pattern once.

    Returns
    -------
    (PathMatrix, np.ndarray)
        The path matrix (connected flow ``i`` matches
        ``net.path_to_links(fault_aware_route(...))`` link for link;
        disconnected flows have empty paths) and the sorted int64 array
        of disconnected flow indices.
    """
    src = np.ascontiguousarray(src, dtype=np.int64).ravel()
    dst = np.ascontiguousarray(dst, dtype=np.int64).ravel()
    if healthy is not None:
        if len(healthy) != len(src):
            raise ValueError(
                f"healthy PathMatrix has {len(healthy)} flows for "
                f"{len(src)} (src, dst) pairs"
            )
        pm = healthy
    else:
        pm = batch_dimension_ordered_routes(torus, src, dst, tie=tie)
    none_disconnected = np.empty(0, dtype=np.int64)
    if faults is None or faults.is_empty():
        return pm, none_disconnected
    mask = fault_link_mask(torus, faults)

    hit = np.zeros(len(pm), dtype=bool)
    hit_entries = mask[pm.link_ids]
    if hit_entries.any():
        hit[np.unique(pm.flow_ids()[hit_entries])] = True
    # A down endpoint disconnects a flow regardless of its path —
    # including zero-hop src == dst flows, which have no links to hit.
    node_down = np.zeros(torus.num_vertices, dtype=bool)
    dead = [n for n in faults.failed_nodes if torus.contains(n)]
    if dead:
        node_down[vertex_indices(torus, dead)] = True
    need = np.flatnonzero(hit | node_down[src] | node_down[dst])
    if need.size == 0:
        return pm, none_disconnected

    empty = np.empty(0, dtype=np.int64)
    masked = set(np.flatnonzero(mask).tolist())
    replacements: dict[int, np.ndarray] = {}
    disconnected: list[int] = []
    for i in need.tolist():
        if node_down[src[i]] or node_down[dst[i]]:
            disconnected.append(i)
            replacements[i] = empty
            continue
        links = _reroute_links(torus, int(src[i]), int(dst[i]), mask, masked)
        if links is None:
            disconnected.append(i)
            replacements[i] = empty
        else:
            replacements[i] = links
    return (
        _splice_paths(pm, replacements),
        np.asarray(disconnected, dtype=np.int64),
    )


def _splice_paths(
    pm: PathMatrix, replacements: dict[int, np.ndarray]
) -> PathMatrix:
    """A new :class:`PathMatrix` with some flows' paths replaced.

    The untouched CSR slices between the sorted replaced rows are
    concatenated with the replacements: ``from_paths`` of the patched
    list, without a per-flow pass.
    """
    offsets, lengths = pm.offsets, np.diff(pm.offsets)
    pieces, prev = [], 0
    for i in sorted(replacements):
        lengths[i] = len(replacements[i])
        pieces += (pm.link_ids[offsets[prev] : offsets[i]], replacements[i])
        prev = i + 1
    pieces.append(pm.link_ids[offsets[prev] :])
    new_offsets = np.zeros(len(pm) + 1, dtype=np.int64)
    np.cumsum(lengths, out=new_offsets[1:])
    return PathMatrix(np.concatenate(pieces), new_offsets)
