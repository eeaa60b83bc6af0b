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
  ``Sequence[np.ndarray]``-shaped iteration protocol so existing código
  that loops over per-flow arrays keeps working.

Link ids come from an analytic layout (:func:`link_layout`) that mirrors
``LinkNetwork``'s construction order exactly — ``LinkNetwork`` walks
``Torus.vertices()`` (row-major) and, per vertex, ``Torus.neighbors``
(dimensions ascending, + before −, one merged slot for length-2
dimensions) — so batch-routed ids are **bit-identical** to
``net.path_to_links(dimension_ordered_route(...))``.  Property tests
(``tests/properties/test_property_batchroute.py``) enforce this
link-for-link against the scalar oracle.

The scalar path remains available everywhere as an escape hatch: set
``REPRO_VECTOR=0`` in the environment and the experiment drivers fall
back to the oracle router.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .. import contracts, env
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
    "vector_enabled",
]

#: Environment knob: ``REPRO_VECTOR=0`` disables the vectorized batch
#: path in the experiment drivers, restoring the scalar oracle router.
_VECTOR_ENV = "REPRO_VECTOR"


def vector_enabled() -> bool:
    """Whether the vectorized batch-routing path is enabled.

    Reads ``REPRO_VECTOR`` at call time; any of ``0``, ``false``,
    ``no``, ``off`` (case-insensitive) disables it.  The knob exists so
    the scalar router — kept as the property-test oracle — can be forced
    end-to-end when debugging a suspected vectorization issue.
    """
    return env.get_flag(_VECTOR_ENV)


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
    check_tie(tie)
    layout = link_layout(torus)
    dims_arr = np.asarray(torus.dims, dtype=np.int64)
    ndim = torus.ndim
    n_nodes = torus.num_vertices

    src = np.ascontiguousarray(src, dtype=np.int64).ravel()
    dst = np.ascontiguousarray(dst, dtype=np.int64).ravel()
    if len(src) != len(dst):
        raise ValueError(
            f"{len(src)} sources but {len(dst)} destinations"
        )
    for name, arr in (("src", src), ("dst", dst)):
        if arr.size and (arr.min() < 0 or arr.max() >= n_nodes):
            raise ValueError(
                f"{name} node indices must be in [0, {n_nodes - 1}] "
                f"for {torus.name}"
            )
    if dim_order is None:
        order = np.arange(ndim, dtype=np.int64)
    else:
        order = np.asarray(list(dim_order), dtype=np.int64)
        if sorted(order.tolist()) != list(range(ndim)):
            raise ValueError(
                f"dim_order must be a permutation of 0..{ndim - 1}, "
                f"got {tuple(dim_order)}"
            )
    n_flows = len(src)
    if n_flows == 0:
        return PathMatrix(
            np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
        )

    # Coordinates, per-dimension hop counts, and step directions — all
    # (n_flows, ndim) arrays.
    src_c = np.stack(np.unravel_index(src, torus.dims), axis=1).astype(
        np.int64
    )
    dst_c = np.stack(np.unravel_index(dst, torus.dims), axis=1).astype(
        np.int64
    )
    a = dims_arr[None, :]
    up = (dst_c - src_c) % a
    down = (src_c - dst_c) % a
    hops = np.minimum(up, down)
    step = np.where(up < down, 1, -1).astype(np.int64)
    tied = up == down  # includes hops == 0; step unused there
    if tie == "positive":
        step[tied] = 1
    else:  # parity: + from even source coordinates, − from odd
        step[tied] = np.where(src_c[tied] % 2 == 0, 1, -1)

    # Permute into emission (dimension-correction) order.
    src_o = src_c[:, order]
    hops_o = hops[:, order]
    step_o = step[:, order]
    a_o = np.broadcast_to(dims_arr[order], (n_flows, ndim))
    strides_o = np.broadcast_to(
        layout.strides[order], (n_flows, ndim)
    )

    # Linear-index contribution of every *other* dimension while dim k
    # is being corrected: earlier dimensions (in order) sit at their
    # destination coordinate, later ones at their source.
    contrib_src = src_o * strides_o
    contrib_dst = dst_c[:, order] * strides_o
    prefix_dst = np.zeros((n_flows, ndim), dtype=np.int64)
    np.cumsum(contrib_dst[:, :-1], axis=1, out=prefix_dst[:, 1:])
    suffix_src = np.zeros((n_flows, ndim), dtype=np.int64)
    if ndim > 1:
        suffix_src[:, :-1] = np.cumsum(
            contrib_src[:, :0:-1], axis=1
        )[:, ::-1]
    base_o = prefix_dst + suffix_src

    # Expand the (flow, dimension) segments to one flat element per hop.
    seg_len = hops_o.ravel()
    total = int(seg_len.sum())
    offsets = np.zeros(n_flows + 1, dtype=np.int64)
    np.cumsum(hops_o.sum(axis=1), out=offsets[1:])
    if total == 0:
        return PathMatrix(np.empty(0, dtype=np.int64), offsets)
    seg_starts = np.concatenate(
        ([0], np.cumsum(seg_len)[:-1])
    )
    hop_idx = np.arange(total, dtype=np.int64) - np.repeat(
        seg_starts, seg_len
    )

    def expand(grid: np.ndarray) -> np.ndarray:
        return np.repeat(grid.ravel(), seg_len)

    c0 = expand(src_o)
    s = expand(step_o)
    aa = expand(a_o)
    strd = expand(strides_o)
    base = expand(base_o)
    # Slot of the emitted link: +/− by step; merged for length-2 dims
    # (slot_up == slot_down there, so the tie direction is irrelevant,
    # exactly as ``LinkNetwork`` stores one directed link per pair).
    slot_o = np.where(
        step_o > 0, layout.slot_up[order], layout.slot_down[order]
    )
    slot = expand(slot_o)

    coord = (c0 + s * hop_idx) % aa
    link_ids = (base + coord * strd) * layout.degree + slot
    return PathMatrix(link_ids, offsets)


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
    for links the network actually has.

    Fault sets are small (a handful of failures against thousands of
    links), so this is a Python loop over the faults, not over the
    links.
    """
    layout = link_layout(torus)
    mask = np.zeros(torus.num_vertices * layout.degree, dtype=bool)
    if faults is None or faults.is_empty():
        return mask
    dims = torus.dims
    ndim = torus.ndim
    strides = layout.strides

    def in_torus(v) -> bool:
        return len(v) == ndim and all(
            0 <= v[k] < dims[k] for k in range(ndim)
        )

    def rank_of(v) -> int:
        return int(
            sum(int(v[k]) * int(strides[k]) for k in range(ndim))
        )

    def slot_of(u, v) -> int | None:
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
        return int(slot) if slot >= 0 else None

    for u, v in faults.failed_links:
        if not (in_torus(u) and in_torus(v)):
            continue
        slot = slot_of(u, v)
        if slot is not None:
            mask[rank_of(u) * layout.degree + slot] = True
    for n in faults.failed_nodes:
        if not in_torus(n):
            continue
        r = rank_of(n)
        mask[r * layout.degree : (r + 1) * layout.degree] = True
        for v, _w in torus.neighbors(n):
            slot = slot_of(v, n)
            if slot is not None:
                mask[rank_of(v) * layout.degree + slot] = True
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


def masked_bfs_links(
    torus: Torus, src_rank: int, dst_rank: int, mask: np.ndarray
) -> np.ndarray | None:
    """Vectorized masked BFS: directed link ids of the fallback route.

    Explores the torus level by level with all frontier expansions done
    as array operations, skipping links where ``mask`` is true (the
    :func:`fault_link_mask` of the fault set).  Discovery order — and
    therefore every tie-break — matches the scalar
    :func:`repro.netsim.routing.bfs_route` over
    :func:`repro.faults.surviving_topology` exactly: candidates are
    enumerated in (frontier position × slot) order and
    ``np.unique(..., return_index=True)`` keeps the *first* occurrence
    per vertex, which is precisely the scalar loop's ``v not in prev``
    rule.  Returns the link ids of the BFS path (empty for
    ``src == dst``), or ``None`` when *dst* is unreachable.

    The caller is responsible for endpoint liveness (a down endpoint
    disconnects the flow before routing is attempted).
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


def _route_links(
    layout: TorusLinkLayout, torus: Torus, route: Sequence[tuple[int, ...]]
) -> np.ndarray:
    """Directed link ids of a vertex-list route, via the analytic layout.

    Bit-identical to ``LinkNetwork.path_to_links(route)`` (the layout
    mirrors the network's id assignment; property-tested).
    """
    m = len(route) - 1
    if m <= 0:
        return np.empty(0, dtype=np.int64)
    ndim = torus.ndim
    dims = torus.dims
    strides = layout.strides
    out = np.empty(m, dtype=np.int64)
    for j in range(m):
        u, v = route[j], route[j + 1]
        k = next(i for i in range(ndim) if u[i] != v[i])
        step = 1 if (u[k] + 1) % dims[k] == v[k] else -1
        rank = sum(int(u[i]) * int(strides[i]) for i in range(ndim))
        out[j] = layout.link_id(rank, k, step)
    return out


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
    back to a BFS reroute on the surviving links — the vectorized
    :func:`masked_bfs_links` normally, or the scalar
    :func:`~repro.netsim.routing.fault_aware_route` oracle under
    ``REPRO_VECTOR=0`` (both produce identical links; property-tested).
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
    replacements: dict[int, np.ndarray] = {}
    disconnected: list[int] = []
    if vector_enabled():
        for i in need.tolist():
            if node_down[src[i]] or node_down[dst[i]]:
                disconnected.append(i)
                replacements[i] = empty
                continue
            links = masked_bfs_links(
                torus, int(src[i]), int(dst[i]), mask
            )
            if links is None:
                disconnected.append(i)
                replacements[i] = empty
            else:
                replacements[i] = links
    else:
        from ..faults import PartitionDisconnectedError
        from .routing import fault_aware_route

        layout = link_layout(torus)
        verts = list(torus.vertices())
        for i in need.tolist():
            try:
                route = fault_aware_route(
                    torus, verts[src[i]], verts[dst[i]], faults, tie=tie
                )
            except PartitionDisconnectedError:
                disconnected.append(i)
                replacements[i] = empty
                continue
            replacements[i] = _route_links(layout, torus, route)
    return (
        _splice_paths(pm, replacements),
        np.asarray(disconnected, dtype=np.int64),
    )


def _splice_paths(
    pm: PathMatrix, replacements: dict[int, np.ndarray]
) -> PathMatrix:
    """A new :class:`PathMatrix` with some flows' paths replaced.

    Fault sweeps reroute a handful of flows per scenario; rebuilding
    the whole matrix from per-flow arrays costs O(flows) Python work
    per scenario.  Splicing copies the untouched flows' CSR entries in
    one vectorized scatter and writes only the replaced segments
    individually — identical content to ``PathMatrix.from_paths`` over
    the patched path list.
    """
    n = len(pm)
    old_offsets = pm.offsets
    new_lengths = np.diff(old_offsets)
    for i, links in replacements.items():
        new_lengths[i] = len(links)
    new_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_lengths, out=new_offsets[1:])
    out = np.empty(new_offsets[-1], dtype=np.int64)
    changed = np.zeros(n, dtype=bool)
    changed[list(replacements)] = True
    fid = pm.flow_ids()
    keep = ~changed[fid]
    dest = new_offsets[:-1][fid] + (
        np.arange(pm.total_links, dtype=np.int64) - old_offsets[:-1][fid]
    )
    out[dest[keep]] = pm.link_ids[keep]
    for i, links in replacements.items():
        out[new_offsets[i] : new_offsets[i] + len(links)] = links
    return PathMatrix(out, new_offsets)


def _check_layout_consistency(torus: Torus, num_links: int) -> None:
    """Assert a ``LinkNetwork`` link count matches the analytic layout.

    Cheap O(1) guard used by callers that pair a batch-routed
    :class:`PathMatrix` with an independently built ``LinkNetwork``.
    """
    expected = torus.num_vertices * link_layout(torus).degree
    if num_links != expected:
        raise ValueError(
            f"LinkNetwork has {num_links} links but the analytic layout "
            f"of {torus.name} expects {expected}"
        )


def total_route_hops(torus: Torus) -> int:
    """Total hop count of the full bisection pairing on *torus*.

    Convenience for sizing benchmarks: every vertex to its antipode is
    ``sum(a_k // 2)`` hops, times ``|V|`` flows.
    """
    return torus.num_vertices * sum(a // 2 for a in torus.dims)
