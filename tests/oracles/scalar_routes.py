"""Per-pair scalar route oracle.

Routes one (src, dst) node pair at a time with
:func:`repro.netsim.routing.fault_aware_route` (or, for an explicit
dimension order, :func:`~repro.netsim.routing.dimension_ordered_route`)
and turns the vertex route into directed link ids with
``LinkNetwork.path_to_links``.  The batch routers must produce exactly
these links.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.network import LinkNetwork
from repro.netsim.routing import dimension_ordered_route, fault_aware_route
from repro.topology.torus import Torus


def scalar_links(
    torus: Torus, src: int, dst: int, faults=None, tie: str = "parity"
) -> np.ndarray:
    """Link ids of the fault-aware route between node indices *src*, *dst*.

    Raises :class:`repro.faults.PartitionDisconnectedError` when
    *faults* leave no route, exactly as the scalar router does.
    """
    verts = list(torus.vertices())
    return LinkNetwork(torus).path_to_links(
        fault_aware_route(torus, verts[src], verts[dst], faults, tie=tie)
    )


def scalar_ordered_links(
    torus: Torus, src, dst, dim_order=None, tie: str = "parity"
) -> list[list[int]]:
    """Per-flow link ids of the dimension-ordered routes ``src[i] ->
    dst[i]`` (node indices), correcting dimensions in *dim_order*."""
    verts = list(torus.vertices())
    net = LinkNetwork(torus)
    return [
        net.path_to_links(dimension_ordered_route(
            torus, verts[s], verts[d], dim_order, tie
        )).tolist()
        for s, d in zip(src, dst)
    ]
