"""Per-pair scalar route oracle.

Routes one (src, dst) node pair at a time with
:func:`repro.netsim.routing.fault_aware_route` and turns the vertex
route into directed link ids with ``LinkNetwork.path_to_links``.  The
batch routers the simmpi engine uses must cache exactly these links.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.network import LinkNetwork
from repro.netsim.routing import fault_aware_route
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
