"""Per-pair round-bottleneck oracle.

The scalar form of the static bottleneck model: every (src, dst) pair is
routed on its own with :func:`repro.netsim.routing.dimension_ordered_route`,
turned into link ids with ``LinkNetwork.path_to_links``, and its volume
added path by path into a dense load vector.  The round takes its most
loaded link's load over capacity.

``LinkNetwork.bottleneck_time`` over a batch-routed ``PathMatrix`` must
match it bit for bit: ``bincount`` adds each link's contributions in the
same pair order as ``load[path] += v``.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.experiments.matmul import step_traffic_matrix
from repro.kernels.caps import CapsConfig, caps_steps
from repro.kernels.costmodel import LINK_BANDWIDTH_GB_PER_S
from repro.netsim.embedding import block_embedding
from repro.netsim.network import LinkNetwork
from repro.netsim.routing import dimension_ordered_route
from repro.topology.torus import Torus

_GB = 1024.0**3


class ScalarRounds:
    """Round times on one torus network, routed and loaded pair by pair."""

    def __init__(self, net: LinkNetwork, torus: Torus, tie: str = "parity"):
        self.net = net
        self.torus = torus
        self.tie = tie
        self._verts = list(torus.vertices())
        self._paths: dict[tuple[int, int], np.ndarray] = {}

    def links(self, src: int, dst: int) -> np.ndarray:
        key = (int(src), int(dst))
        path = self._paths.get(key)
        if path is None:
            path = self.net.path_to_links(
                dimension_ordered_route(
                    self.torus, self._verts[key[0]], self._verts[key[1]],
                    tie=self.tie,
                )
            )
            self._paths[key] = path
        return path

    def round_time(
        self, src: Iterable[int], dst: Iterable[int], volumes: Iterable[float]
    ) -> float:
        load = np.zeros(self.net.num_links, dtype=float)
        for s, d, v in zip(src, dst, volumes):
            if s == d:
                continue
            path = self.links(s, d)
            if len(path):
                load[path] += float(v)
        if not load.any():
            return 0.0
        return float((load / self.net.capacities).max())


def caps_step_times(
    geometry,
    num_ranks: int,
    matrix_dim: int,
    max_cores: int | None = None,
    schedule: str = "rounds",
    digit_order: str = "deep-major",
    node_order: str = "tedcba",
) -> tuple[float, ...]:
    """Per-BFS-step CAPS communication times, one pair at a time.

    Mirrors :func:`repro.experiments.matmul.run_caps_on_geometry` at the
    default link bandwidth and no slowdown.
    """
    torus = geometry.bgq_network()
    oracle = ScalarRounds(
        LinkNetwork(torus, link_bandwidth=LINK_BANDWIDTH_GB_PER_S), torus
    )
    node_of_rank = block_embedding(
        torus, num_ranks, max_ranks_per_node=max_cores, node_order=node_order
    ).node_indices
    config = CapsConfig(
        n=matrix_dim, num_ranks=num_ranks, digit_order=digit_order
    )
    step_times = []
    for step in caps_steps(config):
        gb_per_pair = step.bytes_per_rank / (step.group_size - 1) / _GB

        def round_time(j: int | None) -> float:
            src, dst, counts = step_traffic_matrix(
                num_ranks, step.stride, step.group_size, node_of_rank,
                round_offset=j,
            )
            return oracle.round_time(
                src, dst, (float(c) * gb_per_pair for c in counts)
            )

        if schedule == "superposition":
            step_times.append(round_time(None))
        else:
            total = 0.0
            for j in range(1, step.group_size):
                total += round_time(j)
            step_times.append(total)
    return tuple(step_times)
