"""Round-based communication schedules over a simulated network.

Many parallel communication patterns — collectives, the CAPS BFS
exchanges, FFT transposes — execute as a sequence of globally
synchronized *rounds*, each round a set of point-to-point transfers.
This module provides the common machinery:

* :class:`RouteCache` — dimension-ordered batch routing from dense
  node indices to link ids, bound to one network and tie policy;
* :class:`TransferRound` — one round: parallel ``(src, dst, volume)``
  transfers between node indices;
* :func:`simulate_rounds` — total time under the static bottleneck
  model (each round completes when its most loaded link drains): one
  batch route and one weighted ``bincount`` per round through
  :meth:`~repro.netsim.network.LinkNetwork.bottleneck_time`, the same
  kernel the CAPS experiment uses.

Volumes are in the same units as link capacity × time (the experiments
use GB and GB/s).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ..topology.torus import Torus
from .batchroute import PathMatrix, batch_dimension_ordered_routes
from .network import LinkNetwork

__all__ = ["RouteCache", "TransferRound", "simulate_rounds"]


class RouteCache:
    """Dimension-ordered routing between dense node indices of a torus
    network, with a fixed tie policy."""

    def __init__(self, network: LinkNetwork, torus: Torus, tie: str = "parity"):
        if network.topology is not torus and network.topology != torus:
            raise ValueError(
                "network was built over a different topology than the "
                "provided torus"
            )
        self._net = network
        self._torus = torus
        self._tie = tie

    @property
    def network(self) -> LinkNetwork:
        return self._net

    @property
    def num_nodes(self) -> int:
        return self._torus.num_vertices

    def routes(self, src: Sequence[int], dst: Sequence[int]) -> PathMatrix:
        """Routes of every pair ``(src[i], dst[i])``, batch-routed at once."""
        return batch_dimension_ordered_routes(
            self._torus, src, dst, tie=self._tie
        )

    def links(self, src: int, dst: int) -> np.ndarray:
        """Directed link ids of the route from node index *src* to *dst*."""
        return self.routes([src], [dst])[0]


@dataclass(frozen=True)
class TransferRound:
    """One synchronized round of point-to-point transfers.

    Attributes
    ----------
    sources, destinations:
        Dense node indices, same length.
    volumes:
        Per-transfer volume; a scalar applies to every transfer.
    label:
        Optional description (shown by reporting helpers).
    """

    sources: tuple[int, ...]
    destinations: tuple[int, ...]
    volumes: tuple[float, ...] | float
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.sources) != len(self.destinations):
            raise ValueError(
                f"{len(self.sources)} sources but "
                f"{len(self.destinations)} destinations"
            )
        if not isinstance(self.volumes, (int, float)):
            if len(self.volumes) != len(self.sources):
                raise ValueError(
                    f"{len(self.volumes)} volumes for "
                    f"{len(self.sources)} transfers"
                )

    def volume_of(self, i: int) -> float:
        if isinstance(self.volumes, (int, float)):
            return float(self.volumes)
        return float(self.volumes[i])

    @property
    def total_volume(self) -> float:
        if isinstance(self.volumes, (int, float)):
            return float(self.volumes) * len(self.sources)
        return float(sum(self.volumes))


def simulate_rounds(
    cache: RouteCache, rounds: Iterable[TransferRound]
) -> tuple[float, list[float]]:
    """Bottleneck-model time of a round sequence: ``(total, per-round)``.

    Each round's time is its most loaded link's volume divided by that
    link's capacity; rounds are globally synchronized so times add.
    Intra-node transfers (src == dst) are free.  On a faulted network a
    failed link costs nothing unless a transfer crosses it, and then
    the round takes ``inf``.
    """
    net = cache.network
    per_round: list[float] = []
    for rnd in rounds:
        volumes = np.broadcast_to(
            np.asarray(rnd.volumes, dtype=float), (len(rnd.sources),)
        )
        per_round.append(net.bottleneck_time(
            cache.routes(rnd.sources, rnd.destinations), volumes
        ))
    return sum(per_round), per_round
