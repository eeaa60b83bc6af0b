"""Theorem 3.1 under fail→repair timelines on Blue Gene/Q partitions.

Antipodal ``SendRecv`` sends every rank's volume across the partition's
bisection, so one direction of the cut carries half the ranks' volume.
No simmpi makespan can beat that volume over the cut's bandwidth
(``normalized_bisection_bandwidth`` links at 2 GB/s), whatever cut
links fail and come back mid-run — and the engine must deliver exactly
the bytes the program posted.
"""

from __future__ import annotations

import random

import pytest

from repro.allocation import PartitionGeometry
from repro.faults import FaultEvent, FaultSet, RepairEvent
from repro.simmpi import SendRecv, VirtualMpi

LINK_GBPS = 2.0
GB = 0.5
ROUNDS = 2


def _case(dims):
    geometry = PartitionGeometry(dims)
    torus = geometry.bgq_network()
    verts = list(torus.vertices())
    index = {v: i for i, v in enumerate(verts)}
    peers = [index[torus.antipode(v)] for v in verts]
    k, _ = torus.best_perpendicular_bisection()
    half = torus.dims[k] // 2
    cut = sorted(
        (u, v) for u, v, _ in torus.edges() if (u[k] < half) != (v[k] < half)
    )
    bound = (len(verts) / 2 * ROUNDS * GB) / (
        geometry.normalized_bisection_bandwidth * LINK_GBPS
    )
    return torus, peers, cut, bound


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("dims", [(1, 1, 1, 1), (2, 1, 1, 1)])
def test_fail_repair_timeline_respects_bisection_bound(dims, seed):
    torus, peers, cut, bound = _case(dims)
    rng = random.Random(seed)
    failed = rng.sample(cut, rng.randint(1, 4))
    fail_at = rng.uniform(0.0, 0.8) * bound
    repair_at = fail_at + rng.uniform(0.05, 0.5) * bound
    world = VirtualMpi(
        torus,
        link_bandwidth=LINK_GBPS,
        fault_events=[
            FaultEvent(fail_at, FaultSet(failed_links=failed)),
            RepairEvent(repair_at, links=tuple(failed)),
        ],
    )

    def program(rank, size):
        for rnd in range(ROUNDS):
            yield SendRecv(peer=peers[rank], gb=GB, tag=rnd)

    res = world.run(program)
    assert res.reroutes > 0  # the timeline strikes in-flight traffic
    assert res.time >= bound * (1.0 - 1e-12)
    assert res.total_gb_sent == torus.num_vertices * ROUNDS * GB
