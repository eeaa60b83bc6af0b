"""Theorem 3.1 under fail→repair timelines on Blue Gene/Q partitions.

Antipodal ``SendRecv`` sends every rank's volume across the partition's
bisection, so one direction of the cut carries half the ranks' volume.
No simmpi makespan can beat that volume over the cut's bandwidth
(``normalized_bisection_bandwidth`` links at 2 GB/s), whatever cut
links fail and come back mid-run — and the engine must deliver exactly
the bytes the program posted.

The same bound holds on any torus with an even dimension for random
send/recv programs: each even dimension's perpendicular bisection, in
either direction, caps how fast the program's A→B bytes can cross.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import PartitionGeometry
from repro.faults import FaultEvent, FaultSet, RepairEvent
from repro.netsim.network import LinkNetwork
from repro.simmpi import Barrier, Recv, Send, SendRecv, VirtualMpi
from repro.topology import Torus
from tests.properties.test_property_cut_bound import cut_bounds

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


@st.composite
def send_recv_programs(draw):
    """A torus with an even dimension, ranks placed on distinct nodes,
    and a random message list (as in the engine's oracle property)."""
    dims = draw(
        st.lists(st.integers(2, 6), min_size=1, max_size=3)
        .map(tuple)
        .filter(lambda d: any(a % 2 == 0 for a in d))
    )
    torus = Torus(dims)
    n = torus.num_vertices
    n_ranks = draw(st.integers(2, min(8, n)))
    nodes = draw(
        st.lists(st.integers(0, n - 1), min_size=n_ranks,
                 max_size=n_ranks, unique=True)
    )
    msgs = draw(
        st.lists(
            st.tuples(
                st.integers(0, 7), st.integers(0, 7), st.floats(0.1, 4.0)
            ),
            min_size=1,
            max_size=8,
        )
    )
    msgs = [
        (s % n_ranks, d % n_ranks, gb)
        for s, d, gb in msgs
        if s % n_ranks != d % n_ranks
    ]
    bw = draw(st.sampled_from([1.0, 2.0, 3.5]))
    return torus, nodes, msgs, bw


@given(send_recv_programs())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_random_send_recv_programs_respect_every_bisection_cut(case):
    torus, nodes, msgs, bw = case

    def program(rank, size):
        for idx, (s, d, gb) in enumerate(msgs):
            if rank == s:
                yield Send(dst=d, gb=gb, tag=idx)
            elif rank == d:
                yield Recv(src=s, tag=idx)
            yield Barrier()

    res = VirtualMpi(torus, rank_to_node=nodes, link_bandwidth=bw).run(
        program
    )
    pairs = np.asarray([(s, d) for s, d, _ in msgs], dtype=np.int64)
    ends = np.asarray(nodes)[pairs.reshape(-1, 2)]
    src, dst = ends[:, 0], ends[:, 1]
    volumes = np.asarray([gb for _, _, gb in msgs], dtype=np.float64)
    net = LinkNetwork(torus, link_bandwidth=bw)
    bounds = cut_bounds(torus, net, src, dst, volumes)
    assert bounds
    for bound in bounds:
        assert res.time >= bound * (1.0 - 1e-12)
    assert res.total_gb_sent == pytest.approx(volumes.sum())
