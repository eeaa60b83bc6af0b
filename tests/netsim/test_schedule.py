"""Unit tests for round-based schedules and collectives."""

from __future__ import annotations

import math

import pytest

from repro.faults import FaultSet
from repro.netsim.collectives import (
    pairwise_alltoall,
    recursive_doubling_allreduce,
    ring_allgather,
    ring_pass,
)
from repro.netsim.network import LinkNetwork
from repro.netsim.schedule import RouteCache, TransferRound, simulate_rounds
from repro.topology.torus import Torus
from tests.oracles.round_bottleneck import ScalarRounds


@pytest.fixture
def ring8():
    torus = Torus((8,))
    net = LinkNetwork(torus, link_bandwidth=2.0)
    return torus, net, RouteCache(net, torus)


class TestTransferRound:
    def test_scalar_volume(self):
        r = TransferRound((0, 1), (1, 2), 3.0)
        assert r.volume_of(0) == 3.0
        assert r.total_volume == 6.0

    def test_vector_volume(self):
        r = TransferRound((0, 1), (1, 2), (1.0, 2.0))
        assert r.volume_of(1) == 2.0
        assert r.total_volume == 3.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            TransferRound((0,), (1, 2), 1.0)
        with pytest.raises(ValueError):
            TransferRound((0, 1), (1, 2), (1.0,))


class TestSimulateRounds:
    def test_single_transfer(self, ring8):
        _, _, cache = ring8
        total, per = simulate_rounds(
            cache, [TransferRound((0,), (1,), 6.0)]
        )
        assert total == pytest.approx(3.0)  # 6 GB over 2 GB/s
        assert per == [pytest.approx(3.0)]

    def test_intranode_free(self, ring8):
        _, _, cache = ring8
        total, _ = simulate_rounds(
            cache, [TransferRound((0,), (0,), 100.0)]
        )
        assert total == 0.0

    def test_rounds_add(self, ring8):
        _, _, cache = ring8
        r = TransferRound((0,), (1,), 2.0)
        total, per = simulate_rounds(cache, [r, r, r])
        assert total == pytest.approx(3.0)
        assert len(per) == 3

    def test_shared_link_sums_load(self, ring8):
        _, _, cache = ring8
        # Two transfers both crossing link 0->1.
        rnd = TransferRound((0, 0), (1, 2), 2.0)
        total, _ = simulate_rounds(cache, [rnd])
        assert total == pytest.approx(2.0)  # 4 GB on the shared link

    def test_links_match_scalar_route(self, ring8):
        torus, net, cache = ring8
        oracle = ScalarRounds(net, torus)
        for s in range(8):
            for d in range(8):
                assert cache.links(s, d).tolist() == oracle.links(s, d).tolist()

    def test_failed_link_off_path_is_free(self, ring8):
        """A failed link no transfer crosses must not turn the round
        time into NaN (0/0 on the dead link); a crossed one is inf."""
        torus, net, _ = ring8
        faulted = net.with_faults(FaultSet(failed_links=[((4,), (5,))]))
        cache = RouteCache(faulted, torus)
        total, per = simulate_rounds(
            cache, [TransferRound((0,), (1,), 6.0)]
        )
        assert (total, per) == (3.0, [3.0])
        total, _ = simulate_rounds(cache, [TransferRound((4,), (5,), 6.0)])
        assert total == math.inf

    @pytest.mark.parametrize("tie", ["parity", "positive"])
    def test_matches_scalar_oracle(self, tie):
        """Exact per-round equality with the per-pair loop on a 3-D
        torus with a length-2 dimension (one merged link slot)."""
        torus = Torus((4, 3, 2))
        net = LinkNetwork(torus, link_bandwidth=2.0)
        n = torus.num_vertices
        rounds = [
            TransferRound(
                r.sources, r.destinations,
                tuple(0.1 + 0.37 * ((7 * i + j) % 11) for i in range(n)),
            )
            for j, r in enumerate(pairwise_alltoall(n, 1.0))
        ]
        oracle = ScalarRounds(net, torus, tie=tie)
        want = [
            oracle.round_time(r.sources, r.destinations, r.volumes)
            for r in rounds
        ]
        total, per = simulate_rounds(RouteCache(net, torus, tie=tie), rounds)
        assert per == want
        assert total == sum(want)


class TestCollectives:
    def test_allgather_round_count(self):
        assert len(ring_allgather(8, 1.0)) == 7
        assert ring_allgather(1, 1.0) == []

    def test_allgather_each_round_is_shift(self):
        for rnd in ring_allgather(5, 1.0):
            for s, d in zip(rnd.sources, rnd.destinations):
                assert d == (s + 1) % 5

    def test_allreduce_round_count(self):
        assert len(recursive_doubling_allreduce(8, 1.0)) == 3

    def test_allreduce_requires_power_of_two(self):
        with pytest.raises(ValueError):
            recursive_doubling_allreduce(6, 1.0)

    def test_allreduce_partners_symmetric(self):
        for rnd in recursive_doubling_allreduce(8, 1.0):
            pairs = set(zip(rnd.sources, rnd.destinations))
            assert all((b, a) in pairs for a, b in pairs)

    def test_alltoall_round_count_and_offsets(self):
        rounds = pairwise_alltoall(6, 1.0)
        assert len(rounds) == 5
        for j, rnd in enumerate(rounds, start=1):
            for s, d in zip(rnd.sources, rnd.destinations):
                assert d == (s + j) % 6

    def test_alltoall_total_volume(self):
        rounds = pairwise_alltoall(4, 2.0)
        assert sum(r.total_volume for r in rounds) == 4 * 3 * 2.0

    def test_ring_pass_mirrors_allgather(self):
        a = ring_allgather(6, 1.5)
        b = ring_pass(6, 1.5)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.sources == rb.sources
            assert ra.destinations == rb.destinations

    def test_collective_times_on_ring(self, ring8):
        """Allgather on the 8-ring: each round moves 1 GB one hop on
        every link simultaneously -> 0.5 s per round, 7 rounds."""
        _, _, cache = ring8
        total, per = simulate_rounds(cache, ring_allgather(8, 1.0))
        assert total == pytest.approx(7 * 0.5)

    def test_alltoall_round_costs_on_ring(self, ring8):
        """Shift-round costs on the 8-ring: near-antipodal offsets (3
        and 5) are the worst — they load one direction with 3 hops per
        flow (the tornado effect) — while the exact-half offset 4 is
        parity-split across both directions and costs less."""
        _, _, cache = ring8
        _, per = simulate_rounds(cache, pairwise_alltoall(8, 1.0))
        assert per == [0.5, 1.0, 1.5, 1.0, 1.5, 1.0, 0.5]
        assert max(per) == per[2] == per[4]


class TestValidation:
    def test_route_cache_topology_mismatch(self):
        t1 = Torus((8,))
        t2 = Torus((4,))
        net = LinkNetwork(t1, link_bandwidth=1.0)
        with pytest.raises(ValueError):
            RouteCache(net, t2)
