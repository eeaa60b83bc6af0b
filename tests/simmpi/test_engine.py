"""Unit tests for the virtual-time MPI engine."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.simmpi import (
    Barrier,
    Compute,
    DeadlockError,
    Isend,
    Recv,
    Send,
    SendRecv,
    VirtualMpi,
)
from repro.simmpi.engine import _Group, _VectorFlows
from repro.simmpi.ledger import BULK_MIN
from repro.topology import Torus


@pytest.fixture
def ring4():
    return VirtualMpi(Torus((4,)), link_bandwidth=2.0)


class TestPointToPoint:
    def test_single_transfer_time(self, ring4):
        def prog(rank, size):
            if rank == 0:
                yield Send(dst=1, gb=4.0)
            elif rank == 1:
                yield Recv(src=0)

        assert ring4.run(prog).time == pytest.approx(2.0)

    def test_pingpong_serializes(self, ring4):
        def prog(rank, size):
            if rank == 0:
                yield Send(dst=1, gb=4.0)
                yield Recv(src=1)
            elif rank == 1:
                yield Recv(src=0)
                yield Send(dst=0, gb=4.0)

        assert ring4.run(prog).time == pytest.approx(4.0)

    def test_recv_posted_first(self, ring4):
        def prog(rank, size):
            if rank == 1:
                yield Recv(src=0)
            elif rank == 0:
                yield Compute(seconds=1.0)
                yield Send(dst=1, gb=2.0)

        # 1 s compute then 1 s transfer.
        assert ring4.run(prog).time == pytest.approx(2.0)

    def test_tags_must_match(self, ring4):
        def prog(rank, size):
            if rank == 0:
                yield Send(dst=1, gb=1.0, tag=7)
            elif rank == 1:
                yield Recv(src=0, tag=8)

        with pytest.raises(DeadlockError):
            ring4.run(prog)

    def test_same_node_free(self):
        # Two ranks on one node: transfer is instantaneous.
        world = VirtualMpi(Torus((4,)), rank_to_node=[0, 0])

        def prog(rank, size):
            if rank == 0:
                yield Send(dst=1, gb=100.0)
            else:
                yield Recv(src=0)

        assert world.run(prog).time == pytest.approx(0.0)

    def test_multiple_messages_fifo(self, ring4):
        def prog(rank, size):
            if rank == 0:
                yield Send(dst=1, gb=2.0, tag=0)
                yield Send(dst=1, gb=2.0, tag=0)
            elif rank == 1:
                yield Recv(src=0, tag=0)
                yield Recv(src=0, tag=0)

        assert ring4.run(prog).time == pytest.approx(2.0)


class TestContention:
    def test_shared_link_halves_rate(self):
        """Ranks 0 and 1 both send to their +1 neighbor... use a line
        where both flows traverse the same link."""
        world = VirtualMpi(Torus((6,)), link_bandwidth=2.0)

        def prog(rank, size):
            if rank == 0:
                yield Send(dst=2, gb=2.0)   # path 0->1->2
            elif rank == 1:
                yield Send(dst=2, gb=2.0)   # path 1->2 (shared link)
            elif rank == 2:
                yield Recv(src=0)
                # Both transfers overlap only if both recvs are posted;
                # post the second immediately after.
                yield Recv(src=1)

        # Sequentialized by the single receiver's posts: first flow
        # 1 s, second 1 s.
        assert world.run(prog).time == pytest.approx(2.0)

    def test_antipodal_exchange_rates(self, ring4):
        def prog(rank, size):
            yield SendRecv(peer=(rank + 2) % 4, gb=2.0)

        # Parity-split antipodal traffic: 1 flow per link: 1 s.
        assert ring4.run(prog).time == pytest.approx(1.0)

    def test_unequal_exchanges_finish_independently(self):
        """Disjoint neighbor pairs with different volumes finish at
        their own times; the makespan is the slower pair's."""
        world = VirtualMpi(Torus((8,)), link_bandwidth=2.0)

        def prog(rank, size):
            if rank == 0:
                yield SendRecv(peer=1, gb=2.0)
            elif rank == 1:
                yield SendRecv(peer=0, gb=2.0)
            elif rank == 2:
                yield SendRecv(peer=3, gb=6.0)
            elif rank == 3:
                yield SendRecv(peer=2, gb=6.0)

        res = world.run(prog)
        assert res.time == pytest.approx(3.0)
        assert res.ranks[0].finish_time == pytest.approx(1.0)
        assert res.ranks[2].finish_time == pytest.approx(3.0)


class TestCollectveControl:
    def test_barrier_synchronizes(self, ring4):
        def prog(rank, size):
            yield Compute(seconds=float(rank))
            yield Barrier()
            yield Compute(seconds=1.0)

        assert ring4.run(prog).time == pytest.approx(4.0)

    def test_zero_compute_is_free(self, ring4):
        def prog(rank, size):
            yield Compute(seconds=0.0)

        assert ring4.run(prog).time == 0.0

    def test_stats_accounting(self, ring4):
        def prog(rank, size):
            yield Compute(seconds=0.5)
            if rank == 0:
                yield Send(dst=1, gb=4.0)
            elif rank == 1:
                yield Recv(src=0)

        res = ring4.run(prog)
        assert res.ranks[0].gb_sent == pytest.approx(4.0)
        assert res.ranks[0].messages_sent == 1
        assert res.ranks[1].gb_sent == 0.0
        assert res.max_compute_seconds == pytest.approx(0.5)
        assert res.total_gb_sent == pytest.approx(4.0)


class TestValidation:
    def test_bad_op_rejected(self, ring4):
        def prog(rank, size):
            yield "not an op"

        with pytest.raises(TypeError):
            ring4.run(prog)

    def test_bad_rank_to_node(self):
        with pytest.raises(ValueError):
            VirtualMpi(Torus((4,)), rank_to_node=[0, 9])

    def test_deadlock_barrier_subset(self, ring4):
        def prog(rank, size):
            if rank < 2:
                yield Barrier()

        with pytest.raises(DeadlockError):
            ring4.run(prog)

    def test_op_validation(self):
        with pytest.raises(ValueError):
            Send(dst=0, gb=0.0)
        with pytest.raises(ValueError):
            Compute(seconds=-1.0)
        with pytest.raises(ValueError):
            SendRecv(peer=0, gb=-1.0)

    @pytest.mark.parametrize("seconds", [math.nan, math.inf])
    def test_compute_rejects_non_finite_seconds(self, seconds):
        # NaN slips past a plain ``< 0`` test; a run that yielded one
        # spun to its event budget "at virtual time inf".
        with pytest.raises(ValueError, match="must be finite"):
            Compute(seconds=seconds)

    def test_compute_negative_message_unchanged(self):
        for seconds in (-1.0, -math.inf):
            with pytest.raises(ValueError, match="non-negative"):
                Compute(seconds=seconds)

    def test_program_yielding_nan_compute_fails_fast(self, ring4):
        def prog(rank, size):
            yield Compute(seconds=math.nan)

        with pytest.raises(ValueError, match="must be finite"):
            ring4.run(prog)

    @pytest.mark.parametrize("op", [Send, Isend])
    def test_transfer_op_errors_name_the_field(self, op):
        with pytest.raises(TypeError, match="dst must be an int"):
            op(dst=1.0, gb=1.0)
        with pytest.raises(ValueError, match="dst must be non-negative"):
            op(dst=-1, gb=1.0)
        with pytest.raises(ValueError, match="gb must be positive and finite"):
            op(dst=1, gb=math.nan)
        with pytest.raises(TypeError, match="tag must be an int"):
            op(dst=1, gb=1.0, tag=True)

    def test_sendrecv_and_recv_errors_name_the_field(self):
        with pytest.raises(TypeError, match="peer must be an int"):
            SendRecv(peer=np.int64(1), gb=1.0)
        with pytest.raises(ValueError, match="gb must be positive and finite"):
            SendRecv(peer=1, gb=math.inf)
        with pytest.raises(TypeError, match="gb must be a number, got bool"):
            SendRecv(peer=1, gb=True)
        with pytest.raises(ValueError, match="src must be non-negative"):
            Recv(src=-2)
        with pytest.raises(ValueError, match="tag must be non-negative"):
            Recv(src=0, tag=-1)

    def test_transfer_ops_accept_non_float_volumes(self):
        # Only exact ints/floats take the inline check; the rest fall
        # back to the validation helpers, which accept them as before.
        assert SendRecv(peer=1, gb=2).gb == 2
        assert Send(dst=1, gb=np.float32(0.5)).gb == np.float32(0.5)


def _queued_store(paths, num_links=8):
    """A flow store holding *paths* (node 0 -> node i+1) in its queue."""
    flows = _VectorFlows(num_links)
    group = _Group(waiters=(0,), outstanding=len(paths))
    for i, path in enumerate(paths):
        flows.add(np.asarray(path), 1.0, group, 0, i + 1)
    return flows


class TestFlowQueue:
    """``_VectorFlows.add`` only queues; every reader admits first."""

    def test_len_counts_queued_flows(self):
        flows = _queued_store([[0], [1, 2]])
        assert flows.ledger.num_active == 0
        assert len(flows) == 2

    def test_solve_admits_queue_in_add_order(self):
        paths = [[i % 8] for i in range(BULK_MIN + 2)]
        flows = _queued_store(paths)
        flows.solve_dt(np.ones(8))
        led = flows.ledger
        assert len(flows) == led.num_active == len(paths)
        assert led.order_keys[: len(paths)].tolist() == list(
            range(len(paths))
        )
        assert led.dst_nodes[: len(paths)].tolist() == list(
            range(1, len(paths) + 1)
        )

    @pytest.mark.parametrize("queued", [1, BULK_MIN + 1])
    def test_solve_sees_flows_queued_since_last_solve(self, queued):
        flows = _queued_store([[0]])
        caps = np.ones(8)
        assert flows.solve_dt(caps) == 1.0
        group = _Group(waiters=(0,), outstanding=queued)
        for _ in range(queued):
            flows.add(np.array([0]), 1.0, group, 0, 1)
        # 1 + queued flows now share link 0.
        assert flows.solve_dt(caps) == 1.0 + queued
        assert len(flows._rates) == 1 + queued

    def test_degraded_count_sees_queued_flows(self):
        flows = _queued_store([[0]])
        flows.solve_dt(np.ones(8))
        flows.add(np.array([1, 2]), 1.0, _Group((0,), 1), 0, 2)
        mask = np.zeros(8, dtype=bool)
        mask[2] = True
        assert flows.degraded_count(mask) == 1
        mask[0] = True
        assert flows.degraded_count(mask) == 2

    def test_reroute_severed_sees_queued_flows(self):
        flows = _queued_store([[0], [1]])
        flows.solve_dt(np.ones(8))
        flows.add(np.array([2, 3]), 1.0, _Group((0,), 1), 0, 3)
        caps = np.ones(8)
        caps[3] = 0.0
        reroutes, lost = flows.reroute_severed(
            caps, lambda src, dst: np.array([5])
        )
        assert (reroutes, lost) == (1, [])
        assert flows.ledger.link_load.tolist() == [1, 1, 0, 0, 0, 1, 0, 0]

    def test_restore_routes_sees_queued_flows(self):
        flows = _queued_store([[0]])
        flows.solve_dt(np.ones(8))
        flows.add(np.array([4, 5]), 1.0, _Group((0,), 1), 0, 2)
        preferred = {1: np.array([0]), 2: np.array([6])}
        assert flows.restore_routes(lambda src, dst: preferred[dst]) == 1
        act = flows.ledger.active_slots_by_order()
        assert [flows.ledger.path(s).tolist() for s in act] == [[0], [6]]


class TestAgainstFlowLevelExperiment:
    def test_pairing_program_matches_experiment(self):
        """Writing the paper's pairing benchmark as a rank program gives
        the same virtual time as the flow-level harness."""
        from repro.allocation.geometry import PartitionGeometry
        from repro.experiments.pairing import (
            PairingParameters,
            run_pairing,
        )

        geo = PartitionGeometry((1, 1, 1, 1))
        params = PairingParameters(rounds=2)
        expected = run_pairing(geo, params).time_seconds

        torus = geo.bgq_network()
        verts = list(torus.vertices())
        idx = {v: i for i, v in enumerate(verts)}
        vol = params.volume_per_pair_gb

        def prog(rank, size):
            peer = idx[torus.antipode(verts[rank])]
            yield SendRecv(peer=peer, gb=vol)

        world = VirtualMpi(torus, link_bandwidth=params.link_bandwidth)
        res = world.run(prog)
        assert res.time == pytest.approx(expected)
