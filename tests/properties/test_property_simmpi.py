"""Property-based tests (hypothesis) for the virtual-time MPI engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FaultEvent,
    FaultSet,
    PartitionDisconnectedError,
    RepairEvent,
)
from repro.simmpi import (
    Barrier,
    Compute,
    Isend,
    Recv,
    Send,
    SendRecv,
    VirtualMpi,
    allgather_ring,
)
from repro.topology import Torus
from tests.oracles.simmpi_flows import oracle_engine


def _world(n_ranks: int) -> VirtualMpi:
    return VirtualMpi(
        Torus((8, 2)), rank_to_node=list(range(n_ranks)),
        link_bandwidth=2.0,
    )


class TestWellFormedProgramsTerminate:
    @given(
        st.integers(min_value=2, max_value=8),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),   # src
                st.integers(min_value=0, max_value=7),   # dst
                st.floats(min_value=0.1, max_value=4.0),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_matched_send_recv_programs_finish(self, n_ranks, msgs):
        """Any message list executed as (sequential) matched send/recv
        pairs terminates with conserved volume accounting."""
        msgs = [
            (s % n_ranks, d % n_ranks, gb)
            for s, d, gb in msgs
            if s % n_ranks != d % n_ranks
        ]

        def prog(rank, size):
            for idx, (s, d, gb) in enumerate(msgs):
                if rank == s:
                    yield Send(dst=d, gb=gb, tag=idx)
                elif rank == d:
                    yield Recv(src=s, tag=idx)
                yield Barrier()

        res = _world(n_ranks).run(prog)
        assert res.time >= 0
        assert res.total_gb_sent == pytest.approx(
            sum(gb for _, _, gb in msgs)
        )

    @given(
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=0.1, max_value=4.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_allgather_always_correct(self, n_ranks, gb):
        results = {}

        def prog(rank, size):
            results[rank] = yield from allgather_ring(
                rank, size, rank * 10, gb
            )

        res = _world(n_ranks).run(prog)
        expected = [i * 10 for i in range(n_ranks)]
        assert all(results[r] == expected for r in range(n_ranks))
        # Each rank forwards size-1 blocks.
        assert res.total_gb_sent == pytest.approx(
            n_ranks * (n_ranks - 1) * gb
        )


class TestTimeProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=5.0),
            min_size=2, max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_barrier_time_is_max_compute(self, seconds):
        def prog(rank, size):
            yield Compute(seconds=seconds[rank])
            yield Barrier()

        res = _world(len(seconds)).run(prog)
        assert res.time == pytest.approx(max(seconds))

    @given(st.floats(min_value=0.1, max_value=8.0))
    @settings(max_examples=30, deadline=None)
    def test_exchange_time_linear_in_volume(self, gb):
        def prog(rank, size):
            if rank < 2:
                yield SendRecv(peer=1 - rank, gb=gb)

        res = _world(4).run(prog)
        assert res.time == pytest.approx(gb / 2.0)

    @given(
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.1, max_value=2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_virtual_time_deterministic(self, n_ranks, gb):
        def prog(rank, size):
            # Deterministic simple pattern: neighbor exchange by parity.
            peer = rank ^ 1
            if peer < size:
                yield SendRecv(peer=peer, gb=gb)

        world = _world(n_ranks if n_ranks % 2 == 0 else n_ranks + 1)
        a = world.run(prog).time
        b = world.run(prog).time
        assert a == b


# --------------------------------------------------------------------- #
# Vector engine ≡ oracle differential suite                              #
# --------------------------------------------------------------------- #
#
# The FlowLedger engine must reproduce the per-object oracle
# (tests/oracles/simmpi_flows.py) *bit for bit*: RunResult dataclass
# equality compares every float exactly (time, per-rank stats, reroutes,
# restores, degraded_flow_seconds), with no tolerance.


def _run_both(make_world, prog):
    """Run *prog* on fresh worlds under the oracle and vector engines."""
    with oracle_engine():
        oracle = make_world().run(prog)
    vector = make_world().run(prog)
    return oracle, vector


class TestVectorEngineMatchesOracle:
    @given(
        st.integers(min_value=2, max_value=8),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),   # src
                st.integers(min_value=0, max_value=7),   # dst
                st.floats(min_value=0.1, max_value=4.0),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_send_recv_programs(self, n_ranks, msgs):
        msgs = [
            (s % n_ranks, d % n_ranks, gb)
            for s, d, gb in msgs
            if s % n_ranks != d % n_ranks
        ]

        def prog(rank, size):
            for idx, (s, d, gb) in enumerate(msgs):
                if rank == s:
                    yield Send(dst=d, gb=gb, tag=idx)
                elif rank == d:
                    yield Recv(src=s, tag=idx)
                yield Barrier()

        oracle, vector = _run_both(lambda: _world(n_ranks), prog)
        assert oracle == vector

    @given(
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=0.1, max_value=4.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_allgather_collective(self, n_ranks, gb):
        def prog(rank, size):
            yield from allgather_ring(rank, size, rank, gb)

        oracle, vector = _run_both(lambda: _world(n_ranks), prog)
        assert oracle == vector

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_isend_pipeline_with_compute(
        self, n_ranks, depth, gb, seconds
    ):
        def prog(rank, size):
            nxt = (rank + 1) % size
            prev = (rank - 1) % size
            for d in range(depth):
                yield Isend(dst=nxt, gb=gb, tag=d)
            yield Compute(seconds=seconds * (rank + 1))
            for d in range(depth):
                yield Recv(src=prev, tag=d)

        oracle, vector = _run_both(lambda: _world(n_ranks), prog)
        assert oracle == vector

    @given(
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=0.05, max_value=2.0),
        st.floats(min_value=0.5, max_value=8.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_mid_run_link_failure(self, cut, strike_time, gb):
        """A single severed ring cable mid-run: reroutes must agree."""
        ring = Torus((8,))
        events = [
            FaultEvent(
                time=strike_time,
                faults=FaultSet(
                    failed_links=[((cut,), ((cut + 1) % 8,))]
                ),
            )
        ]

        def prog(rank, size):
            yield SendRecv(peer=(rank + size // 2) % size, gb=gb)

        oracle, vector = _run_both(
            lambda: VirtualMpi(
                ring, link_bandwidth=2.0, fault_events=events
            ),
            prog,
        )
        assert oracle == vector

    @given(
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=1.0, max_value=8.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_fail_then_repair_timeline(
        self, cut, strike_time, repair_delay, gb
    ):
        """Fail → reroute → repair → restore: restores must agree."""
        ring = Torus((8,))
        link = ((cut,), ((cut + 1) % 8,))
        events = [
            FaultEvent(
                time=strike_time,
                faults=FaultSet(failed_links=[link]),
            ),
            RepairEvent(
                time=strike_time + repair_delay, links=(link,)
            ),
        ]

        def prog(rank, size):
            yield SendRecv(peer=(rank + size // 2) % size, gb=gb)
            yield Barrier()
            yield SendRecv(peer=rank ^ 1, gb=gb / 2)

        oracle, vector = _run_both(
            lambda: VirtualMpi(
                ring, link_bandwidth=2.0, fault_events=events
            ),
            prog,
        )
        assert oracle == vector

    @given(
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=0.1, max_value=0.9),
        st.floats(min_value=0.5, max_value=4.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_static_degraded_links(self, slow, factor, gb):
        """Degraded-capacity exposure accounting must agree exactly."""
        ring = Torus((8,))
        faults = FaultSet(
            degraded_links={((slow,), ((slow + 1) % 8,)): factor}
        )

        def prog(rank, size):
            yield SendRecv(peer=(rank + size // 2) % size, gb=gb)

        oracle, vector = _run_both(
            lambda: VirtualMpi(ring, link_bandwidth=2.0, faults=faults),
            prog,
        )
        assert oracle == vector
        assert oracle.degraded_flow_seconds > 0

    def test_disconnection_reports_identically(self):
        """Cutting both ring cables around a node strands its flows;
        both engines must abort with the same structured report."""
        ring = Torus((8,))
        faults = FaultSet(
            failed_links=[((3,), (4,)), ((4,), (5,))]
        )
        events = [FaultEvent(time=0.5, faults=faults)]

        def prog(rank, size):
            yield SendRecv(peer=(rank + size // 2) % size, gb=4.0)

        def report():
            world = VirtualMpi(ring, link_bandwidth=2.0, fault_events=events)
            with pytest.raises(PartitionDisconnectedError) as ei:
                world.run(prog)
            return ei.value.report

        with oracle_engine():
            reports = [report()]
        reports.append(report())
        assert reports[0] == reports[1]
        assert reports[0].aborted_flows == reports[1].aborted_flows
