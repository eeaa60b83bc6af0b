"""Route-cache reuse in the virtual MPI engine.

The engine prebuilds routes lazily into an instance-level cache that is
valid for the construction-time fault set.  Scheduling mid-run fault
events must not discard that cache for the portion of the run *before*
the first event applies — only an applied event invalidates routes.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    FaultEvent,
    FaultSet,
    PartitionDisconnectedError,
    RepairEvent,
)
from repro.netsim.routing import fault_aware_route
from repro.simmpi import (
    Compute,
    Isend,
    Recv,
    Send,
    SendRecv,
    VirtualMpi,
)
from repro.topology import Torus
from tests.oracles.scalar_routes import scalar_links


def antipodal(rank, size):
    yield SendRecv(peer=(rank + size // 2) % size, gb=0.5)


def counting_routes(monkeypatch):
    """Patch the engine's batch router to count its invocations."""
    import repro.simmpi.engine as engine_mod

    calls = {"n": 0}
    real = engine_mod.batch_fault_aware_routes

    def counted(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "batch_fault_aware_routes", counted)
    return calls


class TestPristineCacheReuse:
    def test_second_run_hits_cache_without_events(self, monkeypatch):
        world = VirtualMpi(Torus((4, 4)), link_bandwidth=2.0)
        calls = counting_routes(monkeypatch)
        first = world.run(antipodal)
        routed = calls["n"]
        assert routed > 0
        assert world.run(antipodal) == first
        assert calls["n"] == routed  # every route served from the cache

    def test_pre_event_routes_hit_cache_with_scheduled_events(
        self, monkeypatch
    ):
        # A late event (after the 0.5 GB transfers complete at 2 GB/s)
        # must not stop the run from using the pristine route cache.
        late = FaultEvent(
            time=1e6, faults=FaultSet(failed_links=[((0, 0), (0, 1))])
        )
        world = VirtualMpi(
            Torus((4, 4)), link_bandwidth=2.0, fault_events=[late]
        )
        calls = counting_routes(monkeypatch)
        world.run(antipodal)
        first = calls["n"]
        assert first > 0
        # The instance cache was populated during the pre-event phase,
        # so a rerun of the same instance routes nothing anew.
        assert len(world._route_cache) > 0
        world.run(antipodal)
        assert calls["n"] == first

    def test_event_runs_match_eventless_results_pre_strike(self):
        # With the event far in the future the result must be identical
        # to a run with no events at all (cache reuse must not change
        # semantics).
        torus = Torus((4, 4))
        plain = VirtualMpi(torus, link_bandwidth=2.0).run(antipodal)
        late = FaultEvent(
            time=1e6, faults=FaultSet(failed_links=[((0, 0), (0, 1))])
        )
        evented = VirtualMpi(
            torus, link_bandwidth=2.0, fault_events=[late]
        ).run(antipodal)
        assert evented == plain

    def test_applied_event_invalidates_routes(self, monkeypatch):
        # Once an event actually strikes, routes must be recomputed —
        # the pristine cache may not serve post-event paths.
        ring = Torus((8,))

        def transfer(rank, size):
            if rank == 0:
                yield Send(dst=4, gb=8.0)
            elif rank == 4:
                yield Recv(src=0)

        event = FaultEvent(
            time=1.0, faults=FaultSet(failed_links=[((1,), (2,))])
        )
        world = VirtualMpi(ring, link_bandwidth=2.0, fault_events=[event])
        calls = counting_routes(monkeypatch)
        res = world.run(transfer)
        assert res.reroutes == 1
        after_first = calls["n"]
        # The pristine instance cache still holds only pre-event routes,
        # so a rerun re-derives the post-event route (deterministically).
        res2 = world.run(transfer)
        assert res2 == res
        assert calls["n"] > after_first

    def test_pristine_cache_not_polluted_by_event_routes(self):
        ring = Torus((8,))

        def transfer(rank, size):
            if rank == 0:
                yield Send(dst=4, gb=8.0)
            elif rank == 4:
                yield Recv(src=0)

        event = FaultEvent(
            time=1.0, faults=FaultSet(failed_links=[((1,), (2,))])
        )
        world = VirtualMpi(ring, link_bandwidth=2.0, fault_events=[event])
        first = world.run(transfer)
        # The instance cache holds exactly the pre-event (healthy)
        # route: same links as a fresh healthy engine would derive.
        healthy = VirtualMpi(ring, link_bandwidth=2.0)
        healthy.run(transfer)
        assert set(world._route_cache) == set(healthy._route_cache)
        for key, path in world._route_cache.items():
            assert path.tolist() == healthy._route_cache[key].tolist()
        # And the instance stays deterministically reusable.
        assert world.run(transfer) == first


def recording_route_pairs(monkeypatch):
    """Record every batch the engine routes: ``(faults, routed, dead)``."""
    seen = []
    real = VirtualMpi._route_pairs

    def recorded(self, keys, faults):
        routed, dead = real(self, keys, faults)
        seen.append((faults, dict(routed), set(dead)))
        return routed, dead

    monkeypatch.setattr(VirtualMpi, "_route_pairs", recorded)
    return seen


class TestEventReroute:
    """One batch re-route per event rebuilds the live cache."""

    @pytest.mark.parametrize("tie", ["parity", "positive"])
    @pytest.mark.parametrize(
        "dims, cut",
        [
            ((4, 3, 2), [((1, 0, 0), (2, 0, 0)), ((0, 1, 0), (0, 2, 0))]),
            ((8,), [((1,), (2,))]),
        ],
    )
    def test_live_cache_matches_scalar_oracle(
        self, monkeypatch, dims, cut, tie
    ):
        torus = Torus(dims)
        n = torus.num_vertices
        faults = FaultSet(failed_links=cut)

        def program(rank, size):
            # One antipodal round, then a shifted round: the second
            # round's pairs are cache misses after the fault struck.
            yield SendRecv(peer=(rank + size // 2) % size, gb=1.0)
            yield Isend(dst=(rank + 1) % size, gb=1.0, tag=1)
            yield Recv(src=(rank - 1) % size, tag=1)

        world = VirtualMpi(
            torus,
            tie=tie,
            fault_events=[
                FaultEvent(time=0.1, faults=faults),
                RepairEvent(time=0.6, links=tuple(cut)),
            ],
        )
        seen = recording_route_pairs(monkeypatch)
        res = world.run(program)
        assert res.reroutes > 0
        event_batches = [
            (f, routed) for f, routed, _ in seen if len(routed) >= n
        ]
        # One re-route of the whole working set per event: the fault,
        # then the repair back to the empty fault set.
        assert [f for f, _ in event_batches] == [faults, FaultSet()]
        for f, routed, dead in seen:
            assert not dead
            for (s, d), path in routed.items():
                expected = scalar_links(torus, s, d, f, tie=tie)
                assert path.tolist() == expected.tolist()

    def test_cached_pair_disconnected_later_raises_like_scalar(self):
        # Node 1 of the ring is cut off while no flow is in flight; the
        # cached (0, 1) route must not survive the event.
        ring = Torus((8,))
        cut = FaultSet(failed_links=[((0,), (1,)), ((1,), (2,))])

        def program(rank, size):
            if rank == 0:
                yield Send(dst=1, gb=1.0)
                yield Compute(seconds=1.0)
                yield Send(dst=1, gb=1.0, tag=1)
            elif rank == 1:
                yield Recv(src=0)
                yield Recv(src=0, tag=1)

        world = VirtualMpi(
            ring, fault_events=[FaultEvent(time=1.0, faults=cut)]
        )
        with pytest.raises(PartitionDisconnectedError) as ei:
            world.run(program)
        with pytest.raises(PartitionDisconnectedError) as scalar:
            fault_aware_route(ring, (0,), (1,), cut)
        assert (ei.value.src, ei.value.dst) == (
            scalar.value.src, scalar.value.dst
        )
        assert ei.value.faults == scalar.value.faults
        assert ei.value.report == scalar.value.report
