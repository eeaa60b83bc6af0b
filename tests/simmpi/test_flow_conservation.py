"""Per-flow byte conservation in the FlowLedger engine.

A metered ``_VectorFlows`` records each flow's posted volume when the
queued flows are admitted to the ledger, and accumulates ``rate * dt``
per flow at every progress step, keyed by the ledger's ``order_key``
(which survives reroutes and compaction).  Every message must deliver
exactly its GB: the sum of ``rate * dt`` equals the posted volume
within the engine's completion epsilon.  Across a fault, each rerouted
flow must carry exactly the volume it had left.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simmpi.engine as engine_mod
from repro.faults import FaultEvent, FaultSet
from repro.simmpi import SendRecv, VirtualMpi
from repro.simmpi.engine import _EPS
from repro.topology import Torus


class MeteredFlows(engine_mod._VectorFlows):
    """The engine's flow store, metering the volume each flow moves."""

    __slots__ = ("posted", "moved", "carried")
    instances: list[MeteredFlows] = []

    def __init__(self, num_links: int):
        super().__init__(num_links)
        self.posted: dict[int, float] = {}
        self.moved: dict[int, float] = {}
        #: Per reroute event: {order_key: (remaining before, remaining
        #: after, volume moved so far)}.
        self.carried: list[dict[int, tuple[float, float, float]]] = []
        MeteredFlows.instances.append(self)

    def _admit(self) -> None:
        # Queued flows take consecutive slots from the ledger's tail.
        first = self.ledger.num_slots
        gbs = [row[1] for row in self._queue]
        super()._admit()
        keys = self.ledger.order_keys[first : first + len(gbs)].tolist()
        for key, gb in zip(keys, gbs):
            self.posted[key] = gb
            self.moved[key] = 0.0

    def progress(self, dt: float):
        keys = self.ledger.order_keys[self._act].tolist()
        for key, moved in zip(keys, (self._rates * dt).tolist()):
            self.moved[key] += moved
        return super().progress(dt)

    def _remaining_by_key(self) -> dict[int, float]:
        led = self.ledger
        act = led.active_slots()
        return dict(zip(
            led.order_keys[act].tolist(), led.remaining[act].tolist()
        ))

    def reroute_severed(self, caps, path_of):
        before = self._remaining_by_key()
        out = super().reroute_severed(caps, path_of)
        after = self._remaining_by_key()
        self.carried.append({
            key: (before[key], after[key], self.moved[key])
            for key in after
        })
        return out


def run_metered(world: VirtualMpi, program) -> tuple:
    MeteredFlows.instances.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "_VectorFlows", MeteredFlows)
        result = world.run(program)
    (store,) = MeteredFlows.instances
    return result, store


def exchange_program(exchanges):
    """Rank program running *exchanges* (a, b, gb) in list order."""

    def program(rank, size):
        for tag, (a, b, gb) in enumerate(exchanges):
            if rank in (a, b):
                yield SendRecv(peer=b if rank == a else a, gb=gb, tag=tag)

    return program


exchanges_st = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.integers(0, 7),
        st.floats(min_value=0.1, max_value=4.0),
    ).filter(lambda x: x[0] != x[1]),
    min_size=1,
    max_size=8,
)


def assert_conserved(store: MeteredFlows) -> None:
    assert store.posted
    for key, gb in store.posted.items():
        assert abs(store.moved[key] - gb) <= _EPS, (key, gb)


class TestByteConservation:
    @given(exchanges_st)
    @settings(max_examples=40, deadline=None)
    def test_healthy_random_exchanges(self, exchanges):
        world = VirtualMpi(Torus((4, 2)), link_bandwidth=2.0)
        result, store = run_metered(world, exchange_program(exchanges))
        assert_conserved(store)
        assert result.total_gb_sent == pytest.approx(
            sum(2 * gb for _, _, gb in exchanges)
        )

    @given(
        exchanges_st,
        st.integers(0, 7),
        st.floats(min_value=0.05, max_value=2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_mid_run_link_failure(self, exchanges, cut, strike):
        ring = Torus((8,))
        world = VirtualMpi(
            ring,
            link_bandwidth=2.0,
            fault_events=[FaultEvent(
                time=strike,
                faults=FaultSet(failed_links=[((cut,), ((cut + 1) % 8,))]),
            )],
        )
        _, store = run_metered(world, exchange_program(exchanges))
        assert_conserved(store)
        for carried in store.carried:
            for key, (before, after, moved) in carried.items():
                # A reroute restarts exactly the remaining volume ...
                assert after == before
                # ... which is what the flow had not yet moved.
                assert abs(store.posted[key] - moved - before) <= _EPS

    def test_failure_reroutes_in_flight_flows(self):
        """The seeded case the property covers: a reroute happens."""
        ring = Torus((8,))
        world = VirtualMpi(
            ring,
            link_bandwidth=2.0,
            fault_events=[FaultEvent(
                time=0.5,
                faults=FaultSet(failed_links=[((0,), (1,))]),
            )],
        )

        def antipodal(rank, size):
            yield SendRecv(peer=(rank + size // 2) % size, gb=4.0)

        result, store = run_metered(world, antipodal)
        assert result.reroutes > 0
        assert_conserved(store)
        (carried,) = store.carried
        moved = np.array([m for _, _, m in carried.values()])
        assert (moved > 0).all()
