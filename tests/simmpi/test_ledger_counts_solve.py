"""The engine's water-fill starts from the ledger's per-link counts.

``_VectorFlows.solve_dt`` hands the FlowLedger's load plane to
:func:`~repro.netsim.fairness.max_min_fair_rates` as ``link_counts``.
The first round then needs no CSR gather, and when it saturates every
used link the solve never gathers.  These tests pin when the gather
happens and that the seeded solve is bit-identical to the full one.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.netsim.fairness as fairness_mod
import repro.simmpi.engine as engine_mod
from repro.faults import FaultEvent, FaultSet, RepairEvent
from repro.simmpi import SendRecv, VirtualMpi
from repro.topology import Torus
from tests.oracles.simmpi_flows import oracle_engine


def counting_gathers(monkeypatch):
    """Patch the solver's CSR gather to count its invocations."""
    calls = {"n": 0}
    real = fairness_mod.gather_subset_entries

    def counted(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(fairness_mod, "gather_subset_entries", counted)
    return calls


def neighbour_exchange(rank, size):
    """``simmpi_exchange`` in miniature: dedicated links, staggered GB."""
    for rnd in range(3):
        yield SendRecv(
            peer=rank ^ 1, gb=0.25 + 0.01 * rank + 0.05 * rnd, tag=rnd
        )


def antipodal(rank, size):
    yield SendRecv(peer=(rank + size // 2) % size, gb=1.0 + 0.1 * rank)


def _multi_round_world():
    # Every flow of the 4-ring leg turns the same way: links carry
    # unequal counts, so solves need more than one round.
    return VirtualMpi(Torus((4, 2)), link_bandwidth=2.0, tie="positive")


def _fail_repair_world():
    ring = Torus((8,))
    link = ((2,), (3,))
    return VirtualMpi(
        ring,
        link_bandwidth=2.0,
        fault_events=[
            FaultEvent(time=0.3, faults=FaultSet(failed_links=[link])),
            RepairEvent(time=0.9, links=(link,)),
        ],
    )


class TestFirstRoundGather:
    def test_dedicated_link_exchange_never_gathers(self, monkeypatch):
        world = VirtualMpi(Torus((8, 4)), link_bandwidth=2.0)
        calls = counting_gathers(monkeypatch)
        result = world.run(neighbour_exchange)
        assert calls["n"] == 0
        with oracle_engine():
            assert VirtualMpi(
                Torus((8, 4)), link_bandwidth=2.0
            ).run(neighbour_exchange) == result

    def test_multi_round_solves_gather_and_match_oracle(self, monkeypatch):
        calls = counting_gathers(monkeypatch)
        result = _multi_round_world().run(antipodal)
        assert calls["n"] > 0
        with oracle_engine():
            assert _multi_round_world().run(antipodal) == result


def checked_solver(monkeypatch):
    """Wrap the engine's solver: every seeded solve is re-run in full.

    Asserts that the seeded rates equal the full solve's bit for bit,
    and that the counts handed in equal a fresh bincount over the
    active flows' paths.
    """
    real = engine_mod.max_min_fair_rates
    solves = {"n": 0}

    def solve(paths, capacities, **kwargs):
        counts = kwargs["link_counts"]
        rates = real(paths, capacities, **kwargs)
        del kwargs["link_counts"]
        full = real(paths, capacities, **kwargs)
        assert rates.tobytes() == full.tobytes()
        entries = np.concatenate([paths[i] for i in kwargs["active"]])
        assert counts.tolist() == np.bincount(
            entries, minlength=len(capacities)
        ).tolist()
        solves["n"] += 1
        return rates

    monkeypatch.setattr(engine_mod, "max_min_fair_rates", solve)
    return solves


class TestSeededRatesBitIdentical:
    @pytest.mark.parametrize(
        "make_world, program",
        [
            (lambda: VirtualMpi(Torus((8, 4)), link_bandwidth=2.0),
             neighbour_exchange),
            (_multi_round_world, antipodal),
        ],
        ids=["dedicated", "multi-round"],
    )
    def test_every_event(self, monkeypatch, make_world, program):
        solves = checked_solver(monkeypatch)
        make_world().run(program)
        assert solves["n"] > 0

    def test_across_fail_and_repair_reroutes(self, monkeypatch):
        solves = checked_solver(monkeypatch)
        result = _fail_repair_world().run(antipodal)
        assert result.reroutes > 0
        assert result.restores > 0
        assert solves["n"] > 0


class TestSolverCountsArgument:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="link_counts"):
            fairness_mod.max_min_fair_rates(
                [np.array([0, 1])], np.ones(4),
                link_counts=np.ones(3, dtype=np.int64),
            )

    def test_failed_link_scan_still_fires(self):
        # validate=True gathers for the zero-capacity scan even when the
        # caller supplies counts.
        caps = np.array([1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="crosses failed"):
            fairness_mod.max_min_fair_rates(
                [np.array([0, 1])], caps,
                link_counts=np.array([1, 1, 0]),
            )
