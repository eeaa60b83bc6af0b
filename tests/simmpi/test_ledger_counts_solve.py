"""The engine decides round 1 of each solve from a link histogram.

``_VectorFlows.solve_dt`` counts links by (capacity class, ledger load)
and, when every used link saturates in the water-fill's first round,
returns that round's single rate without calling
:func:`~repro.netsim.fairness.max_min_fair_rates`.  These tests pin
that every solve equals the full one byte for byte, that the histogram
always equals a fresh count over the load plane, and when the solver
runs at all.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.netsim.fairness as fairness_mod
import repro.simmpi.engine as engine_mod
from repro import observability
from repro.faults import FaultEvent, FaultSet, RepairEvent
from repro.netsim.fairness import max_min_fair_rates
from repro.simmpi import SendRecv, VirtualMpi
from repro.topology import Torus
from tests.oracles.simmpi_flows import oracle_engine


def counting(monkeypatch, module, name):
    """Patch ``module.name`` to count its invocations."""
    calls = {"n": 0}
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def neighbour_exchange(rank, size):
    """``simmpi_exchange`` in miniature: dedicated links, staggered GB."""
    for rnd in range(3):
        yield SendRecv(
            peer=rank ^ 1, gb=0.25 + 0.01 * rank + 0.05 * rnd, tag=rnd
        )


def antipodal(rank, size):
    yield SendRecv(peer=(rank + size // 2) % size, gb=1.0 + 0.1 * rank)


def overlapping_pairs(rank, size):
    """Pairs (0, 2) and (1, 3) on a ring share links 1-2 both ways."""
    if rank < 4:
        yield SendRecv(peer=rank ^ 2, gb=1.0)


def _dedicated_world(faults=None):
    return VirtualMpi(Torus((8, 4)), link_bandwidth=2.0, faults=faults)


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


def _equal_ratio_world():
    # Halving the single-flow links of overlapping_pairs leaves two
    # capacity classes, (1.0, 1 flow) and (2.0, 2 flows): c/k is 1.0
    # on every used link.
    halved = {((0,), (1,)): 0.5, ((2,), (3,)): 0.5}
    return VirtualMpi(
        Torus((8,)), link_bandwidth=2.0,
        faults=FaultSet(degraded_links=halved),
    )


def checked_solves(monkeypatch):
    """Wrap ``solve_dt``: check each solve against a full solve.

    After every call, ``dt`` and the rates must equal, byte for byte,
    a full :func:`max_min_fair_rates` over the live flows, and the
    histogram must equal a fresh count of links by (capacity class,
    load) over the ledger's load plane.
    """
    real = engine_mod._VectorFlows.solve_dt
    log = {"n": 0, "rebuilds": 0}

    def solve_dt(self, capacities):
        log["rebuilds"] += capacities is not self._caps
        dt = real(self, capacities)
        act = self._act
        full = max_min_fair_rates(self.ledger.view(), capacities, active=act)
        assert self._rates.tobytes() == full.tobytes()
        assert dt == float((self.ledger.remaining[act] / full).min())
        load = self.ledger.link_load
        fresh = np.zeros_like(self._hist)
        np.add.at(fresh, (self._cls, load), 1)
        assert self._hist.tolist() == fresh.tolist()
        assert self._cls_caps[self._cls].tobytes() == capacities.tobytes()
        log["n"] += 1
        return dt

    monkeypatch.setattr(engine_mod._VectorFlows, "solve_dt", solve_dt)
    return log


def assert_matches_oracle(make_world, program):
    result = make_world().run(program)
    with oracle_engine():
        assert make_world().run(program) == result
    return result


class TestFirstRoundGather:
    def test_dedicated_link_exchange_never_gathers(self, monkeypatch):
        solver = counting(monkeypatch, engine_mod, "max_min_fair_rates")
        gathers = counting(monkeypatch, fairness_mod, "gather_subset_entries")
        result = _dedicated_world().run(neighbour_exchange)
        assert solver["n"] == 0
        assert gathers["n"] == 0
        with oracle_engine():
            assert _dedicated_world().run(neighbour_exchange) == result

    def test_multi_round_solves_gather_and_match_oracle(self, monkeypatch):
        solver = counting(monkeypatch, engine_mod, "max_min_fair_rates")
        gathers = counting(monkeypatch, fairness_mod, "gather_subset_entries")
        result = _multi_round_world().run(antipodal)
        assert solver["n"] > 0
        assert gathers["n"] > 0
        with oracle_engine():
            assert _multi_round_world().run(antipodal) == result


class TestSeededRatesBitIdentical:
    @pytest.mark.parametrize(
        "make_world, program",
        [
            (_dedicated_world, neighbour_exchange),
            (_multi_round_world, antipodal),
        ],
        ids=["dedicated", "multi-round"],
    )
    def test_every_event(self, monkeypatch, make_world, program):
        solves = checked_solves(monkeypatch)
        make_world().run(program)
        assert solves["n"] > 0
        assert solves["rebuilds"] == 1

    def test_across_fail_and_repair_reroutes(self, monkeypatch):
        solves = checked_solves(monkeypatch)
        result = assert_matches_oracle(_fail_repair_world, antipodal)
        assert result.reroutes > 0
        assert result.restores > 0
        # Built once, then rebuilt after the fault and after the repair.
        assert solves["rebuilds"] == 3


class TestHistogramFastPath:
    def test_degraded_link_falls_back_to_solver(self, monkeypatch):
        # Pair (0, 1)'s links at half capacity saturate first; the
        # other used links keep spare capacity, so round 1 is not the
        # last while that pair is in flight.
        link = ((0, 0), (0, 1))
        faults = FaultSet(degraded_links={link: 0.5})
        solves = checked_solves(monkeypatch)
        solver = counting(monkeypatch, engine_mod, "max_min_fair_rates")
        assert_matches_oracle(
            lambda: _dedicated_world(faults), neighbour_exchange
        )
        assert 0 < solver["n"] <= solves["n"]

    def test_equal_ratio_capacity_classes_stay_fast(self, monkeypatch):
        solves = checked_solves(monkeypatch)
        solver = counting(monkeypatch, engine_mod, "max_min_fair_rates")
        result = assert_matches_oracle(_equal_ratio_world, overlapping_pairs)
        assert solves["n"] == 1
        assert solver["n"] == 0
        assert result.time == pytest.approx(1.0)

    def test_unequal_ratio_capacity_classes_call_solver(self, monkeypatch):
        # Healthy, the shared links carry 2 flows over 2.0 and the
        # others 1 flow over 2.0: only the shared ones saturate.
        solves = checked_solves(monkeypatch)
        solver = counting(monkeypatch, engine_mod, "max_min_fair_rates")
        assert_matches_oracle(
            lambda: VirtualMpi(Torus((8,)), link_bandwidth=2.0),
            overlapping_pairs,
        )
        assert solves["n"] == 1
        assert solver["n"] == 1


@pytest.fixture
def traced():
    """Tracing on, with the process trace state saved and restored."""
    s = observability.OBS
    saved = (s.enabled, s.events, s.dropped_events, s.stack,
             s.span_totals, s.counters, s.gauges)
    s.enabled = True
    s.reset()
    yield s
    (s.enabled, s.events, s.dropped_events, s.stack,
     s.span_totals, s.counters, s.gauges) = saved


WORK_COUNTERS = (
    "netsim.fairness.calls",
    "netsim.fairness.rounds",
    "netsim.fairness.flows",
    "simmpi.loop_events",
)


class TestTracedWorkCounters:
    @pytest.mark.parametrize(
        "make_world, program",
        [
            (_dedicated_world, neighbour_exchange),
            (_multi_round_world, antipodal),
        ],
        ids=["exchange", "multi-round"],
    )
    def test_equal_under_oracle(self, traced, make_world, program):
        def work():
            traced.reset()
            make_world().run(program)
            return {k: traced.counters.get(k) for k in WORK_COUNTERS}

        vector = work()
        with oracle_engine():
            oracle = work()
        assert vector == oracle
        assert all(v for v in vector.values())


class TestSolverCountsArgument:
    def test_engine_only_keywords_removed(self):
        for kwargs in ({"link_counts": np.ones(4, dtype=np.int64)},
                       {"validate": False}):
            with pytest.raises(TypeError):
                max_min_fair_rates([np.array([0, 1])], np.ones(4), **kwargs)

    def test_failed_link_scan_still_fires(self):
        caps = np.array([1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="crosses failed"):
            max_min_fair_rates([np.array([0, 1])], caps)
