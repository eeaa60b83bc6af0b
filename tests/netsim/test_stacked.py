"""Unit tests for the stacked multi-scenario path container and solvers.

The bit-for-bit equivalence contract against the scalar solvers lives in
``tests/properties/test_stacked_equivalence.py``; these tests cover the
container's structure, validation, and the stacked solvers' small
hand-checkable cases.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.netsim import fairness
from repro.netsim.batchroute import PathMatrix
from repro.netsim.fairness import (
    max_min_fair_rates,
    stacked_max_min_fair_rates,
)
from repro.netsim.fluid import FluidSimulation, StackedFluidSimulation
from repro.netsim.stacked import StackedPathMatrix, segment_min


def _paths(*lists):
    return [np.asarray(p, dtype=np.int64) for p in lists]


def _pm(*lists):
    return PathMatrix.from_paths(_paths(*lists))


class TestSegmentMin:
    def test_basic_segments(self):
        vals = np.array([3.0, 1.0, 5.0, 2.0, 4.0])
        base = np.array([0, 2, 5])
        assert segment_min(vals, base).tolist() == [1.0, 2.0]

    def test_empty_segment_gets_fill(self):
        vals = np.array([3.0, 1.0])
        base = np.array([0, 0, 2, 2])
        out = segment_min(vals, base, fill=np.inf)
        assert out[0] == np.inf
        assert out[1] == 1.0
        assert out[2] == np.inf

    def test_empty_segment_does_not_leak_neighbor(self):
        # reduceat on an empty segment would return the *next* segment's
        # first element; the mask must prevent that.
        vals = np.array([9.0, 7.0])
        base = np.array([0, 1, 1, 2])
        out = segment_min(vals, base, fill=-1.0)
        assert out.tolist() == [9.0, -1.0, 7.0]

    def test_all_empty(self):
        out = segment_min(np.empty(0), np.array([0, 0, 0]))
        assert np.isinf(out).all()

    def test_custom_fill(self):
        out = segment_min(np.empty(0), np.array([0, 0]), fill=0.0)
        assert out.tolist() == [0.0]


class TestStackedPathMatrixConstruction:
    def test_from_scenarios_layout(self):
        stack = StackedPathMatrix.from_scenarios(
            [
                (_pm([0], [0, 1]), np.array([1.0, 2.0]), None),
                (_pm([0, 2]), np.array([4.0, 5.0, 6.0]), None),
            ]
        )
        assert stack.num_scenarios == 2
        assert len(stack) == 2
        assert stack.num_flows == 3
        assert stack.num_links == 5
        assert stack.flow_base.tolist() == [0, 2, 3]
        assert stack.link_base.tolist() == [0, 2, 5]
        # Scenario 1's link ids are shifted past scenario 0's 2 links.
        assert stack.link_ids.tolist() == [0, 0, 1, 2, 4]
        assert stack.capacities.tolist() == [1.0, 2.0, 4.0, 5.0, 6.0]
        assert stack.flow_scenarios.tolist() == [0, 0, 1]
        assert stack.active.all()

    def test_active_indices_become_mask(self):
        stack = StackedPathMatrix.from_scenarios(
            [
                (_pm([0], [1], [0, 1]), np.array([1.0, 1.0]),
                 np.array([0, 2])),
            ]
        )
        assert stack.active.tolist() == [True, False, True]

    def test_flow_and_link_slices(self):
        stack = StackedPathMatrix.from_scenarios(
            [
                (_pm([0]), np.array([1.0]), None),
                (_pm([0], [1]), np.array([2.0, 3.0]), None),
            ]
        )
        assert stack.flow_slice(1) == slice(1, 3)
        assert stack.link_slice(1) == slice(1, 3)
        with pytest.raises(IndexError):
            stack.flow_slice(2)
        with pytest.raises(IndexError):
            stack.link_slice(-1)

    def test_split_returns_views_in_order(self):
        stack = StackedPathMatrix.from_scenarios(
            [
                (_pm([0]), np.array([1.0]), None),
                (_pm([0], [1]), np.array([2.0, 3.0]), None),
            ]
        )
        flat = np.array([10.0, 20.0, 30.0])
        parts = stack.split(flat)
        assert [p.tolist() for p in parts] == [[10.0], [20.0, 30.0]]
        assert parts[1].base is flat  # view, not copy

    def test_arrays_read_only(self):
        stack = StackedPathMatrix.from_scenarios(
            [(_pm([0]), np.array([1.0]), None)]
        )
        with pytest.raises(ValueError):
            stack.capacities[0] = 9.0
        with pytest.raises(ValueError):
            stack.active[0] = False

    def test_rejects_zero_scenarios(self):
        with pytest.raises(ValueError, match="zero scenarios"):
            StackedPathMatrix.from_scenarios([])

    def test_rejects_out_of_range_link_ids(self):
        with pytest.raises(ValueError, match="capacity slots"):
            StackedPathMatrix.from_scenarios(
                [(_pm([5]), np.array([1.0]), None)]
            )

    def test_rejects_out_of_range_active(self):
        with pytest.raises(ValueError, match="active"):
            StackedPathMatrix.from_scenarios(
                [(_pm([0]), np.array([1.0]), np.array([3]))]
            )

    def test_rejects_cross_scenario_link_ids(self):
        # Hand-built CSR whose entry strays into the next scenario's
        # link region must be rejected.
        with pytest.raises(ValueError, match="region"):
            StackedPathMatrix(
                link_ids=np.array([1]),  # scenario 0 only owns link 0
                offsets=np.array([0, 1, 1]),
                flow_base=np.array([0, 1, 2]),
                link_base=np.array([0, 1, 2]),
                capacities=np.array([1.0, 1.0]),
            )

    def test_rejects_link_id_below_scenario_region(self):
        with pytest.raises(ValueError, match="region"):
            StackedPathMatrix(
                link_ids=np.array([0, 0]),  # scenario 1 owns link 1 only
                offsets=np.array([0, 1, 2]),
                flow_base=np.array([0, 1, 2]),
                link_base=np.array([0, 1, 2]),
                capacities=np.array([1.0, 1.0]),
            )

    def test_rejects_stray_in_last_scenario(self):
        with pytest.raises(ValueError, match="region"):
            StackedPathMatrix(
                link_ids=np.array([0, 1, 2, 3]),  # 3 is past the end
                offsets=np.array([0, 1, 2, 4]),
                flow_base=np.array([0, 1, 2, 3]),
                link_base=np.array([0, 1, 2, 3]),
                capacities=np.ones(3),
            )

    def test_rejects_stray_across_empty_scenario(self):
        # Scenario 1 has no flows; scenario 2's entry strays into
        # scenario 1's links.
        with pytest.raises(ValueError, match="region"):
            StackedPathMatrix(
                link_ids=np.array([0, 1]),
                offsets=np.array([0, 1, 2]),
                flow_base=np.array([0, 1, 1, 2]),
                link_base=np.array([0, 1, 2, 3]),
                capacities=np.ones(3),
            )

    def test_accepts_empty_scenario_between_non_empty(self):
        stack = StackedPathMatrix(
            link_ids=np.array([0, 2]),
            offsets=np.array([0, 1, 2]),
            flow_base=np.array([0, 1, 1, 2]),
            link_base=np.array([0, 1, 2, 3]),
            capacities=np.ones(3),
        )
        assert stack.flow_scenarios.tolist() == [0, 2]

    def test_accepts_scenario_of_zero_length_flows(self):
        stack = StackedPathMatrix.from_scenarios(
            [
                (_pm([0]), np.array([1.0]), None),
                (_pm([], []), np.array([1.0, 1.0]), None),
                (_pm([1, 0]), np.array([1.0, 1.0]), None),
            ]
        )
        assert stack.link_ids.tolist() == [0, 4, 3]
        assert stack.lengths.tolist() == [1, 0, 0, 2]
        rates = stacked_max_min_fair_rates(stack)
        assert rates.tolist() == [1.0, np.inf, np.inf, 1.0]

    def test_link_ids_plane_is_int32(self):
        stack = StackedPathMatrix.from_scenarios(
            [(_pm([0], [0, 1]), np.array([1.0, 2.0]), None)]
        )
        assert stack.link_ids.dtype == np.int32
        raw = StackedPathMatrix(
            link_ids=np.array([0, 1], dtype=np.int64),
            offsets=np.array([0, 2]),
            flow_base=np.array([0, 1]),
            link_base=np.array([0, 2]),
            capacities=np.ones(2),
        )
        assert raw.link_ids.dtype == np.int32
        # The other planes keep their dtypes.
        for plane in (raw.offsets, raw.flow_base, raw.link_base,
                      raw.flow_scenarios):
            assert plane.dtype == np.int64

    def test_int64_id_past_int32_is_rejected_not_wrapped(self):
        big = np.array([2**32 + 3], dtype=np.int64)
        # Cast first, the id would wrap to 3: a valid slot of 4 links.
        assert big.astype(np.int32).tolist() == [3]
        with pytest.raises(ValueError, match="region"):
            StackedPathMatrix(
                link_ids=big,
                offsets=np.array([0, 1]),
                flow_base=np.array([0, 1]),
                link_base=np.array([0, 4]),
                capacities=np.ones(4),
            )
        pm = PathMatrix(big, np.array([0, 1]))
        with pytest.raises(ValueError, match="capacity slots"):
            StackedPathMatrix.from_scenarios([(pm, np.ones(4), None)])

    def test_rejects_link_space_past_int32(self):
        # The size check fires before any plane is sized from link_base.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="int32"):
                StackedPathMatrix(
                    link_ids=np.array([0]),
                    offsets=np.array([0, 1]),
                    flow_base=np.array([0, 1]),
                    link_base=np.array([0, 2**31]),
                    capacities=np.ones(1),
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # 2**31 - 1 links pass the size check and meet the length check.
        with pytest.raises(ValueError, match="num_links"):
            StackedPathMatrix(
                link_ids=np.array([0]),
                offsets=np.array([0, 1]),
                flow_base=np.array([0, 1]),
                link_base=np.array([0, 2**31 - 1]),
                capacities=np.ones(1),
            )

    def test_repr(self):
        stack = StackedPathMatrix.from_scenarios(
            [(_pm([0]), np.array([1.0]), None)]
        )
        assert "scenarios=1" in repr(stack)


class TestStackedFairness:
    def test_two_independent_scenarios(self):
        stack = StackedPathMatrix.from_scenarios(
            [
                (_pm([0], [0]), np.array([2.0]), None),
                (_pm([0], [0, 1], [1]), np.array([1.0, 2.0]), None),
            ]
        )
        rates = stacked_max_min_fair_rates(stack)
        assert np.allclose(rates[:2], [1.0, 1.0])
        assert np.allclose(rates[2:], [0.5, 0.5, 1.5])

    def test_matches_scalar_per_scenario(self):
        pm = _pm([0], [0, 1], [1], [1])
        caps = np.array([2.0, 3.0])
        stack = StackedPathMatrix.from_scenarios(
            [(pm, caps, None), (pm, caps * 2, None)]
        )
        rates = stacked_max_min_fair_rates(stack)
        s0 = max_min_fair_rates(pm, caps)
        s1 = max_min_fair_rates(pm, caps * 2)
        assert rates[:4].tobytes() == s0.tobytes()
        assert rates[4:].tobytes() == s1.tobytes()

    def test_inactive_flows_rate_zero(self):
        stack = StackedPathMatrix.from_scenarios(
            [(_pm([0], [0]), np.array([2.0]), np.array([1]))]
        )
        rates = stacked_max_min_fair_rates(stack)
        assert rates[0] == 0.0
        assert rates[1] == pytest.approx(2.0)

    def test_bottleneck_links_are_global_ids(self):
        stack = StackedPathMatrix.from_scenarios(
            [
                (_pm([0]), np.array([1.0, 7.0]), None),
                (_pm([1]), np.array([7.0, 3.0]), None),
            ]
        )
        _, bottlenecks = stacked_max_min_fair_rates(
            stack, return_bottlenecks=True
        )
        # Scenario 0 saturates its link 0 (global 0); scenario 1 its
        # link 1 (global 3).
        assert bottlenecks.tolist() == [0, 3]

    def test_demand_caps_respected(self):
        stack = StackedPathMatrix.from_scenarios(
            [(_pm([0], [0]), np.array([4.0]), None)]
        )
        rates = stacked_max_min_fair_rates(
            stack, np.array([0.5, 10.0])
        )
        assert rates[0] == pytest.approx(0.5)
        assert rates[1] == pytest.approx(3.5)

    def test_rejects_non_stack(self):
        with pytest.raises(TypeError):
            stacked_max_min_fair_rates(_pm([0]))

    def test_rejects_nan_input(self, monkeypatch):
        # The eager checks, not the REPRO_CHECK contract (which rejects
        # NaN capacities already when the stack is built).
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        nan_caps = StackedPathMatrix.from_scenarios(
            [(_pm([0], [1]), np.array([1.0, np.nan]), None)]
        )
        with pytest.raises(ValueError, match="non-negative"):
            stacked_max_min_fair_rates(nan_caps)
        stack = StackedPathMatrix.from_scenarios(
            [(_pm([0], [1]), np.array([1.0, 1.0]), None)]
        )
        with pytest.raises(ValueError, match="demands must be positive"):
            stacked_max_min_fair_rates(stack, np.array([np.nan, 1.0]))

    def test_rejects_active_zero_capacity_link(self):
        stack = StackedPathMatrix.from_scenarios(
            [(_pm([0]), np.array([0.0]), None)]
        )
        with pytest.raises(ValueError, match="zero-capacity"):
            stacked_max_min_fair_rates(stack)

    def test_names_first_active_flow_on_dead_links(self):
        # Scenario 1's flow 0 crosses a dead link but is inactive; flow
        # 1 is the first active one, and its dead links are 0 and 1.
        stack = StackedPathMatrix.from_scenarios([
            (_pm([0]), np.array([1.0]), None),
            (_pm([0], [2, 1, 0], [2]), np.array([0.0, 0.0, 1.0]),
             np.array([1, 2])),
        ])
        with pytest.raises(
            ValueError,
            match=r"^flow 1 of scenario 1 crosses failed "
            r"\(zero-capacity\) link\(s\) \[0, 1\];",
        ):
            stacked_max_min_fair_rates(stack)

    def test_names_dead_link_flow_in_a_later_block(self, monkeypatch):
        # A one-link block bound solves the clean scenario 0 first, in a
        # block of its own; the error still names scenario 1's flow.
        monkeypatch.setattr(fairness, "_BLOCK_LINKS", 1)
        self.test_names_first_active_flow_on_dead_links()

    def test_inactive_flow_may_cross_dead_link(self):
        stack = StackedPathMatrix.from_scenarios(
            [(_pm([0], [1]), np.array([0.0, 2.0]),
              np.array([1]))]
        )
        rates = stacked_max_min_fair_rates(stack)
        assert rates.tolist() == [0.0, 2.0]


class TestStackedFairnessMemory:
    """The water-fill's link planes are block-sized: solving a stack of
    scenarios that each exceed the block bound allocates temporaries for
    one scenario at a time, not for the whole stack."""

    @staticmethod
    def _stack(n_scen, n_links, seed=0):
        rng = np.random.default_rng(seed)
        scenarios = []
        for _ in range(n_scen):
            paths = [
                rng.choice(n_links, size=16, replace=False)
                for _ in range(64)
            ]
            caps = rng.uniform(1.0, 2.0, size=n_links)
            scenarios.append((PathMatrix.from_paths(paths), caps, None))
        return StackedPathMatrix.from_scenarios(scenarios)

    @staticmethod
    def _solve_peak(stack):
        tracemalloc.start()
        try:
            stacked_max_min_fair_rates(stack)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_grows_with_one_block_not_the_stack(self):
        n_links = fairness._BLOCK_LINKS + 1000
        small, large = self._stack(2, n_links), self._stack(8, n_links)
        extra_links = large.num_links - small.num_links
        per_link = (
            self._solve_peak(large) - self._solve_peak(small)
        ) / extra_links
        # A whole-stack float plane would cost 8 bytes per added link
        # and a bool plane one; no solve plane spans the whole stack.
        assert per_link < 0.5


class TestStackedFluid:
    def test_matches_scalar_engine(self):
        import types

        pm = _pm([0], [0, 1], [1])
        caps = np.array([1.0, 2.0])
        vols = np.array([1.0, 2.0, 3.0])
        stack = StackedPathMatrix.from_scenarios([(pm, caps, None)])
        mk, comp, init = StackedFluidSimulation(stack, vols).solve()
        net = types.SimpleNamespace(capacities=caps)
        smk, scomp, sinit = FluidSimulation(net, pm, vols).solve()
        assert float(mk[0]) == smk
        assert comp.tobytes() == scomp.tobytes()
        assert init.tobytes() == sinit.tobytes()

    def test_scenarios_advance_independently(self):
        pm = _pm([0])
        stack = StackedPathMatrix.from_scenarios(
            [
                (pm, np.array([1.0]), None),
                (pm, np.array([4.0]), None),
            ]
        )
        mk, comp, _ = StackedFluidSimulation(
            stack, np.array([2.0, 2.0])
        ).solve()
        assert mk.tolist() == [2.0, 0.5]
        assert comp.tolist() == [2.0, 0.5]

    def test_rejects_nan_volume(self):
        stack = StackedPathMatrix.from_scenarios(
            [(_pm([0], [1]), np.array([1.0, 1.0]), None)]
        )
        with pytest.raises(ValueError, match="volumes must be positive"):
            StackedFluidSimulation(stack, np.array([1.0, np.nan]))

    def test_inactive_flows_not_simulated(self):
        stack = StackedPathMatrix.from_scenarios(
            [(_pm([0], [0]), np.array([1.0]), np.array([0]))]
        )
        mk, comp, init = StackedFluidSimulation(
            stack, np.array([3.0, 5.0])
        ).solve()
        assert mk[0] == pytest.approx(3.0)
        assert comp[1] == 0.0
        assert init[1] == 0.0

    def test_rounds_used_recorded(self):
        stack = StackedPathMatrix.from_scenarios(
            [(_pm([0], [0]), np.array([2.0]), None)]
        )
        sim = StackedFluidSimulation(stack, np.array([1.0, 4.0]))
        sim.solve()
        assert sim.rounds_used == 2

    def test_volume_validation(self):
        stack = StackedPathMatrix.from_scenarios(
            [(_pm([0]), np.array([1.0]), None)]
        )
        with pytest.raises(ValueError, match="volumes"):
            StackedFluidSimulation(stack, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="positive"):
            StackedFluidSimulation(stack, np.array([0.0]))
        with pytest.raises(TypeError):
            StackedFluidSimulation(_pm([0]), np.array([1.0]))
