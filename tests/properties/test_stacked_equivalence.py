"""Differential suite: stacked solvers ≡ per-scenario scalar solvers.

The stacked rewrite's entire correctness contract is that solving ``S``
scenarios in one solver call is **bit-for-bit** the same as solving each
alone with the scalar solvers — same max-min rates, same bottleneck
links, same fluid completion times, same DegradedResult rows.  This
suite drives that contract over random tori, random fault sets
(including fully-disconnecting ones), degenerate single-scenario
stacks, and reversed dimension orders.  The fairness, empty-path and
fluid cases also run under smaller block bounds of the stacked
water-fill, so stacks are solved whole, split into blocks, and one
scenario at a time; the solver's round and flow counters must agree
across bounds.

The driver rows are compared against the per-task scalar oracles of
``tests/oracles/scalar_sweeps.py``.  Comparisons use ``tobytes()``
(exact bits) or exact float equality, never ``allclose``.
"""

from __future__ import annotations

import math
import types
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability
from repro.faults import FaultSet
from repro.netsim import fairness
from repro.netsim.batchroute import (
    batch_dimension_ordered_routes,
    batch_fault_aware_routes,
    fault_capacity_plane,
)
from repro.netsim.fairness import stacked_max_min_fair_rates
from repro.netsim.fluid import StackedFluidSimulation
from repro.netsim.network import LinkNetwork
from repro.netsim.stacked import StackedPathMatrix
from repro.topology.torus import Torus
from tests.oracles.scalar_fluid import ScalarFluidSimulation
from tests.oracles.scalar_water_fill import scalar_max_min_fair_rates

dims_strategy = st.lists(
    st.integers(min_value=1, max_value=6), min_size=1, max_size=3
).map(tuple).filter(lambda d: 2 <= math.prod(d) <= 48)


@st.composite
def scenario(draw, dims=None):
    """One (torus, src, dst, faults) fault scenario.

    Fault sets mix failed links, failed *nodes* (which can fully
    disconnect flows — including every flow of the scenario), and
    degraded links, so the drawn population includes scenarios whose
    active set is empty.
    """
    if dims is None:
        dims = draw(dims_strategy)
    torus = Torus(dims)
    n = torus.num_vertices
    if draw(st.booleans()):
        # The antipodal bisection pairing (the drivers' pattern).
        src = np.arange(n, dtype=np.int64)
        coords = np.stack(np.unravel_index(src, torus.dims), axis=1)
        d = np.asarray(torus.dims, dtype=np.int64)
        anti = (coords + d[None, :] // 2) % d[None, :]
        dst = np.ravel_multi_index(tuple(anti.T), torus.dims).astype(
            np.int64
        )
    else:
        n_pairs = draw(st.integers(min_value=1, max_value=10))
        src = np.asarray(
            [draw(st.integers(0, n - 1)) for _ in range(n_pairs)],
            dtype=np.int64,
        )
        dst = np.asarray(
            [draw(st.integers(0, n - 1)) for _ in range(n_pairs)],
            dtype=np.int64,
        )
    edges = [(u, v) for u, v, _ in torus.edges()]
    verts = list(torus.vertices())
    failed_links = [
        edges[i]
        for i in draw(
            st.lists(
                st.integers(0, len(edges) - 1),
                min_size=0,
                max_size=min(6, len(edges)),
                unique=True,
            )
        )
    ]
    failed_nodes = [
        verts[i]
        for i in draw(
            st.lists(
                st.integers(0, n - 1),
                min_size=0,
                max_size=min(2, n),
                unique=True,
            )
        )
    ]
    degraded = {
        edges[i]: draw(st.sampled_from([0.25, 0.5, 0.9]))
        for i in draw(
            st.lists(
                st.integers(0, len(edges) - 1),
                min_size=0,
                max_size=min(3, len(edges)),
                unique=True,
            )
        )
    }
    degraded = {
        k: f for k, f in degraded.items() if k not in failed_links
    }
    faults = FaultSet(
        failed_links=failed_links,
        failed_nodes=failed_nodes,
        degraded_links=degraded,
    )
    return torus, src, dst, (None if faults.is_empty() else faults)


def _solve_pieces(torus, src, dst, faults):
    """Route + fault-plane one scenario; return the stacked inputs and
    the scalar-reference capacities."""
    net = LinkNetwork(torus, link_bandwidth=2.0)
    pm, disconnected = batch_fault_aware_routes(
        torus, src, dst, faults
    )
    if faults is not None:
        caps_ref = net.with_faults(faults).capacities
        caps_vec = fault_capacity_plane(torus, net.capacities, faults)
        # The analytic capacity plane must equal with_faults bitwise.
        assert caps_vec.tobytes() == caps_ref.tobytes()
    else:
        caps_ref = net.capacities
    active = None
    if disconnected.size:
        active = np.setdiff1d(
            np.arange(len(pm), dtype=np.int64),
            disconnected,
            assume_unique=True,
        )
    return pm, caps_ref, active


scenarios_strategy = st.lists(scenario(), min_size=1, max_size=5)

#: Stacked water-fill block bounds, in links: every scenario alone, a
#: bound that splits the drawn stacks (a drawn torus has 0 to 288
#: links), and the default.
BLOCK_BOUNDS = [1, 64, fairness._BLOCK_LINKS]


@pytest.fixture(
    scope="class", params=BLOCK_BOUNDS[:-1], ids=lambda b: f"block{b}"
)
def block_links(request):
    """Run a class's cases with the water-fill block bound set to each
    non-default bound (class-scoped, so hypothesis examples share it)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fairness, "_BLOCK_LINKS", request.param)
        yield request.param


@contextmanager
def _counters():
    """Collect observability counters afresh; restore the trace state."""
    s = observability.OBS
    saved = (
        s.enabled, s.events, s.dropped_events, s.stack,
        s.span_totals, s.counters, s.gauges, s.origin,
    )
    s.enabled = False
    s.reset()
    observability.enable()
    try:
        yield s.counters
    finally:
        (
            s.enabled, s.events, s.dropped_events, s.stack,
            s.span_totals, s.counters, s.gauges, s.origin,
        ) = saved


def _solve_per_bound(stack, solve, monkeypatch):
    """``solve(stack)`` under each block bound: the result, the
    ``netsim.fairness`` round and flow counters and the block count."""
    real_block = fairness._water_fill_block
    runs = []
    for bound in BLOCK_BOUNDS:
        blocks = []

        def counted(*args):
            blocks.append(args[1])
            return real_block(*args)

        monkeypatch.setattr(fairness, "_BLOCK_LINKS", bound)
        monkeypatch.setattr(fairness, "_water_fill_block", counted)
        with _counters() as counters:
            result = solve(stack)
        runs.append((
            result,
            {k: counters.get(k) for k in (
                "netsim.fairness.rounds", "netsim.fairness.flows"
            )},
            len(blocks),
        ))
    return runs


class TestStackedFairnessEquivalence:
    @given(scenarios_strategy)
    @settings(max_examples=60, deadline=None)
    def test_rates_and_bottlenecks_bitwise(self, drawn):
        pieces = [_solve_pieces(*s) for s in drawn]
        stack = StackedPathMatrix.from_scenarios(pieces)
        flat, bottlenecks = stacked_max_min_fair_rates(
            stack, return_bottlenecks=True
        )
        for s, (pm, caps, active) in enumerate(pieces):
            fs = stack.flow_slice(s)
            lb = int(stack.link_base[s])
            hb = int(stack.link_base[s + 1])
            local_b = bottlenecks[
                (bottlenecks >= lb) & (bottlenecks < hb)
            ] - lb
            scalar_rates, scalar_b = scalar_max_min_fair_rates(
                pm, caps, active=active, return_bottlenecks=True
            )
            if active is not None:
                got = flat[fs][active]
                # Inactive flows never acquire a rate.
                inactive = np.setdiff1d(
                    np.arange(len(pm), dtype=np.int64), active
                )
                assert not flat[fs][inactive].any()
            else:
                got = flat[fs]
            assert got.tobytes() == scalar_rates.tobytes()
            assert local_b.tobytes() == scalar_b.tobytes()

    @given(scenario())
    @settings(max_examples=30, deadline=None)
    def test_single_scenario_stack_degenerate(self, s):
        pm, caps, active = _solve_pieces(*s)
        stack = StackedPathMatrix.from_scenarios([(pm, caps, active)])
        flat = stacked_max_min_fair_rates(stack)
        scalar = scalar_max_min_fair_rates(pm, caps, active=active)
        got = flat if active is None else flat[active]
        assert got.tobytes() == scalar.tobytes()

    @given(dims_strategy, st.data())
    @settings(max_examples=25, deadline=None)
    def test_reversed_dimension_orders(self, dims, data):
        """A scenario and its reversed-dims twin stack together and
        each still matches its own scalar solve."""
        fwd = data.draw(scenario(dims=dims))
        rev = data.draw(scenario(dims=tuple(reversed(dims))))
        pieces = [_solve_pieces(*fwd), _solve_pieces(*rev)]
        stack = StackedPathMatrix.from_scenarios(pieces)
        flat = stacked_max_min_fair_rates(stack)
        for s, (pm, caps, active) in enumerate(pieces):
            fs = stack.flow_slice(s)
            scalar = scalar_max_min_fair_rates(pm, caps, active=active)
            got = flat[fs] if active is None else flat[fs][active]
            assert got.tobytes() == scalar.tobytes()


class TestStackedEmptyPathInterleaving:
    """Empty-path (src == dst) flows interleaved with multi-round
    scenarios: the per-flow freeze test reduces over the entry ranges of
    routed flows only, so empty rows must neither shift nor leak into
    their neighbours' freeze decisions."""

    @staticmethod
    def _pieces(seed):
        rng = np.random.default_rng(seed)
        pieces = []
        for dims in [(5, 3), (4, 2, 3), (1, 1), (6,)]:
            torus = Torus(dims)
            n = torus.num_vertices
            src = rng.integers(0, n, size=12)
            dst = rng.integers(0, n, size=12)
            dst[::3] = src[::3]  # every third flow stays put
            pm = batch_dimension_ordered_routes(torus, src, dst)
            n_links = len(LinkNetwork(torus).capacities)
            # Uneven capacities make the water-fill take several rounds.
            caps = rng.choice([0.5, 1.0, 2.0, 3.0], size=n_links)
            pieces.append((pm, caps, None))
        return pieces

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("with_demands", [False, True])
    def test_rates_and_bottlenecks_bitwise(self, seed, with_demands):
        pieces = self._pieces(seed)
        stack = StackedPathMatrix.from_scenarios(pieces)
        rng = np.random.default_rng(1000 + seed)
        demands = (
            rng.uniform(0.05, 1.5, size=stack.num_flows)
            if with_demands
            else None
        )
        flat, bottlenecks = stacked_max_min_fair_rates(
            stack, demands, return_bottlenecks=True
        )
        multi_round = False
        for s, (pm, caps, _) in enumerate(pieces):
            fs = stack.flow_slice(s)
            lb = int(stack.link_base[s])
            hb = int(stack.link_base[s + 1])
            local_b = bottlenecks[
                (bottlenecks >= lb) & (bottlenecks < hb)
            ] - lb
            scalar_rates, scalar_b = scalar_max_min_fair_rates(
                pm,
                caps,
                None if demands is None else demands[fs],
                return_bottlenecks=True,
            )
            assert flat[fs].tobytes() == scalar_rates.tobytes()
            assert local_b.tobytes() == scalar_b.tobytes()
            finite = scalar_rates[np.isfinite(scalar_rates)]
            multi_round |= len(np.unique(finite)) > 1
        assert multi_round


class TestStackedFluidEquivalence:
    @given(scenarios_strategy, st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fluid_solve_bitwise(self, drawn, vol_seed):
        pieces = [_solve_pieces(*s) for s in drawn]
        rng = np.random.default_rng(vol_seed)
        volumes = [
            rng.uniform(0.5, 3.0, size=len(pm)) for pm, _, _ in pieces
        ]
        stack = StackedPathMatrix.from_scenarios(pieces)
        sim = StackedFluidSimulation(stack, np.concatenate(volumes))
        makespans, completions, initial = sim.solve()
        for s, (pm, caps, active) in enumerate(pieces):
            fs = stack.flow_slice(s)
            if active is not None and active.size == 0:
                assert makespans[s] == 0.0
                assert not completions[fs].any()
                continue
            if active is not None:
                from repro.netsim.batchroute import PathMatrix

                sub = PathMatrix.from_paths(
                    [pm[i] for i in active.tolist()]
                )
                svol = volumes[s][active]
            else:
                sub, svol = pm, volumes[s]
            net = types.SimpleNamespace(capacities=caps)
            smk, scomp, sinit = ScalarFluidSimulation(net, sub, svol).solve()
            assert float(makespans[s]) == smk
            if active is not None:
                assert completions[fs][active].tobytes() == scomp.tobytes()
                assert initial[fs][active].tobytes() == sinit.tobytes()
            else:
                assert completions[fs].tobytes() == scomp.tobytes()
                assert initial[fs].tobytes() == sinit.tobytes()


@pytest.mark.usefixtures("block_links")
class TestBlockedFairnessEquivalence(TestStackedFairnessEquivalence):
    """The fairness cases, with stacks split into blocks."""


@pytest.mark.usefixtures("block_links")
class TestBlockedEmptyPathInterleaving(TestStackedEmptyPathInterleaving):
    """The empty-path cases, with stacks split into blocks."""


@pytest.mark.usefixtures("block_links")
class TestBlockedFluidEquivalence(TestStackedFluidEquivalence):
    """The fluid cases, with stacks split into blocks."""


class TestBlockBoundCounters:
    """The block bound changes how a stack is walked, not what it
    computes: rates, fluid times and the solver's ``rounds`` (the
    deepest scenario's) and ``flows`` counters agree under every
    bound."""

    @pytest.mark.parametrize("seed", range(4))
    def test_empty_path_interleaving_with_demands(self, seed, monkeypatch):
        stack = StackedPathMatrix.from_scenarios(
            TestStackedEmptyPathInterleaving._pieces(seed)
        )
        demands = np.random.default_rng(1000 + seed).uniform(
            0.05, 1.5, size=stack.num_flows
        )
        runs = _solve_per_bound(
            stack,
            lambda st: stacked_max_min_fair_rates(st, demands).tobytes(),
            monkeypatch,
        )
        # Links per scenario: 60, 120, 0, 12.  The mid bound solves the
        # first two alone and the last two together.
        assert [blocks for _, _, blocks in runs] == [4, 3, 1]
        assert runs[0][1]["netsim.fairness.rounds"] > 1
        assert runs[0][:2] == runs[1][:2] == runs[2][:2]

    @given(scenarios_strategy, st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_drawn_stacks_fairness_and_fluid(self, drawn, seed):
        pieces = [_solve_pieces(*s) for s in drawn]
        stack = StackedPathMatrix.from_scenarios(pieces)
        volumes = np.random.default_rng(seed).uniform(
            0.5, 3.0, size=stack.num_flows
        )

        def solve(st):
            rates = stacked_max_min_fair_rates(st)
            fluid = StackedFluidSimulation(st, volumes).solve()
            return [rates.tobytes()] + [a.tobytes() for a in fluid]

        with pytest.MonkeyPatch.context() as mp:
            runs = _solve_per_bound(stack, solve, mp)
        assert runs[0][:2] == runs[1][:2] == runs[2][:2]


class TestDriverRowEquivalence:
    """The faultstudy block form against the per-scenario scalar
    oracle — rows (including DegradedResult payloads) must be equal."""

    @given(
        st.sampled_from([(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1)]),
        st.integers(0, 2**16),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    @settings(max_examples=8, deadline=None)
    def test_fault_sweep_rows_equal(self, dims, seed, max_k, trials):
        from repro.allocation.geometry import PartitionGeometry
        from repro.experiments.faultstudy import (
            _fluid_scenario,
            _fluid_scenario_block,
        )
        from tests.oracles.scalar_sweeps import fault_scenario_row

        geometry = PartitionGeometry(dims)
        tasks = [
            (geometry.dims, k, t, seed + 1000 * k + t, 2.0, "parity")
            for k in range(max_k + 1)
            for t in range(1 if k == 0 else trials)
        ]
        scalar_rows = [fault_scenario_row(t) for t in tasks]
        assert _fluid_scenario_block(tasks) == scalar_rows
        assert [_fluid_scenario(t) for t in tasks] == scalar_rows
