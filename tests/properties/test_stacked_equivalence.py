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
    PathMatrix,
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


def _hand(paths, caps, active=None):
    """One hand-built scenario: link-id paths over a capacity plane."""
    return (
        PathMatrix.from_paths(paths),
        np.asarray(caps, dtype=float),
        None if active is None else np.asarray(active, dtype=np.int64),
    )


def _case_sparse():
    """Uneven capacities under random pairs: most rounds saturate one
    link and freeze a few flows."""
    rng = np.random.default_rng(7)
    pieces = []
    for dims, n_pairs in (((6, 6), 60), ((4, 3), 20)):
        torus = Torus(dims)
        n = torus.num_vertices
        pm = batch_dimension_ordered_routes(
            torus, rng.integers(0, n, n_pairs), rng.integers(0, n, n_pairs)
        )
        caps = rng.uniform(0.5, 4.0, size=len(LinkNetwork(torus).capacities))
        pieces.append((pm, caps, None))
    return pieces


def _case_all_freeze():
    """The antipodal pairing on uniform links: one round freezes every
    flow."""
    torus = Torus((4, 4))
    src = np.arange(torus.num_vertices, dtype=np.int64)
    coords = np.stack(np.unravel_index(src, torus.dims), axis=1)
    anti = (coords + 2) % 4
    dst = np.ravel_multi_index(tuple(anti.T), torus.dims).astype(np.int64)
    return [_solve_pieces(torus, src, dst, None)]


def _case_compaction():
    """Ten two-link flows share a thin link and freeze in round one;
    the two one-link flows left hold under half the entries."""
    paths = [[0, 1 + i] for i in range(10)] + [[11], [11]]
    caps = [1.0] + [100.0] * 10 + [50.0]
    return [_hand(paths, caps)]


def _case_count_to_zero():
    """Flow 0 alone loads link 0, which saturates at exactly 0.0 in
    round one and is then unused while flows 1-3 stay live; flow 0's
    row is still held (no compaction) when its link 1 saturates in
    round two."""
    paths = [[0, 1], [1, 2, 3], [1, 4, 5], [1, 6, 7], [8], [8, 9]]
    caps = [1.0, 10.0] + [100.0] * 6 + [30.0, 100.0]
    return [_hand(paths, caps)]


def _case_zero_capacity():
    """Zero-capacity links that no active flow crosses: link 3 is
    unused, links 4 and 5 carry only the inactive flow 3."""
    paths = [[0, 1], [1, 2], [2], [4, 1, 5]]
    caps = [2.0, 3.0, 1.5, 0.0, 0.0, 0.0]
    return [_hand(paths, caps, active=[0, 1, 2])]


#: Hand-built stacks that drive each branch of the water-fill kernel.
KERNEL_CASES = {
    "sparse": _case_sparse,
    "all_freeze": _case_all_freeze,
    "compaction": _case_compaction,
    "count_to_zero": _case_count_to_zero,
    "zero_capacity": _case_zero_capacity,
}


@contextmanager
def _freeze_tests(events):
    """Record each round's freeze test of the water-fill kernel as
    ``(block, reduceat_branch, held_entries)``."""
    real_block = fairness._water_fill_block
    real_rows = fairness._crossing_rows
    blocks = []

    def block(*args):
        blocks.append(args[1])
        return real_block(*args)

    def rows(saturated, ids, row_starts, n_alive):
        dense = np.count_nonzero(saturated[ids]) >= n_alive
        events.append((len(blocks), dense, len(ids)))
        return real_rows(saturated, ids, row_starts, n_alive)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fairness, "_water_fill_block", block)
        mp.setattr(fairness, "_crossing_rows", rows)
        yield


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

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    @pytest.mark.parametrize("with_demands", [False, True])
    def test_kernel_branches_bitwise(self, case, with_demands):
        """Each hand-built stack matches the oracle bit for bit, rates,
        bottlenecks and ``netsim.fairness`` counters, and (without
        demands) takes the kernel branch it was built for."""
        pieces = KERNEL_CASES[case]()
        stack = StackedPathMatrix.from_scenarios(pieces)
        demands = None
        if with_demands:
            demands = np.random.default_rng(3).uniform(
                0.1, 3.0, size=stack.num_flows
            )
        events = []
        with _counters() as got, _freeze_tests(events):
            flat, bottlenecks = stacked_max_min_fair_rates(
                stack, demands, return_bottlenecks=True
            )
        rounds, flows = 0, 0
        for s, (pm, caps, active) in enumerate(pieces):
            fs = stack.flow_slice(s)
            lb = int(stack.link_base[s])
            hb = int(stack.link_base[s + 1])
            local_b = bottlenecks[
                (bottlenecks >= lb) & (bottlenecks < hb)
            ] - lb
            with _counters() as ref:
                scalar_rates, scalar_b = scalar_max_min_fair_rates(
                    pm, caps, None if demands is None else demands[fs],
                    active=active, return_bottlenecks=True,
                )
            rounds = max(rounds, ref.get("netsim.fairness.rounds", 0))
            flows += ref.get("netsim.fairness.flows", 0)
            rates = flat[fs] if active is None else flat[fs][active]
            assert rates.tobytes() == scalar_rates.tobytes()
            assert local_b.tobytes() == scalar_b.tobytes()
        assert got["netsim.fairness.rounds"] == rounds
        assert got["netsim.fairness.flows"] == flows
        if with_demands:
            return
        dense = [d for _, d, _ in events]
        compacted = any(
            b0 == b1 and h1 < h0
            for (b0, _, h0), (b1, _, h1) in zip(events, events[1:])
        )
        if case == "sparse":
            assert rounds > 2 and not all(dense)
        elif case == "all_freeze":
            assert rounds == 1 and all(dense)
        elif case == "compaction":
            assert compacted
        elif case == "count_to_zero":
            # Round two's freeze test still holds flow 0's row.
            assert rounds == 3 and events[1][2] == events[0][2]

    def test_dead_link_error_beside_unused_zero_capacity(self):
        """A zero-capacity link no flow uses solves; one an active flow
        crosses still raises, naming the flow, its scenario and its
        dead links."""
        ok = _case_zero_capacity()[0]
        bad = _hand([[0], [1, 3, 4]], [1.0, 1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError) as scalar_err:
            scalar_max_min_fair_rates(bad[0], bad[1])
        with pytest.raises(ValueError) as err:
            stacked_max_min_fair_rates(StackedPathMatrix.from_scenarios([bad]))
        assert str(err.value) == str(scalar_err.value)
        assert "flow 1 crosses failed (zero-capacity) link(s) [3, 4]" in str(
            err.value
        )
        with pytest.raises(
            ValueError, match=r"flow 1 of scenario 1 crosses failed "
            r"\(zero-capacity\) link\(s\) \[3, 4\]",
        ):
            stacked_max_min_fair_rates(
                StackedPathMatrix.from_scenarios([ok, bad])
            )


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
