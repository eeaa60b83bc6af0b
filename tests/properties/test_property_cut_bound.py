"""The fluid engines obey the cut bound on random traffic.

Split a torus along an even dimension ``k`` into the halves
``A = {v : v[k] < a_k / 2}`` and ``B``.  Every byte a flow sends from A
to B crosses at least one directed A→B link, whatever the routing, so
no schedule finishes before the A→B volume over the A→B cut capacity.
Both fluid loops — the :class:`StackedFluidSimulation` every sweep
row runs and the scalar reference loop of ``tests/oracles/`` — must
respect that bound for each even dimension's perpendicular bisection and each
direction, on random ``(src, dst, volume)`` flows.

The fault sweep obeys the same bound per scenario: every antipodal
flow crosses every perpendicular bisection, so no
:func:`~repro.experiments.faultstudy.fluid_fault_sweep` row can report
more bandwidth than
:func:`~repro.experiments.faultstudy.surviving_bisection_bandwidth` of
its own fault set (failed links, failed nodes and degraded links).

So do the round schedules of ``experiments/futurekernels.py``: a
round's bottleneck time is at least its crossing volume over each cut's
capacity, so the FFT transpose (every shift round simulated) and the
N-body ring pass (both ring orders) take at least, for every
perpendicular bisection, the sum over their rounds of that cut bound.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.geometry import PartitionGeometry
from repro.experiments import faultstudy, futurekernels
from repro.faults import FaultSet
from repro.kernels.fft import COMPLEX_BYTES, fft_transpose_block_words
from repro.netsim.batchroute import batch_dimension_ordered_routes
from repro.netsim.fluid import StackedFluidSimulation
from repro.netsim.network import LinkNetwork
from repro.netsim.stacked import StackedPathMatrix
from repro.topology.torus import Torus
from tests.oracles.scalar_fluid import ScalarFluidSimulation

TIES = ("parity", "positive")


@st.composite
def traffic(draw):
    """A small torus with an even dimension and random flows on it."""
    dims = draw(
        st.lists(st.integers(2, 6), min_size=1, max_size=3)
        .map(tuple)
        .filter(lambda d: any(a % 2 == 0 for a in d))
    )
    torus = Torus(dims)
    n = torus.num_vertices
    m = draw(st.integers(1, 12))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    vol = draw(
        st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m)
    )
    bw = draw(st.sampled_from([1.0, 2.0, 3.5]))
    return (
        torus,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(vol),
        bw,
    )


def cut_bounds(torus, net, src, dst, volumes):
    """Makespan lower bounds, one per (even dimension, direction)."""
    coords = np.asarray(list(torus.vertices()))
    ends = np.asarray(
        [net.link_endpoints(i) for i in range(net.num_links)]
    )
    bounds = []
    for k, a in enumerate(torus.dims):
        if a % 2:
            continue
        for low in (True, False):
            in_a = (coords[:, k] < a // 2) == low
            tail_in_a = (ends[:, 0, k] < a // 2) == low
            head_in_a = (ends[:, 1, k] < a // 2) == low
            capacity = net.capacities[tail_in_a & ~head_in_a].sum()
            crossing = in_a[src] & ~in_a[dst]
            bounds.append(volumes[crossing].sum() / capacity)
    return bounds


@given(traffic())
@settings(max_examples=60, deadline=None)
def test_fluid_makespans_respect_every_bisection_cut(case):
    torus, src, dst, volumes, bw = case
    net = LinkNetwork(torus, link_bandwidth=bw)
    bounds = cut_bounds(torus, net, src, dst, volumes)
    assert bounds
    paths = [
        batch_dimension_ordered_routes(torus, src, dst, tie=tie)
        for tie in TIES
    ]
    stack = StackedPathMatrix.from_scenarios(
        [(pm, net.capacities, None) for pm in paths]
    )
    stacked, _, _ = StackedFluidSimulation(
        stack, np.tile(volumes, len(TIES))
    ).solve()
    for s, pm in enumerate(paths):
        scalar, _, _ = ScalarFluidSimulation(net, pm, volumes).solve()
        for bound in bounds:
            assert scalar >= bound * (1.0 - 1e-12)
            assert float(stacked[s]) >= bound * (1.0 - 1e-12)


@given(
    dims=st.sampled_from([(1, 1, 1, 1), (2, 1, 1, 1)]),
    draws=st.lists(
        st.tuples(
            st.lists(st.integers(0, 10**6), max_size=3),  # failed links
            st.lists(st.integers(0, 10**6), max_size=2),  # failed nodes
            st.lists(  # degraded links and their factors
                st.tuples(st.integers(0, 10**6), st.floats(0.1, 0.9)),
                max_size=3,
            ),
        ),
        min_size=5,
        max_size=5,
    ),
)
@settings(max_examples=15, deadline=None)
def test_fault_rows_respect_their_own_surviving_cut(dims, draws):
    torus = PartitionGeometry(dims).bgq_network()
    edges = [(u, v) for u, v, _ in torus.edges()]
    verts = list(torus.vertices())
    # The sweep's five scenarios (k = 0, then two trials at k = 1, 2)
    # draw their faults from these sets, keyed by the scenario seed.
    seeds = [0, 1000, 1001, 2000, 2001]
    plan = {
        seed: FaultSet(
            failed_links=[edges[i % len(edges)] for i in links],
            failed_nodes=[verts[i % len(verts)] for i in nodes],
            degraded_links={edges[i % len(edges)]: f for i, f in degraded},
        )
        for seed, (links, nodes, degraded) in zip(seeds, draws)
    }
    with mock.patch.object(
        faultstudy, "random_link_failures",
        lambda topo, k, seed, edges: plan[seed],
    ):
        rows = faultstudy.fluid_fault_sweep(
            PartitionGeometry(dims), max_failures=2, trials=2, jobs=1
        )
    assert sorted(r.seed for r in rows) == seeds
    for row in rows:
        cut = faultstudy.surviving_bisection_bandwidth(torus, plan[row.seed])
        # Far below one link's share (1 / cut) of the bandwidth.
        assert row.bandwidth <= cut * (1.0 + 1e-9), (row, plan[row.seed])


#: Every geometry of one or two midplanes.
SMALL_GEOMETRIES = [
    (1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2),
]


@given(
    dims=st.sampled_from(SMALL_GEOMETRIES),
    kernel=st.sampled_from(["fft", "walk", "random"]),
    bw=st.sampled_from([1.0, 2.0, 3.5]),
    size=st.integers(2**16, 2**24),
    extra_rounds=st.integers(0, 64),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=12, deadline=None)
def test_fft_and_nbody_take_at_least_their_cut_bounds(
    dims, kernel, bw, size, extra_rounds, seed
):
    geometry = PartitionGeometry(dims)
    torus = geometry.bgq_network()
    p = torus.num_vertices
    simulated = []
    real = futurekernels.simulate_rounds

    def recording(cache, rounds):
        rounds = list(rounds)
        simulated.extend(rounds)
        return real(cache, rounds)

    with mock.patch.object(futurekernels, "simulate_rounds", recording):
        if kernel == "fft":
            run = futurekernels.run_fft_transpose(
                geometry, size, link_bandwidth=bw,
                max_sampled_rounds=p + extra_rounds,
            )
            total_gb = (
                p * (p - 1) * fft_transpose_block_words(size, p)
                * COMPLEX_BYTES / 1024.0**3
            )
        else:
            run = futurekernels.run_nbody_sweep(
                geometry, size, link_bandwidth=bw, ring_order=kernel,
                seed=seed,
            )
            total_gb = (p - 1) * size * 32 / 1024.0**3
    # The FFT simulates all P - 1 shift rounds; the ring pass simulates
    # one of its P - 1 identical rounds and scales it.
    assert len(simulated) == (p - 1 if kernel == "fft" else 1)
    per_round = (p - 1) / len(simulated)
    src = np.concatenate([r.sources for r in simulated])
    dst = np.concatenate([r.destinations for r in simulated])
    volumes = np.concatenate([
        np.broadcast_to(float(r.volumes), len(r.sources)) for r in simulated
    ])
    assert volumes.sum() * per_round == pytest.approx(total_gb, rel=1e-12)
    net = LinkNetwork(torus, link_bandwidth=bw)
    bounds = [
        b * per_round for b in cut_bounds(torus, net, src, dst, volumes)
    ]
    assert max(bounds) > 0
    for bound in bounds:
        assert run.communication_time >= bound * (1.0 - 1e-12)
