"""Unit tests for Experiment A (bisection pairing)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.allocation import optimizer
from repro.allocation.geometry import PartitionGeometry
from repro.experiments import pairing
from repro.experiments.pairing import (
    PairingParameters,
    PairingResult,
    fluid_bisection_bandwidth,
    pairing_path_matrix,
    run_pairing,
    run_pairing_sweep,
)
from repro.machines.catalog import JUQUEEN
from repro.netsim.network import LinkNetwork
from repro.netsim.stacked import StackedPathMatrix
from tests.oracles.scalar_sweeps import pairing_result

# Small geometries keep the fluid simulation fast in unit tests; the
# benchmark harnesses run the full paper sizes.
FAST = PairingParameters()


class TestParameters:
    def test_paper_defaults(self):
        p = PairingParameters()
        assert p.rounds == 26
        assert p.chunks_per_round == 16
        assert p.chunk_gb == 0.1342
        assert p.link_bandwidth == 2.0

    def test_volume_per_pair(self):
        p = PairingParameters()
        assert p.volume_per_pair_gb == pytest.approx(26 * 16 * 0.1342)

    def test_validation(self):
        with pytest.raises(ValueError):
            PairingParameters(rounds=0)
        with pytest.raises(ValueError):
            PairingParameters(chunk_gb=-1.0)


class TestSingleMidplane:
    def test_one_midplane_run(self):
        res = run_pairing(PartitionGeometry((1, 1, 1, 1)))
        assert res.num_flows == 512
        assert res.time_seconds > 0

    def test_symmetric_rates(self):
        res = run_pairing(PartitionGeometry((1, 1, 1, 1)))
        assert res.min_rate == pytest.approx(res.max_rate)


class TestGeometryComparison:
    def test_4mp_ratio_is_two(self, mira_4mp_current, mira_4mp_proposed):
        """The paper's headline: x2 between 4x1x1x1 and 2x2x1x1."""
        worse = run_pairing(mira_4mp_current)
        better = run_pairing(mira_4mp_proposed)
        assert worse.time_seconds / better.time_seconds == pytest.approx(
            2.0, rel=1e-6
        )

    def test_equal_bandwidth_per_node_equal_time(self):
        """Mira's current 4- and 8-midplane partitions have the same
        per-node bisection bandwidth (256/2048 = 512/4096), producing
        the flat region of Figure 3."""
        t4 = run_pairing(PartitionGeometry((4, 1, 1, 1))).time_seconds
        t8 = run_pairing(PartitionGeometry((4, 2, 1, 1))).time_seconds
        assert t4 == pytest.approx(t8)

    def test_absolute_time_matches_link_counting(self, mira_4mp_proposed):
        """(2,2,1,1): 8-ring antipodal flows, parity-split -> 2 flows
        per + link -> 1.0 GB/s each -> volume / 1.0."""
        res = run_pairing(mira_4mp_proposed)
        expected = PairingParameters().volume_per_pair_gb / 1.0
        assert res.time_seconds == pytest.approx(expected)

    def test_custom_rounds_scale_linearly(self, mira_4mp_proposed):
        t26 = run_pairing(mira_4mp_proposed).time_seconds
        t13 = run_pairing(
            mira_4mp_proposed, PairingParameters(rounds=13)
        ).time_seconds
        assert t26 == pytest.approx(2 * t13)

    def test_result_fields(self, mira_4mp_proposed):
        res = run_pairing(mira_4mp_proposed)
        assert isinstance(res, PairingResult)
        assert res.num_midplanes == 4
        assert res.num_flows == 2048
        assert res.geometry is mira_4mp_proposed


class TestVectorScalarParity:
    """The block form behind :func:`run_pairing` and the per-pair
    scalar oracle (``tests/oracles/scalar_sweeps.py``) must produce
    bit-identical results."""

    GEOMETRIES = [
        PartitionGeometry((1, 1, 1, 1)),
        PartitionGeometry((2, 2, 1, 1)),
        PartitionGeometry((4, 1, 1, 1)),
    ]

    @pytest.mark.parametrize(
        "geometry", GEOMETRIES, ids=lambda g: str(g.dims)
    )
    def test_run_pairing_bit_identical(self, geometry):
        assert run_pairing(geometry) == pairing_result(geometry)

    def test_sweep_block_bit_identical(self):
        params = PairingParameters(rounds=2, tie="positive")
        assert run_pairing_sweep(self.GEOMETRIES, params) == [
            pairing_result(g, params) for g in self.GEOMETRIES
        ]

    def test_path_matrix_equals_scalar_routes(self):
        from repro.netsim.network import LinkNetwork
        from repro.netsim.routing import dimension_ordered_route
        from repro.netsim.traffic import bisection_pairing
        from repro.topology.torus import Torus

        torus = Torus((4, 4, 2))
        net = LinkNetwork(torus)
        pm = pairing_path_matrix(torus)
        scalar = [
            net.path_to_links(dimension_ordered_route(torus, s, d))
            for s, d in bisection_pairing(torus)
        ]
        assert len(pm) == len(scalar)
        for got, want in zip(pm, scalar):
            assert got.tolist() == want.tolist()


class TestPairingStack:
    """The block's stack is routed in place: each geometry's paths and
    capacities are written once, into their spans of the stack planes."""

    # JUQUEEN's best and worst geometries at 4 to 8 midplanes, as in a
    # slice of Figure 4; none holds more than a fifth of the stack.
    HANDFUL = list(dict.fromkeys(
        pick(JUQUEEN, size)
        for size in range(4, 9)
        for pick in (optimizer.best_geometry_for_machine,
                     optimizer.worst_geometry_for_machine)
    ))

    def test_equals_from_scenarios(self):
        tasks = [
            (PartitionGeometry((2, 2, 1, 1)), FAST),
            (PartitionGeometry((1, 1, 1, 1)),
             PairingParameters(tie="positive", link_bandwidth=1.5)),
            (PartitionGeometry((3, 1, 1, 1)), FAST),
            (PartitionGeometry((2, 2, 2, 1)), FAST),
        ]
        got = pairing._pairing_stack(tasks)
        want = StackedPathMatrix.from_scenarios([
            (
                pairing_path_matrix(g.bgq_network(), tie=p.tie),
                LinkNetwork(
                    g.bgq_network(), link_bandwidth=p.link_bandwidth
                ).capacities,
                None,
            )
            for g, p in tasks
        ])
        for plane in ("link_ids", "offsets", "flow_base", "link_base",
                      "capacities", "active", "flow_scenarios"):
            np.testing.assert_array_equal(
                getattr(got, plane), getattr(want, plane), err_msg=plane
            )

    def test_build_peak_below_one_and_a_half_stacks(self):
        tasks = [(g, FAST) for g in self.HANDFUL]
        assert len(tasks) >= 5
        pairing._pairing_stack(tasks)  # warm the per-torus memo tables
        tracemalloc.start()
        try:
            stack = pairing._pairing_stack(tasks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A second copy of the paths and capacities alone would reach 2x;
        # each geometry's routing temporaries live only while it routes.
        assert peak < 1.5 * (stack.link_ids.nbytes + stack.capacities.nbytes)


class TestFluidBisectionBandwidth:
    @pytest.mark.parametrize(
        "dims",
        [(1, 1, 1, 1), (2, 2, 1, 1), (4, 1, 1, 1), (2, 2, 2, 2)],
    )
    def test_matches_static_cut_arithmetic(self, dims):
        geometry = PartitionGeometry(dims)
        assert fluid_bisection_bandwidth(geometry) == pytest.approx(
            float(geometry.normalized_bisection_bandwidth), rel=1e-12
        )

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            fluid_bisection_bandwidth(
                PartitionGeometry((1, 1, 1, 1)), link_bandwidth=0.0
            )
