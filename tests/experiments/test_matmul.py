"""Unit tests for Experiment B (CAPS matmul) — scaled-down instances."""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocation.geometry import PartitionGeometry
from repro.experiments.matmul import (
    MatmulResult,
    run_caps_on_geometry,
    step_traffic_matrix,
)
from tests.oracles.round_bottleneck import caps_step_times

# One midplane (512 nodes) with 343 ranks: small enough for unit tests.
SMALL = dict(num_ranks=343, matrix_dim=2744, max_cores=4)


class TestStepTrafficMatrix:
    def test_inter_node_pairs_only(self):
        node_of_rank = np.array([0, 0, 1, 1, 2, 2, 3], dtype=np.int64)
        src, dst, cnt = step_traffic_matrix(
            7, stride=1, group_size=7, node_of_rank=node_of_rank
        )
        assert np.all(src != dst)

    def test_counts_total(self):
        # 4 ranks in one 4-group on 4 distinct nodes: 12 ordered pairs.
        node_of_rank = np.arange(4, dtype=np.int64)
        src, dst, cnt = step_traffic_matrix(
            4, stride=1, group_size=4, node_of_rank=node_of_rank
        )
        assert cnt.sum() == 12

    def test_round_offset_selects_single_shift(self):
        node_of_rank = np.arange(4, dtype=np.int64)
        src, dst, cnt = step_traffic_matrix(
            4, stride=1, group_size=4, node_of_rank=node_of_rank,
            round_offset=1,
        )
        assert cnt.sum() == 4
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert pairs == {(0, 1), (1, 2), (2, 3), (3, 0)}

    def test_round_offset_validation(self):
        node_of_rank = np.arange(4, dtype=np.int64)
        with pytest.raises(ValueError):
            step_traffic_matrix(
                4, 1, 4, node_of_rank, round_offset=4
            )

    def test_all_intranode_empty(self):
        node_of_rank = np.zeros(7, dtype=np.int64)
        src, dst, cnt = step_traffic_matrix(7, 1, 7, node_of_rank)
        assert len(src) == 0


class TestRunCaps:
    def test_result_structure(self):
        res = run_caps_on_geometry(PartitionGeometry((1, 1, 1, 1)), **SMALL)
        assert isinstance(res, MatmulResult)
        assert res.communication_time > 0
        assert res.computation_time > 0
        assert len(res.step_times) == 3  # 7^3 ranks -> 3 BFS steps
        assert res.total_time == pytest.approx(
            res.communication_time + res.computation_time
        )

    def test_comm_time_is_sum_of_steps(self):
        res = run_caps_on_geometry(PartitionGeometry((1, 1, 1, 1)), **SMALL)
        assert res.communication_time == pytest.approx(sum(res.step_times))

    def test_core_limit_enforced(self):
        with pytest.raises(ValueError):
            run_caps_on_geometry(
                PartitionGeometry((1, 1, 1, 1)),
                num_ranks=2048, matrix_dim=2744, max_cores=2,
            )

    def test_computation_geometry_independent(self):
        a = run_caps_on_geometry(PartitionGeometry((2, 1, 1, 1)),
                                 num_ranks=2401, matrix_dim=9408)
        b = run_caps_on_geometry(PartitionGeometry((2, 1, 1, 1)),
                                 num_ranks=2401, matrix_dim=9408,
                                 node_order="abcdet")
        assert a.computation_time == b.computation_time

    def test_comm_slowdown_multiplies(self):
        base = run_caps_on_geometry(
            PartitionGeometry((1, 1, 1, 1)), **SMALL
        )
        slowed = run_caps_on_geometry(
            PartitionGeometry((1, 1, 1, 1)), comm_slowdown=1.5, **SMALL
        )
        assert slowed.communication_time == pytest.approx(
            1.5 * base.communication_time
        )
        assert slowed.computation_time == base.computation_time

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            run_caps_on_geometry(
                PartitionGeometry((1, 1, 1, 1)), schedule="magic", **SMALL
            )

    def test_superposition_not_slower_than_rounds(self):
        """Overlapping all partners can only reduce the bottleneck."""
        geo = PartitionGeometry((1, 1, 1, 1))
        rounds = run_caps_on_geometry(geo, schedule="rounds", **SMALL)
        overlap = run_caps_on_geometry(geo, schedule="superposition", **SMALL)
        assert (
            overlap.communication_time
            <= rounds.communication_time + 1e-12
        )

    def test_deterministic(self):
        geo = PartitionGeometry((2, 1, 1, 1))
        a = run_caps_on_geometry(geo, num_ranks=2401, matrix_dim=9408)
        b = run_caps_on_geometry(geo, num_ranks=2401, matrix_dim=9408)
        assert a.communication_time == b.communication_time


class TestScalarOracle:
    """Batch-routed rounds equal the per-pair loop, step time for step time."""

    @pytest.mark.parametrize("node_order", ["tedcba", "abcdet"])
    @pytest.mark.parametrize("digit_order", ["deep-major", "top-major"])
    @pytest.mark.parametrize("schedule", ["rounds", "superposition"])
    @pytest.mark.parametrize(
        "dims,num_ranks,matrix_dim",
        [
            ((2, 1, 1, 1), 343, 2744),
            ((2, 1, 1, 1), 2401, 9408),
            ((4, 1, 1, 1), 4802, 9408),
            ((2, 2, 1, 1), 4802, 9408),
        ],
    )
    def test_step_times_match(
        self, dims, num_ranks, matrix_dim, schedule, digit_order, node_order
    ):
        kwargs = dict(
            num_ranks=num_ranks, matrix_dim=matrix_dim, max_cores=4,
            schedule=schedule, digit_order=digit_order,
            node_order=node_order,
        )
        geo = PartitionGeometry(dims)
        got = run_caps_on_geometry(geo, **kwargs).step_times
        assert got == caps_step_times(geo, **kwargs)


class TestGeometrySensitivity:
    def test_proposed_beats_current_4mp_scaled(self):
        """Geometry effect visible even at the scaled-down test size."""
        current = run_caps_on_geometry(
            PartitionGeometry((4, 1, 1, 1)),
            num_ranks=4802, matrix_dim=9408, max_cores=4,
        )
        proposed = run_caps_on_geometry(
            PartitionGeometry((2, 2, 1, 1)),
            num_ranks=4802, matrix_dim=9408, max_cores=4,
        )
        assert (
            proposed.communication_time < current.communication_time
        )
