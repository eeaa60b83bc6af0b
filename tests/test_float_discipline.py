"""Regression tests for the float-equality fixes (staticcheck float-eq).

Four call sites used ``==``/``!=`` on float-typed expressions; each got
a semantically-reviewed fix rather than a blanket suppression.  These
tests pin the new behavior, in particular the one *intentional*
semantics change: a path over an epsilon-small surviving capacity now
counts as severed in the simmpi engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.machinedesign import (
    MachineDesignRow,
    peak_speedup_over_baseline,
)
from repro.machines.bgq import BlueGeneQMachine
from repro.simmpi.engine import _Group, _VectorFlows
from tests.oracles.simmpi_flows import _path_severed


class TestPathSevered:
    """simmpi.engine: `caps[path].min() == 0.0` became an _EPS guard.

    The per-flow check lives on in the differential oracle; the engine's
    ledger store applies the same ``<= _EPS`` mask in one gather.
    """

    def test_exact_zero_is_severed(self):
        caps = np.array([1.0, 0.0, 1.0])
        assert _path_severed(caps, np.array([0, 1, 2])) is True

    def test_epsilon_dust_is_severed(self):
        # The behavior change: a link whose capacity decayed to 1e-15
        # through repeated fault scaling used to count as alive and
        # stall progress at a ~1e-15 rate; now it counts as failed.
        caps = np.array([1.0, 1e-15, 1.0])
        assert _path_severed(caps, np.array([0, 1, 2])) is True

    def test_healthy_path_is_not_severed(self):
        caps = np.array([0.5, 2.0, 1.0])
        assert _path_severed(caps, np.array([0, 1, 2])) is False

    def test_only_links_on_the_path_matter(self):
        caps = np.array([0.0, 1.0, 1.0])
        assert _path_severed(caps, np.array([1, 2])) is False

    def test_engine_reroutes_epsilon_dust(self):
        flows = _VectorFlows(4)
        group = _Group(waiters=(0,), outstanding=2)
        flows.add(np.array([0, 1]), 1.0, group, 0, 1)
        flows.add(np.array([2]), 1.0, group, 0, 2)
        caps = np.array([1.0, 1e-15, 1.0, 1.0])
        reroutes, lost = flows.reroute_severed(
            caps, lambda src, dst: np.array([3])
        )
        assert (reroutes, lost) == (1, [])


class TestPeakSpeedupSentinel:
    """machinedesign: float-zero sentinel became None."""

    @staticmethod
    def row(size, **bw):
        return MachineDesignRow(
            num_midplanes=size,
            bandwidths=bw,
            geometries={name: None for name in bw},
        )

    def test_no_common_sizes_raises(self):
        rows = [
            self.row(4, a=128, b=None),
            self.row(6, a=None, b=256),
        ]
        with pytest.raises(ValueError, match="no common sizes"):
            peak_speedup_over_baseline(rows, "a", "b")

    def test_tiny_ratio_is_a_result_not_a_sentinel(self):
        # With the old `best == 0.0` sentinel a denormal-small ratio
        # was indistinguishable from "nothing compared".
        rows = [self.row(4, a=10**40, b=1)]
        assert peak_speedup_over_baseline(rows, "a", "b") == (
            pytest.approx(1e-40)
        )

    def test_normal_comparison(self):
        rows = [
            self.row(4, a=100, b=150),
            self.row(8, a=100, b=250),
        ]
        assert peak_speedup_over_baseline(rows, "a", "b") == (
            pytest.approx(2.5)
        )


class TestBisectionBandwidthScaling:
    """bgq: `link_bandwidth == 1.0` fast path became a None sentinel."""

    def test_default_is_the_papers_integer(self):
        m = BlueGeneQMachine("t", (2, 2, 4, 2))
        bw = m.bisection_bandwidth()
        assert isinstance(bw, int)

    def test_unit_bandwidth_bit_identical_to_unscaled(self):
        m = BlueGeneQMachine("t", (2, 2, 4, 2))
        assert m.bisection_bandwidth(1.0) == m.bisection_bandwidth()

    def test_scaling_is_linear(self):
        m = BlueGeneQMachine("t", (2, 2, 4, 2))
        base = m.bisection_bandwidth()
        assert m.bisection_bandwidth(2.0) == pytest.approx(2.0 * base)
