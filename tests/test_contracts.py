"""The REPRO_CHECK runtime contract sanitizer (repro.contracts)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import contracts
from repro.netsim.batchroute import PathMatrix
from repro.netsim.fairness import max_min_fair_rates
from repro.netsim.network import LinkNetwork
from repro.netsim.routing import dimension_ordered_route
from repro.netsim.traffic import bisection_pairing
from repro.topology.torus import Torus


@pytest.fixture
def checks_on(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")


@pytest.fixture
def checks_off(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)


def small_problem():
    t = Torus((4, 2, 2))
    net = LinkNetwork(t)
    paths = [
        net.path_to_links(dimension_ordered_route(t, s, d))
        for s, d in bisection_pairing(t)
    ]
    return net, paths


class TestEnabled:
    def test_off_by_default(self, checks_off):
        assert contracts.enabled() is False

    def test_follows_env(self, checks_on):
        assert contracts.enabled() is True


class TestCheckArray:
    def test_accepts_conforming_array(self):
        contracts.check_array(
            "x", np.zeros(4), dtype=np.float64, ndim=1,
            finite=True, nonnegative=True,
        )

    def test_type_mismatch(self):
        with pytest.raises(contracts.ContractError, match="ndarray"):
            contracts.check_array("x", [1, 2, 3])

    def test_dtype_mismatch(self):
        with pytest.raises(contracts.ContractError, match="dtype"):
            contracts.check_array(
                "x", np.zeros(4, dtype=np.float32), dtype=np.float64
            )

    def test_ndim_mismatch(self):
        with pytest.raises(contracts.ContractError, match="1-D"):
            contracts.check_array("x", np.zeros((2, 2)), ndim=1)

    def test_noncontiguous_rejected(self):
        view = np.zeros(8)[::2]
        with pytest.raises(contracts.ContractError, match="contiguous"):
            contracts.check_array("x", view)

    def test_nan_rejected_when_finite(self):
        arr = np.array([1.0, np.nan, 3.0])
        with pytest.raises(contracts.ContractError, match="index 1"):
            contracts.check_array("x", arr, finite=True)

    def test_inf_rejected_when_finite(self):
        with pytest.raises(contracts.ContractError, match="non-finite"):
            contracts.check_array("x", np.array([np.inf]), finite=True)

    def test_negative_rejected(self):
        with pytest.raises(contracts.ContractError, match="negative"):
            contracts.check_array(
                "x", np.array([0.0, -1.0]), nonnegative=True
            )

    def test_writable_rejected_when_readonly(self):
        arr = np.zeros(4)
        with pytest.raises(contracts.ContractError, match="read-only"):
            contracts.check_array("x", arr, readonly=True)
        arr.flags.writeable = False
        contracts.check_array("x", arr, readonly=True)

    def test_checks_never_copy_or_modify(self):
        arr = np.arange(6, dtype=np.float64)
        arr.flags.writeable = False
        before = arr.copy()
        contracts.check_array(
            "x", arr, dtype=np.float64, ndim=1, finite=True,
            nonnegative=True, readonly=True,
        )
        np.testing.assert_array_equal(arr, before)


class TestInstrumentedEntryPoints:
    def test_path_matrix_construction_passes(self, checks_on):
        net, paths = small_problem()
        pm = PathMatrix.from_paths(paths)
        contracts.check_path_matrix(pm)

    def test_nan_capacities_rejected_at_solver(self, checks_on):
        net, paths = small_problem()
        pm = PathMatrix.from_paths(paths)
        caps = np.full(net.num_links, 1.0)
        caps[3] = np.nan
        with pytest.raises(contracts.ContractError, match="capacities"):
            max_min_fair_rates(pm, caps)

    def test_nan_capacities_pass_silently_when_off(self, checks_off):
        # Without REPRO_CHECK the solver trusts its inputs (and its
        # own eager validation still catches what it always caught).
        net, paths = small_problem()
        pm = PathMatrix.from_paths(paths)
        caps = np.full(net.num_links, 1.0)
        with pytest.raises(ValueError):
            max_min_fair_rates(pm, np.full(net.num_links, -1.0))
        rates = max_min_fair_rates(pm, caps)
        assert np.isfinite(rates).all()

    def test_results_bit_identical_on_and_off(self, monkeypatch):
        net, paths = small_problem()
        caps = net.capacities.astype(np.float64)

        monkeypatch.delenv("REPRO_CHECK", raising=False)
        pm_off = PathMatrix.from_paths(paths)
        rates_off = max_min_fair_rates(pm_off, caps)

        monkeypatch.setenv("REPRO_CHECK", "1")
        pm_on = PathMatrix.from_paths(paths)
        rates_on = max_min_fair_rates(pm_on, caps)

        assert rates_on.tobytes() == rates_off.tobytes()

    def test_stacked_construction_rejects_inf_capacity(self, checks_on):
        from repro.netsim.stacked import StackedPathMatrix

        net, paths = small_problem()
        caps = net.capacities.astype(np.float64)
        bad = caps.copy()
        bad[0] = np.inf
        pm = PathMatrix.from_paths(paths)
        with pytest.raises(contracts.ContractError, match="capacities"):
            StackedPathMatrix.from_scenarios([(pm, bad, None)])
        StackedPathMatrix.from_scenarios([(pm, caps, None)])  # sane input ok

    def test_stacked_link_ids_pinned_to_int32(self, checks_on):
        from repro.netsim.stacked import StackedPathMatrix

        net, paths = small_problem()
        stack = StackedPathMatrix.from_scenarios(
            [(PathMatrix.from_paths(paths), net.capacities, None)]
        )
        assert stack.link_ids.dtype == np.int32
        contracts.check_stacked_matrix(stack)
        wide = stack.link_ids.astype(np.int64)
        wide.flags.writeable = False
        stack._link_ids = wide
        with pytest.raises(contracts.ContractError, match="link_ids"):
            contracts.check_stacked_matrix(stack)
