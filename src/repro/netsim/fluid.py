"""Fluid (progressive max-min) completion-time simulation.

Given flows with paths and *volumes*, the fluid model repeatedly:

1. computes the max-min fair rates of the unfinished flows;
2. advances time to the earliest flow completion at those rates;
3. removes finished flows (freeing their share of every link) and
   re-solves.

This is the standard flow-level network simulation — deterministic,
byte-accurate in aggregate, and exactly the contention mechanism the
paper's predictions reason about (bandwidth shares of shared links).
Packet-level effects (latency, protocol overheads) are out of scope; the
experiments transfer hundreds of megabytes per flow, so bandwidth
dominates.

One loop, :class:`StackedFluidSimulation`, advances every scenario of a
:class:`~repro.netsim.stacked.StackedPathMatrix` at once; each re-solve
passes an ``active`` mask instead of re-slicing paths, and every flow
whose time-to-completion lands within ``_EPS`` of its scenario's
earliest finish retires in that same round — symmetric patterns where
all flows tie (the bisection pairing) complete in one solve instead of
one re-solve per flow.  :class:`FluidSimulation` runs one flow set as a
one-scenario stack.  The scalar loop it replaced is the differential
reference in ``tests/oracles/scalar_fluid.py``, matched bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .. import contracts, observability
from .batchroute import PathMatrix
from .fairness import stacked_max_min_fair_rates
from .network import LinkNetwork
from .stacked import StackedPathMatrix, segment_min

__all__ = [
    "FlowResult",
    "FluidSimulation",
    "StackedFluidSimulation",
    "simulate_flows",
]

_EPS = 1e-12


@dataclass(frozen=True)
class FlowResult:
    """Outcome of one simulated flow.

    Attributes
    ----------
    completion_time:
        Time at which the last byte of the flow was delivered.
    initial_rate:
        The flow's max-min rate at t=0 (useful for steady-state checks).
    """

    completion_time: float
    initial_rate: float


class FluidSimulation:
    """Progressive max-min fluid simulation of one set of flows.

    A one-scenario :class:`StackedFluidSimulation`: the constructor
    stacks the flows over the network's capacities as one validated
    scenario, and :meth:`solve` runs the stacked loop on it.

    Parameters
    ----------
    network:
        The capacitated link network (only its ``capacities`` are read).
    paths:
        A :class:`PathMatrix`, or per-flow arrays of directed link ids.
    volumes:
        Per-flow data volumes (same units as capacity × time).
    demands:
        Optional per-flow injection-rate caps.

    After :meth:`run`, :attr:`rounds_used` holds the number of fairness
    re-solves the run needed (1 for fully symmetric patterns).
    """

    def __init__(
        self,
        network: LinkNetwork,
        paths: PathMatrix | Sequence[np.ndarray],
        volumes: Sequence[float],
        demands: Sequence[float] | None = None,
    ):
        pm = (
            paths
            if isinstance(paths, PathMatrix)
            else PathMatrix.from_paths(paths)
        )
        if len(pm) != len(volumes):
            raise ValueError(
                f"{len(pm)} paths but {len(volumes)} volumes"
            )
        caps = np.asarray(network.capacities, dtype=float)
        stack = StackedPathMatrix(
            pm.link_ids, pm.offsets, [0, len(pm)], [0, len(caps)], caps
        )
        self._sim = StackedFluidSimulation(stack, volumes, demands)

    @property
    def rounds_used(self) -> int | None:
        """Fairness re-solves of the last run (``None`` before one)."""
        return self._sim.rounds_used

    def run(self, max_rounds: int | None = None) -> tuple[float, list[FlowResult]]:
        """Run to completion: returns ``(makespan, per-flow results)``.

        *max_rounds* guards against pathological inputs; it defaults to
        the number of flows plus one (each round finishes at least one
        flow, and grouped retirement usually finishes many).
        """
        makespan, completion, initial = self.solve(max_rounds)
        results = [
            FlowResult(completion_time=c, initial_rate=r)
            for c, r in zip(completion.tolist(), initial.tolist())
        ]
        return makespan, results

    def solve(
        self, max_rounds: int | None = None
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Array-shaped :meth:`run`: ``(makespan, completions, rates)``.

        Returns the per-flow completion times and t=0 max-min rates as
        arrays, skipping the :class:`FlowResult` object construction —
        the form the experiment drivers consume for large flow counts.
        """
        makespans, completion, initial = self._sim.solve(max_rounds)
        return float(makespans[0]), completion, initial


class StackedFluidSimulation:
    """Fluid simulation of many scenarios advanced by one numpy loop.

    Volumes, completion times, and rates live in flat flow-aligned
    arrays over a :class:`~repro.netsim.stacked.StackedPathMatrix`, each
    round solves one
    :func:`~repro.netsim.fairness.stacked_max_min_fair_rates` pass, and
    every scenario advances by *its own* earliest completion time —
    scenarios retire flows independently, exactly as if each ran alone.
    Because all per-flow updates are elementwise and all per-scenario
    reductions are exact minima, the completion times, makespans, and
    initial rates are **bit-for-bit** those of the scalar loop of
    ``tests/oracles/scalar_fluid.py`` run on each scenario
    (differential-tested).

    Flows inactive in the stack (e.g. disconnected by faults) are
    never simulated: their completion time and initial rate stay 0.

    Parameters
    ----------
    stack:
        The stacked scenario paths/capacities.
    volumes:
        Flat per-flow data volumes (all stacked flows, including
        inactive ones; those values are ignored but must be positive).
    demands:
        Optional flat per-flow injection caps.
    """

    def __init__(
        self,
        stack: StackedPathMatrix,
        volumes: np.ndarray,
        demands: np.ndarray | None = None,
    ):
        if not isinstance(stack, StackedPathMatrix):
            raise TypeError(
                f"expected a StackedPathMatrix, got "
                f"{type(stack).__name__}"
            )
        vol = np.asarray(volumes, dtype=float).ravel()
        if len(vol) != stack.num_flows:
            raise ValueError(
                f"{stack.num_flows} stacked flows but {len(vol)} volumes"
            )
        if not np.all(vol > 0):
            raise ValueError("all flow volumes must be positive")
        self._stack = stack
        self._volumes = vol
        self._demands = (
            None
            if demands is None
            else np.asarray(demands, dtype=float).ravel()
        )
        if contracts.enabled():
            contracts.check_solver_inputs(
                "StackedFluidSimulation", stack.capacities,
                demands=self._demands, volumes=vol,
            )
        self.rounds_used: int | None = None

    def solve(
        self, max_rounds: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run all scenarios: ``(makespans, completions, initial_rates)``.

        *makespans* has one entry per scenario; *completions* and
        *initial_rates* are flow-aligned flat arrays.  Scenario ``s``'s
        slice of each equals what :meth:`FluidSimulation.solve` returns
        for that scenario alone.  *max_rounds* defaults to the largest
        scenario's flow count plus one.
        """
        if observability.OBS.enabled:
            with observability.span(
                "netsim.fluid.stacked_run",
                scenarios=self._stack.num_scenarios,
                flows=self._stack.num_flows,
            ):
                return self._run(max_rounds)
        return self._run(max_rounds)

    def _run(
        self, max_rounds: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        stack = self._stack
        n = stack.num_flows
        n_scen = stack.num_scenarios
        flow_scn = stack.flow_scenarios
        remaining = self._volumes.copy()
        active = stack.active.copy()
        completion = np.zeros(n, dtype=float)
        initial_rates = np.zeros(n, dtype=float)
        now = np.zeros(n_scen, dtype=float)
        rounds_done = 0
        # The guard is per scenario (flows + 1 rounds); the loop runs
        # until the *deepest* scenario converges.
        per_scen_flows = np.diff(stack.flow_base)
        rounds = (
            max_rounds
            if max_rounds is not None
            else int(per_scen_flows.max(initial=0)) + 1
        )
        ttc = np.empty(n, dtype=float)
        for round_no in range(rounds):
            if not active.any():
                break
            rounds_done += 1
            rates = stacked_max_min_fair_rates(
                stack, self._demands, active=active
            )
            if round_no == 0:
                initial_rates[active] = rates[active]
            if np.any(rates[active] <= 0):  # pragma: no cover - defensive
                raise RuntimeError("fluid simulation produced a zero rate")
            # Empty-path flows have rate inf: ttc 0, retired this round
            # (rate × dt would be inf·0 = nan, hence the errstate).
            with np.errstate(invalid="ignore"):
                ttc.fill(np.inf)
                np.divide(remaining, rates, out=ttc, where=active)
                dt = segment_min(ttc, stack.flow_base)
                # A scenario with no live flows left sees only +inf:
                # its clock must not advance.
                dt[~np.isfinite(dt)] = 0.0
                now += dt
                dt_b = dt[flow_scn]
                new_rem = remaining - rates * dt_b
            done = active & (
                (ttc <= dt_b * (1.0 + _EPS))
                | (new_rem <= _EPS * self._volumes)
            )
            keep = active & ~done
            remaining[keep] = new_rem[keep]
            remaining[done] = 0.0
            active &= ~done
            completion[done] = now[flow_scn][done]
        if active.any():
            unfinished = (
                f"scenario(s) {np.unique(flow_scn[active]).tolist()}"
                if n_scen > 1
                else f"{int(active.sum())} flows"
            )
            raise RuntimeError(
                f"fluid simulation did not converge within {rounds} "
                f"rounds ({unfinished} unfinished)"
            )
        self.rounds_used = rounds_done
        if observability.OBS.enabled:
            observability.counter_add("netsim.fluid.stacked_runs")
            observability.counter_add(
                "netsim.fluid.stacked_scenarios", n_scen
            )
            observability.counter_add(
                "netsim.fluid.rounds", rounds_done
            )
            observability.counter_add(
                "netsim.fluid.flows", int(stack.active.sum())
            )
            observability.counter_add(
                "netsim.fluid.gb_delivered",
                float(self._volumes[stack.active].sum()),
            )
        return now, completion, initial_rates


def simulate_flows(
    network: LinkNetwork,
    paths: PathMatrix | Sequence[np.ndarray],
    volumes: Sequence[float],
    demands: Sequence[float] | None = None,
) -> float:
    """Convenience wrapper: makespan of the fluid simulation."""
    return FluidSimulation(network, paths, volumes, demands).solve()[0]
