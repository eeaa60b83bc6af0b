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

Flows live in a CSR :class:`~repro.netsim.batchroute.PathMatrix`
(``Sequence[np.ndarray]`` inputs are adapted on construction), each
re-solve passes an ``active`` index set instead of re-slicing paths,
and every flow whose time-to-completion lands within ``_EPS`` of the
round's earliest finish retires in that same round — symmetric patterns
where all flows tie (the bisection pairing) complete in one solve
instead of one re-solve per flow.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .. import contracts, observability
from .batchroute import PathMatrix
from .fairness import max_min_fair_rates, stacked_max_min_fair_rates
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
    """Progressive max-min fluid simulation of a set of flows.

    Parameters
    ----------
    network:
        The capacitated link network.
    paths:
        A :class:`PathMatrix`, or per-flow arrays of directed link ids.
    volumes:
        Per-flow data volumes (same units as capacity × time).
    demands:
        Optional per-flow injection-rate caps.
    record_segments:
        When true, :attr:`segments` collects one ``(dt, flow_indices,
        rates)`` triple per round — the piecewise-constant rate
        schedule, used by tests to check volume conservation
        (``sum of rate × dt`` per flow equals its volume).

    After :meth:`run`, :attr:`rounds_used` holds the number of fairness
    re-solves the run needed (1 for fully symmetric patterns).
    """

    def __init__(
        self,
        network: LinkNetwork,
        paths: PathMatrix | Sequence[np.ndarray],
        volumes: Sequence[float],
        demands: Sequence[float] | None = None,
        *,
        record_segments: bool = False,
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
        vol = np.asarray(list(volumes), dtype=float)
        if not np.all(vol > 0):
            raise ValueError("all flow volumes must be positive")
        self._net = network
        self._pm = pm
        self._volumes = vol
        self._demands = (
            None if demands is None else np.asarray(list(demands), dtype=float)
        )
        if contracts.enabled():
            contracts.check_solver_inputs(
                "FluidSimulation", np.asarray(network.capacities, dtype=float),
                demands=self._demands, volumes=vol,
            )
        self._record_segments = record_segments
        self.segments: list[tuple[float, np.ndarray, np.ndarray]] = []
        self.rounds_used: int | None = None

    @property
    def path_matrix(self) -> PathMatrix:
        """The flows' paths in CSR form."""
        return self._pm

    def run(self, max_rounds: int | None = None) -> tuple[float, list[FlowResult]]:
        """Run to completion: returns ``(makespan, per-flow results)``.

        *max_rounds* guards against pathological inputs; it defaults to
        the number of flows (each round finishes at least one flow, and
        grouped retirement usually finishes many).
        """
        makespan, completion, initial = self.solve(max_rounds)
        results = [
            FlowResult(completion_time=float(completion[i]),
                       initial_rate=float(initial[i]))
            for i in range(len(self._pm))
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
        if observability.OBS.enabled:
            with observability.span(
                "netsim.fluid.run", flows=len(self._pm)
            ):
                return self._run(max_rounds)
        return self._run(max_rounds)

    def _run(
        self, max_rounds: int | None = None
    ) -> tuple[float, np.ndarray, np.ndarray]:
        n = len(self._pm)
        if n == 0:
            self.rounds_used = 0
            empty = np.empty(0, dtype=float)
            return 0.0, empty, empty
        remaining = self._volumes.copy()
        active = np.ones(n, dtype=bool)
        completion = np.zeros(n, dtype=float)
        initial_rates = np.zeros(n, dtype=float)
        now = 0.0
        rounds_done = 0
        rounds = max_rounds if max_rounds is not None else n + 1
        for round_no in range(rounds):
            idx = np.flatnonzero(active)
            if len(idx) == 0:
                break
            rounds_done += 1
            rates = max_min_fair_rates(
                self._pm, self._net.capacities, self._demands, active=idx
            )
            if round_no == 0:
                initial_rates[idx] = rates
            if np.any(rates <= 0):  # pragma: no cover - defensive
                raise RuntimeError("fluid simulation produced a zero rate")
            # Empty-path flows have rate inf: ttc 0, retired immediately
            # below (rate × dt would be inf·0 = nan, hence the errstate).
            with np.errstate(invalid="ignore"):
                ttc = remaining[idx] / rates
                dt = float(ttc.min())
                now += dt
                if self._record_segments:
                    self.segments.append((dt, idx.copy(), rates.copy()))
                new_rem = remaining[idx] - rates * dt
            # Grouped retirement: every flow finishing within _EPS of the
            # round's earliest completion retires now, not one-per-solve.
            done = (ttc <= dt * (1.0 + _EPS)) | (
                new_rem <= _EPS * self._volumes[idx]
            )
            keep = idx[~done]
            remaining[keep] = new_rem[~done]
            finished = idx[done]
            remaining[finished] = 0.0
            active[finished] = False
            completion[finished] = now
        if active.any():
            raise RuntimeError(
                "fluid simulation did not converge within "
                f"{rounds} rounds ({int(active.sum())} flows unfinished)"
            )
        self.rounds_used = rounds_done
        if observability.OBS.enabled:
            observability.counter_add("netsim.fluid.runs")
            observability.counter_add("netsim.fluid.rounds", rounds_done)
            observability.counter_add("netsim.fluid.flows", n)
            observability.counter_add(
                "netsim.fluid.gb_delivered", float(self._volumes.sum())
            )
        return now, completion, initial_rates


class StackedFluidSimulation:
    """Fluid simulation of many scenarios advanced by one numpy loop.

    The stacked counterpart of :class:`FluidSimulation`: volumes,
    completion times, and rates live in flat flow-aligned arrays over a
    :class:`~repro.netsim.stacked.StackedPathMatrix`, each round solves
    one :func:`~repro.netsim.fairness.stacked_max_min_fair_rates` pass,
    and every scenario advances by *its own* earliest completion time —
    scenarios retire flows independently, exactly as if each ran its
    own :class:`FluidSimulation`.  Because all per-flow updates are
    elementwise and all per-scenario reductions are exact minima, the
    completion times, makespans, and initial rates are **bit-for-bit**
    those of the per-scenario engine (differential-tested).

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

    @property
    def stack(self) -> StackedPathMatrix:
        return self._stack

    def solve(
        self, max_rounds: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run all scenarios: ``(makespans, completions, initial_rates)``.

        *makespans* has one entry per scenario; *completions* and
        *initial_rates* are flow-aligned flat arrays.  Scenario ``s``'s
        slice of each equals what ``FluidSimulation.solve`` returns for
        that scenario alone.
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
        # The scalar guard is per scenario (flows + 1 rounds); the
        # stacked loop runs until the *deepest* scenario converges.
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
                raise RuntimeError(
                    "stacked fluid simulation produced a zero rate"
                )
            # Empty-path flows have rate inf: ttc 0, retired this round
            # (rate × dt would be inf·0 = nan, hence the errstate) —
            # identical to the scalar engine's handling.
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
            bad = np.unique(flow_scn[active]).tolist()
            raise RuntimeError(
                "stacked fluid simulation did not converge within "
                f"{rounds} rounds (scenario(s) {bad} unfinished)"
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
    sim = FluidSimulation(network, paths, volumes, demands)
    makespan, _ = sim.run()
    return makespan
