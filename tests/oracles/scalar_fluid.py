"""Scalar fluid progress loop: the differential reference of the engine.

The production :class:`~repro.netsim.fluid.FluidSimulation` runs one
flow set as a one-scenario
:class:`~repro.netsim.fluid.StackedFluidSimulation`.  This is the
original single-scenario retire-and-re-solve loop it replaced, kept
verbatim and solving each round with
:func:`~tests.oracles.scalar_water_fill.scalar_max_min_fair_rates`, so
no differential suite compares the stacked loop with itself.

Each round solves the max-min rates of the unfinished flows, advances
time to the earliest completion at those rates, and retires every flow
finishing within ``_EPS`` of it.  With ``record_segments`` the loop
also keeps the piecewise-constant rate schedule, one ``(dt,
flow_indices, rates)`` triple per round, for volume-conservation
checks.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.netsim.batchroute import PathMatrix
from repro.netsim.fluid import FlowResult

from .scalar_water_fill import scalar_max_min_fair_rates

_EPS = 1e-12


class ScalarFluidSimulation:
    """Progressive max-min fluid simulation of a set of flows.

    The constructor and :meth:`run` / :meth:`solve` of
    :class:`~repro.netsim.fluid.FluidSimulation`, plus
    ``record_segments``: when true, :attr:`segments` collects one
    ``(dt, flow_indices, rates)`` triple per round.  After a run,
    :attr:`rounds_used` holds the number of fairness re-solves.
    *network* needs only a ``capacities`` array.
    """

    def __init__(
        self,
        network,
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
        self._record_segments = record_segments
        self.segments: list[tuple[float, np.ndarray, np.ndarray]] = []
        self.rounds_used: int | None = None

    def run(self, max_rounds: int | None = None) -> tuple[float, list[FlowResult]]:
        """Run to completion: returns ``(makespan, per-flow results)``."""
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
        """``(makespan, completions, initial rates)``; *max_rounds*
        defaults to the number of flows plus one."""
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
            rates = scalar_max_min_fair_rates(
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
        return now, completion, initial_rates
