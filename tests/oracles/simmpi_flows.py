"""Per-object flow store: the simmpi engine's differential oracle.

The original engine's per-flow Python loops, kept verbatim: one
``_Flow`` object per in-flight message, a rebuilt path list and a full
scalar water-fill (:mod:`tests.oracles.scalar_water_fill`; no ledger,
no link histogram) at every event.  The engine always builds its ledger-backed
``_VectorFlows``; tests swap this class in with
``monkeypatch.setattr(repro.simmpi.engine, "_VectorFlows", OracleFlows)``
(or :func:`oracle_engine`) and require bit-identical
:class:`~repro.simmpi.RunResult`\\ s.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

import repro.simmpi.engine as engine_mod
from repro.faults import PartitionDisconnectedError
from repro.simmpi.engine import _EPS, _Group

from .scalar_water_fill import scalar_max_min_fair_rates


def _path_severed(caps: np.ndarray, path: np.ndarray) -> bool:
    """Whether any link of *path* has (effectively) zero capacity.

    Fault injection zeroes failed links exactly, but the check is a
    grouped ``_EPS`` comparison rather than a float ``==``: a capacity
    that rounding has driven below ``_EPS`` carries no traffic either,
    and the reroute must fire for it too.
    """
    return bool((caps[path] <= _EPS).any())


@dataclass
class _Flow:
    path: np.ndarray
    remaining: float
    group: _Group
    src_node: int
    dst_node: int


class OracleFlows:
    """Per-``_Flow``-object store with the engine backend's interface."""

    __slots__ = ("flows", "_rates")

    def __init__(self, num_links: int):
        self.flows: list[_Flow] = []
        self._rates: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.flows)

    def add(
        self,
        path: np.ndarray,
        gb: float,
        group: _Group,
        src_node: int,
        dst_node: int,
    ) -> None:
        self.flows.append(
            _Flow(
                path=path,
                remaining=gb,
                group=group,
                src_node=src_node,
                dst_node=dst_node,
            )
        )

    def solve_dt(self, capacities: np.ndarray) -> float:
        """Re-solve fair rates; return the time to the next completion."""
        rates = scalar_max_min_fair_rates(
            [f.path for f in self.flows], capacities
        )
        self._rates = rates
        return min(f.remaining / r for f, r in zip(self.flows, rates))

    def degraded_count(self, degr_mask: np.ndarray) -> int:
        """How many in-flight flows cross a degraded link."""
        return sum(
            1 for f in self.flows if bool(degr_mask[f.path].any())
        )

    def progress(self, dt: float) -> list[_Group]:
        """Advance every flow by ``rate * dt``; return completed groups."""
        done_groups: list[_Group] = []
        kept: list[_Flow] = []
        for f, r in zip(self.flows, self._rates):
            f.remaining -= r * dt
            if f.remaining <= _EPS:
                f.group.outstanding -= 1
                if f.group.outstanding == 0:
                    done_groups.append(f.group)
            else:
                kept.append(f)
        self.flows = kept
        return done_groups

    def reroute_severed(
        self, caps: np.ndarray, path_of
    ) -> tuple[int, list[tuple[int, int, float]]]:
        """Re-path flows crossing a failed link; collect unroutable ones."""
        reroutes = 0
        lost: list[tuple[int, int, float]] = []
        for f in self.flows:
            if not _path_severed(caps, f.path):
                continue
            try:
                f.path = path_of(f.src_node, f.dst_node)
            except PartitionDisconnectedError:
                lost.append((f.src_node, f.dst_node, f.remaining))
                continue
            if len(f.path) == 0:  # pragma: no cover - defensive
                raise AssertionError("reroute produced an empty path")
            reroutes += 1
        return reroutes, lost

    def restore_routes(self, path_of) -> int:
        """Switch flows back to their preferred route after a repair."""
        restores = 0
        for f in self.flows:
            new_path = path_of(f.src_node, f.dst_node)
            if len(new_path) != len(f.path) or not np.array_equal(
                new_path, f.path
            ):
                f.path = new_path
                restores += 1
        return restores


@contextmanager
def oracle_engine():
    """Run :class:`~repro.simmpi.VirtualMpi` on :class:`OracleFlows`.

    A context manager rather than the ``monkeypatch`` fixture, so it is
    safe inside hypothesis ``@given`` tests and benchmark loops.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "_VectorFlows", OracleFlows)
        yield
