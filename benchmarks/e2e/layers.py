"""Outside-in layer tracer: spans around public ``repro`` calls.

The benchmark attributes a traced pass's wall time to the layers the
ROADMAP names without touching ``src/``: :data:`LAYERS` maps each layer
to public callables, and :class:`Tracer` wraps each one and rebinds
every alias of it in the loaded ``repro.*`` modules (so
``repro.simmpi.engine.max_min_fair_rates``, a ``from … import`` of
``repro.netsim.fairness.max_min_fair_rates``, is traced too).  Methods
are wrapped on their class.  ``uninstall`` puts every original binding
back, including aliases made by modules imported while installed.

A span records its name, layer, start, end, parent span and self time
(its duration minus the time of the wrapped calls it made).  Spans stay
in memory in the process that made them.  Each wrapper also adds its
self time and one call to the observability counters
``bench.layer.<layer>.self_s`` / ``.calls``; forked sweep workers
inherit the wrappers, and ``sweep_map`` already merges their counters
into the parent, so layer totals include work done in workers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

from repro import observability

#: Layer name -> ``"module:qualname"`` of the public callables it owns.
LAYERS: dict[str, tuple[str, ...]] = {
    "netsim.routing": (
        "repro.netsim.routing:dimension_ordered_route",
        "repro.netsim.routing:fault_aware_route",
        "repro.netsim.routing:bfs_route",
        "repro.netsim.network:LinkNetwork.path_to_links",
        "repro.netsim.network:LinkNetwork.with_faults",
    ),
    "netsim.batchroute": (
        "repro.netsim.batchroute:batch_dimension_ordered_routes",
        "repro.netsim.batchroute:batch_fault_aware_routes",
        "repro.netsim.batchroute:fault_link_mask",
        "repro.netsim.batchroute:fault_capacity_plane",
    ),
    "netsim.stacked": (
        "repro.netsim.stacked:StackedPathMatrix.from_scenarios",
        "repro.netsim.stacked:StackedPathMatrix.split",
    ),
    "netsim.fairness": (
        "repro.netsim.fairness:max_min_fair_rates",
        "repro.netsim.fairness:stacked_max_min_fair_rates",
    ),
    "netsim.fluid": (
        "repro.netsim.fluid:FluidSimulation.run",
        "repro.netsim.fluid:FluidSimulation.solve",
        "repro.netsim.fluid:StackedFluidSimulation.solve",
    ),
    "simmpi.engine": (
        "repro.simmpi.engine:VirtualMpi.run",
        "repro.simmpi.engine:VirtualMpi.warm_routes",
        "repro.simmpi.ledger:FlowLedger.add",
        "repro.simmpi.ledger:FlowLedger.deactivate",
        "repro.simmpi.ledger:FlowLedger.repath",
        "repro.simmpi.ledger:FlowLedger.crossing_slots",
        "repro.simmpi.ledger:FlowLedger.crossing_count",
        "repro.simmpi.ledger:FlowLedger.subset_entries",
        "repro.simmpi.ledger:FlowLedger.view",
        "repro.simmpi.ledger:FlowLedger.maybe_compact",
    ),
    "parallel": (
        "repro.parallel:sweep_map",
        "repro.sharedmem:SharedArrayPool.dumps",
        "repro.sharedmem:shm_loads",
        "repro.sharedmem:maybe_shm_dumps",
        "repro.sharedmem:decode_result",
    ),
    "resilience": (
        "repro.resilience:resilient_sweep_map",
        "repro.resilience:SweepCheckpoint.load",
        "repro.resilience:SweepCheckpoint.record",
    ),
    "experiments": (
        "repro.experiments.pairing:run_pairing_sweep",
        "repro.experiments.faultstudy:fluid_fault_sweep",
        "repro.experiments.strongscaling:run_strong_scaling",
        "repro.experiments.matmul:run_caps_on_geometry",
        "repro.experiments.matmul:step_traffic_matrix",
    ),
    "isoperimetry": (
        "repro.isoperimetry.exact:ExactSolver.min_perimeter",
        "repro.isoperimetry.exact:conjecture_counterexample",
        "repro.isoperimetry.bounds:torus_isoperimetric_bound",
    ),
    "allocation": (
        "repro.allocation.optimizer:best_geometry_for_machine",
        "repro.allocation.optimizer:worst_geometry_for_machine",
        "repro.allocation.enumeration:enumerate_geometries",
        "repro.allocation.enumeration:achievable_midplane_counts",
        "repro.faults:random_link_failures",
        "repro.faults:FaultSet.restore",
    ),
}

_COUNTER = "bench.layer."


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def layer_totals(counters: dict[str, float]) -> dict[str, tuple[float, int]]:
    """``{layer: (self_s, calls)}`` from merged observability counters."""
    return {
        layer: (
            counters.get(f"{_COUNTER}{layer}.self_s", 0.0),
            int(counters.get(f"{_COUNTER}{layer}.calls", 0)),
        )
        for layer in LAYERS
    }


class Tracer:
    """Wraps the :data:`LAYERS` callables and records their spans.

    ``spans`` holds ``(id, parent_id, name, layer, start, end, self_s)``
    tuples in completion order; ``parent_id`` is ``None`` for a call
    made outside any other traced call.
    """

    def __init__(self, layers: dict[str, tuple[str, ...]] | None = None):
        self.layers = LAYERS if layers is None else layers
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span_id, child_s] per open call
        self._ids = itertools.count()
        self._patches: list[tuple[Any, str, Any]] = []
        self._wrappers: dict[int, tuple[Callable, Any]] = {}

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """*fn* with span recording and layer counters around each call."""
        stack, spans, ids = self._stack, self.spans, self._ids
        self_key = f"{_COUNTER}{layer}.self_s"
        calls_key = f"{_COUNTER}{layer}.calls"

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = time.perf_counter()  # repro: allow-wallclock span timing; never feeds results
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()  # repro: allow-wallclock span timing; never feeds results
                stack.pop()
                duration = end - start
                self_s = duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                spans.append((
                    frame[0], None if parent is None else parent[0],
                    name, layer, start, end, self_s,
                ))
                observability.counter_add(self_key, self_s)
                observability.counter_add(calls_key)

        return traced

    def install(self) -> None:
        for layer, targets in self.layers.items():
            for target in targets:
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    self._patch_method(layer, target, getattr(module, cls_name), attr)
                else:
                    self._patch_function(layer, target, getattr(module, qualname))

    def _patch_function(self, layer: str, name: str, original: Callable) -> None:
        wrapper = self.wrap(layer, name, original)
        self._wrappers[id(wrapper)] = (wrapper, original)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def _patch_method(self, layer: str, name: str, cls: type, attr: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement: Any = type(raw)(self.wrap(layer, name, raw.__func__))
        else:
            replacement = self.wrap(layer, name, raw)
        setattr(cls, attr, replacement)
        self._patches.append((cls, attr, raw))

    def uninstall(self) -> None:
        """Restore every binding ``install`` (or a later import) made."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        self._wrappers.clear()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def top_level_s(self) -> float:
        """Time inside traced calls made outside any other traced call."""
        return sum(end - start for _, parent, _, _, start, end, _ in self.spans
                   if parent is None)

    def write_jsonl(self, path: str, header: dict[str, Any]) -> None:
        """Append a header record and every span to *path* as JSON Lines."""
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "pass", **header}) + "\n")
            for span_id, parent, name, layer, start, end, self_s in self.spans:
                fh.write(json.dumps({
                    "type": "span", "pass": header.get("pass"),
                    "workload": header.get("workload"), "id": span_id,
                    "parent": parent, "name": name, "layer": layer,
                    "start": start, "end": end, "self_s": self_s,
                }) + "\n")
