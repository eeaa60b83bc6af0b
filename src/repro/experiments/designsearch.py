"""Machine-design search — discovering JUQUEEN-48/54 automatically.

The paper picks its two improved hypothetical machines by hand and
argues from Figure 7 that they dominate JUQUEEN.  Its discussion section
then suggests that "designing new network topologies, and evaluating
existing ones, should be done with their partitioning constraints and
internal bisection bandwidths in mind".  This module turns that into an
optimizer: enumerate candidate 4-D midplane machine geometries, score
each by the bisection bandwidth its *partitions* can offer, and rank.

Scoring.  For a machine ``M`` and a set of job sizes, the score of each
size is the best-case partition bandwidth (0 if the size cannot be
allocated); aggregate scores are compared lexicographically by
(number of baseline sizes matched-or-beaten, total bandwidth).  The
search reproduces the paper's findings: among machines of at most 56
midplanes, 3×3×3×2 (= JUQUEEN-54) and 4×3×2×2 (= JUQUEEN-48) emerge as
the dominant designs against the JUQUEEN baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import observability
from .._validation import check_positive_int
from ..allocation.enumeration import factorizations_into_dims
from ..allocation.optimizer import best_geometry_for_machine
from ..machines.bgq import BlueGeneQMachine
from ..parallel import sweep_map

__all__ = [
    "DesignCandidate",
    "score_machine",
    "design_search",
    "fluid_check",
]


@dataclass(frozen=True)
class DesignCandidate:
    """One scored machine geometry.

    Attributes
    ----------
    machine:
        The candidate machine.
    bandwidths:
        Best-case partition bandwidth per requested size (0 when the
        size cannot be allocated).
    dominated_baseline:
        True when the candidate matches or beats the baseline at every
        size the baseline can allocate (on common allocatable sizes).
    wins:
        Number of sizes where the candidate strictly beats the baseline.
    """

    machine: BlueGeneQMachine
    bandwidths: dict[int, int]
    dominated_baseline: bool
    wins: int

    @property
    def total_bandwidth(self) -> int:
        return sum(self.bandwidths.values())


def score_machine(
    machine: BlueGeneQMachine, sizes: list[int]
) -> dict[int, int]:
    """Best-case partition bandwidth of *machine* at each size (0 = n/a)."""
    out: dict[int, int] = {}
    for size in sizes:
        try:
            best = best_geometry_for_machine(machine, size)
        except ValueError:
            out[size] = 0
        else:
            out[size] = best.normalized_bisection_bandwidth
    return out


def _score_candidate(
    task: tuple[tuple[int, ...], tuple[int, ...]],
) -> dict[int, int]:
    """Score one candidate machine shape over the given sizes."""
    dims, sizes = task
    machine = BlueGeneQMachine(f"candidate-{'x'.join(map(str, dims))}", dims)
    return score_machine(machine, list(sizes))


def design_search(
    max_midplanes: int,
    baseline: BlueGeneQMachine,
    sizes: list[int] | None = None,
    min_midplanes: int = 1,
    jobs: int | None = 1,
    fluid_check_top: int = 0,
    checkpoint=None,
) -> list[DesignCandidate]:
    """Enumerate and rank machine geometries against a baseline.

    Parameters
    ----------
    max_midplanes:
        Upper bound on candidate machine size.
    baseline:
        The machine to beat (the paper uses JUQUEEN).
    sizes:
        Job sizes to score; defaults to the baseline's *improvable-free*
        comparison set — every size the baseline can allocate.
    min_midplanes:
        Lower bound on candidate size (avoid degenerate tiny machines).
    jobs:
        Worker processes for candidate scoring (the expensive part —
        one geometry enumeration per candidate per size); ``1`` scores
        serially with identical results.
    fluid_check_top:
        Verify the top-``N`` ranked candidates' headline scores through
        the flow-level simulator: the batch-routed antipodal pairing on
        the winning partition of each candidate's largest allocatable
        size must reproduce the cut-arithmetic bandwidth
        (:func:`repro.experiments.pairing.fluid_bisection_bandwidth`),
        else a :class:`RuntimeError` is raised.  ``0`` (default) skips
        the check; the ranking itself is unchanged either way.
    checkpoint:
        Optional JSONL path: completed candidate scores are journaled
        and a killed search resumes from them (see
        :mod:`repro.resilience`).

    Returns
    -------
    Candidates sorted best-first: dominating candidates first, then by
    (wins, total bandwidth, fewer midplanes — smaller machines that do
    the same job rank higher).  The baseline itself is excluded.
    """
    check_positive_int(max_midplanes, "max_midplanes")
    check_positive_int(min_midplanes, "min_midplanes")
    if min_midplanes > max_midplanes:
        raise ValueError(
            f"min_midplanes={min_midplanes} exceeds "
            f"max_midplanes={max_midplanes}"
        )
    if sizes is None:
        from ..allocation.enumeration import achievable_midplane_counts

        sizes = achievable_midplane_counts(baseline)
    base_scores = score_machine(baseline, sizes)

    # Enumerate the candidate shapes up front (deterministic order),
    # then score them — the expensive part — through the sweep executor.
    shapes: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for total in range(min_midplanes, max_midplanes + 1):
        for dims in factorizations_into_dims(total, 4):
            if dims in seen:
                continue
            seen.add(dims)
            if dims == baseline.midplane_dims:
                continue
            shapes.append(dims)
    size_key = tuple(sizes)
    with observability.span(
        "experiment.designsearch", candidates=len(shapes)
    ):
        all_scores = sweep_map(
            _score_candidate,
            [(dims, size_key) for dims in shapes],
            jobs=jobs,
            checkpoint=checkpoint,
        )

    candidates: list[DesignCandidate] = []
    for dims, scores in zip(shapes, all_scores):
        machine = BlueGeneQMachine(f"candidate-{'x'.join(map(str, dims))}",
                                   dims)
        dominated = all(
            scores[s] >= bw
            for s, bw in base_scores.items()
            if bw > 0 and scores[s] > 0
        ) and any(
            scores[s] > 0 for s, bw in base_scores.items() if bw > 0
        )
        wins = sum(
            1
            for s, bw in base_scores.items()
            if scores[s] > bw > 0
        )
        candidates.append(
            DesignCandidate(
                machine=machine,
                bandwidths=scores,
                dominated_baseline=dominated,
                wins=wins,
            )
        )
    candidates.sort(
        key=lambda c: (
            not c.dominated_baseline,
            -c.wins,
            -c.total_bandwidth,
            c.machine.num_midplanes,
            c.machine.midplane_dims,
        )
    )
    if fluid_check_top > 0:
        fluid_check(candidates[:fluid_check_top])
    return candidates


def fluid_check(candidates: list[DesignCandidate]) -> list[dict]:
    """Cross-check candidates' headline scores via the flow simulator.

    For each candidate, simulates the antipodal pairing on the winning
    partition of its largest allocatable size and compares the
    flow-level bisection to the cut arithmetic; raises
    :class:`RuntimeError` on mismatch.  Returns one record per checked
    candidate — ``{"dims", "size", "static_bw", "fluid_bw"}`` — so the
    golden-fixture tests can pin the exact set of checks (and their
    float values) the stacked rewrite must preserve.
    """
    import math

    from .pairing import fluid_bisection_bandwidth

    records: list[dict] = []
    for cand in candidates:
        checkable = [
            (s, bw) for s, bw in cand.bandwidths.items() if bw > 0
        ]
        if not checkable:
            continue
        size, static_bw = max(checkable)
        geometry = best_geometry_for_machine(cand.machine, size)
        fluid_bw = fluid_bisection_bandwidth(geometry)
        if not math.isclose(fluid_bw, float(static_bw), rel_tol=1e-9):
            raise RuntimeError(
                f"fluid cross-check failed for candidate "
                f"{cand.machine.midplane_dims} at size {size}: "
                f"flow-level bisection {fluid_bw} vs cut arithmetic "
                f"{static_bw}"
            )
        records.append(
            {
                "dims": list(cand.machine.midplane_dims),
                "size": int(size),
                "static_bw": float(static_bw),
                "fluid_bw": float(fluid_bw),
            }
        )
    return records
