"""Randomized invariants of the max-min fair rate solver.

For random flow/link configurations (fixed seeds — the draws are part
of the test identity), :func:`max_min_fair_rates` must satisfy the
defining properties of a max-min fair allocation:

1. **Feasibility** — no link carries more than its capacity (within
   the solver's epsilon).
2. **Bottleneck characterization** — every finite-rate flow is frozen
   for a reason: a saturated link on its path, or (when demands are
   given) its own demand.
3. **Demand compliance** — no flow exceeds its demand.
4. **Positivity** — flows with usable paths get strictly positive
   rates when every link has positive capacity.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.netsim.fairness as fairness_mod
from repro.netsim.fairness import max_min_fair_rates

_EPS = 1e-9


def random_instance(seed: int, with_demands: bool):
    """A random feasible (paths, capacities, demands) triple."""
    rng = np.random.default_rng(seed)
    n_links = int(rng.integers(3, 40))
    n_flows = int(rng.integers(1, 30))
    capacities = rng.uniform(0.5, 10.0, size=n_links)
    paths = []
    for _ in range(n_flows):
        length = int(rng.integers(1, min(6, n_links) + 1))
        links = rng.choice(n_links, size=length, replace=False)
        paths.append(np.asarray(sorted(int(l) for l in links)))
    demands = (
        rng.uniform(0.05, 8.0, size=n_flows).tolist()
        if with_demands
        else None
    )
    return paths, capacities, demands


def link_loads(paths, rates, n_links):
    loads = np.zeros(n_links)
    for p, r in zip(paths, rates):
        if np.isfinite(r):
            loads[p] += r
    return loads


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("with_demands", [False, True])
def test_max_min_invariants(seed, with_demands):
    paths, capacities, demands = random_instance(seed, with_demands)
    rates = max_min_fair_rates(paths, capacities, demands)

    n_links = len(capacities)
    assert len(rates) == len(paths)

    # (4) Positivity: every flow over positive-capacity links moves.
    assert np.all(rates > 0)

    # (1) Feasibility: no link oversubscribed beyond capacity + eps.
    loads = link_loads(paths, rates, n_links)
    assert np.all(loads <= capacities + _EPS * np.maximum(capacities, 1.0))

    # (3) Demands are never exceeded.
    if demands is not None:
        for r, d in zip(rates, demands):
            assert r <= d + _EPS

    # (2) Bottleneck characterization: each finite-rate flow crosses a
    # saturated link or sits at its demand.  (Empty-path flows are inf
    # or demand-capped; none are generated here.)
    saturated = loads >= capacities - 1e-6 * np.maximum(capacities, 1.0)
    for i, (p, r) in enumerate(zip(paths, rates)):
        assert np.isfinite(r)
        at_demand = demands is not None and r >= demands[i] - 1e-6
        assert bool(saturated[p].any()) or at_demand, (
            f"flow {i} (rate {r}) is not bottlenecked by any saturated "
            f"link nor by its demand"
        )


@pytest.mark.parametrize("seed", range(5))
def test_rates_are_deterministic(seed):
    paths, capacities, demands = random_instance(seed, True)
    a = max_min_fair_rates(paths, capacities, demands)
    b = max_min_fair_rates(paths, capacities, demands)
    assert np.array_equal(a, b)


def test_empty_path_flow_unconstrained():
    paths = [np.asarray([], dtype=np.int64), np.asarray([0])]
    rates = max_min_fair_rates(paths, np.asarray([2.0]))
    assert np.isinf(rates[0])
    assert rates[1] == pytest.approx(2.0)


def test_empty_path_flow_capped_by_demand():
    paths = [np.asarray([], dtype=np.int64)]
    rates = max_min_fair_rates(paths, np.asarray([2.0]), demands=[1.5])
    assert rates[0] == pytest.approx(1.5)


def test_single_bottleneck_shared_equally():
    paths = [np.asarray([0]), np.asarray([0]), np.asarray([0, 1])]
    rates = max_min_fair_rates(paths, np.asarray([3.0, 10.0]))
    assert np.allclose(rates, 1.0)


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("with_demands", [False, True])
def test_seeded_link_counts_bit_identical(seed, with_demands):
    """Round 1 from the active flows' link counts alone, bit for bit.

    Over the distinct used (capacity, count) pairs, ``min(c / k)``,
    capped by the lowest demand, is exactly the lowest rate of the full
    solve; and when every used link saturates at it (and no demand is
    lower), every flow gets exactly that rate.  The simmpi engine takes
    this shortcut from its link histogram instead of solving.
    """
    paths, capacities, demands = random_instance(seed, with_demands)
    rng = np.random.default_rng(1000 + seed)
    paths.append(np.asarray([], dtype=np.int64))  # an unconstrained flow
    if demands is not None:
        demands.append(1.0)
    active = np.flatnonzero(rng.random(len(paths)) < 0.7)
    counts = np.bincount(
        np.concatenate([np.empty(0, dtype=np.int64)]
                       + [paths[i] for i in active]),
        minlength=len(capacities),
    )
    if seed % 2:
        # Capacity in proportion to load: every used link saturates
        # together, from as many capacity classes as distinct loads.
        capacities = np.where(counts > 0, 0.75 * counts, capacities)
    live = [i for i, f in enumerate(active) if len(paths[f])]
    if not live:
        return
    pairs = sorted(set(zip(capacities[counts > 0].tolist(),
                           counts[counts > 0].tolist())))
    c = np.asarray([p[0] for p in pairs])
    k = np.asarray([p[1] for p in pairs], dtype=np.int64)
    inc = float((c / k).min())
    floor = inc
    if demands is not None:
        floor = min(inc, float(min(demands[active[i]] for i in live)))

    rates = max_min_fair_rates(paths, capacities, demands, active=active)
    assert rates[live].min() == floor
    uniform = bool(np.all(c - k * inc <= fairness_mod._EPS * c))
    assert uniform or not seed % 2
    if uniform and floor == inc:
        assert rates[live].tobytes() == np.full(len(live), inc).tobytes()
