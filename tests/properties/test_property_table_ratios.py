"""Pairing time ratios equal the bisection ratios of Tables 1 and 2.

The fluid pairing benchmark saturates the partition bisection, so the
time of the current (or worst) geometry over the time of the proposed
(or best) one must equal the paper's bandwidth ratio for every table
row — the ×2 and ×1.5 gaps of Figures 3/4 — not only approximately.
One stacked sweep solves every geometry of both tables.
"""

from __future__ import annotations

import pytest

from repro.allocation import PartitionGeometry
from repro.analysis.paperdata import (
    TABLE_1_MIRA_IMPROVED,
    TABLE_2_JUQUEEN_IMPROVED,
)
from repro.experiments.pairing import PairingParameters, run_pairing_sweep

#: (table, slower geometry, faster geometry, faster BW / slower BW).
ROWS = [
    ("table1", row["current"], row["proposed"],
     row["proposed_bw"] / row["current_bw"])
    for row in TABLE_1_MIRA_IMPROVED
] + [
    ("table2", row["worst"], row["best"], row["best_bw"] / row["worst_bw"])
    for row in TABLE_2_JUQUEEN_IMPROVED
]


@pytest.fixture(scope="module")
def pairing_times():
    geometries = list(
        dict.fromkeys(
            PartitionGeometry(dims)
            for _, slow, fast, _ in ROWS
            for dims in (slow, fast)
        )
    )
    results = run_pairing_sweep(geometries, PairingParameters(rounds=2))
    return {r.geometry.dims: r.time_seconds for r in results}


@pytest.mark.parametrize(
    "table,slow,fast,bw_ratio",
    ROWS,
    ids=[f"{t}-{s}-{f}" for t, s, f, _ in ROWS],
)
def test_time_ratio_equals_bisection_ratio(
    pairing_times, table, slow, fast, bw_ratio
):
    ratio = pairing_times[slow] / pairing_times[fast]
    assert ratio == pytest.approx(bw_ratio, rel=1e-9)
