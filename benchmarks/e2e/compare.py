"""Compare two ``run.py --out`` result files, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

For every end-to-end metric of every workload present in both files it
prints one verdict for B against A, using the bounds and directions in
``BENCHMARK.json``:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — B's median is better than A's by more than the bound;
* ``unresolved`` — either side's spread (IQR over median) is wider than
  the bound, and the runs of neither side all beat the other side's;
* ``ok`` — otherwise.

``failed_frac`` (failed over attempted passes) has no tolerance: any
rise is ``regressed``.  The exit status is 1 when anything regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def spread(stats: dict[str, Any]) -> float:
    """IQR over median of one side's samples."""
    return (stats["q3"] - stats["q1"]) / stats["value"]


def verdict(a: dict[str, Any], b: dict[str, Any], bound: float,
            better: str) -> str:
    """B's verdict against A for one metric (``stats`` dicts of run.py)."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["value"] - a["value"]) / a["value"]

    def beats(x: float, y: float) -> bool:
        return sign * (x - y) < 0

    b_wins = all(beats(x, y) for x in b["samples"] for y in a["samples"])
    a_wins = all(beats(y, x) for x in b["samples"] for y in a["samples"])
    if max(spread(a), spread(b)) > bound and not (a_wins or b_wins):
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "ok"


def compare(a: dict[str, Any], b: dict[str, Any],
            spec: dict[str, Any]) -> list[tuple[str, str, str, str]]:
    """``(workload, metric, detail, verdict)`` rows for B against A."""
    rows = []
    for name, sa in a["workloads"].items():
        sb = b["workloads"].get(name)
        if sb is None:
            continue
        if "skipped" in sa or "skipped" in sb:
            rows.append((name, "-", sa.get("skipped") or sb["skipped"], "skipped"))
            continue
        for metric in spec["end_to_end"]:
            ma, mb = sa["metrics"][metric["name"]], sb["metrics"][metric["name"]]
            detail = (f"{ma['value']:.6g} -> {mb['value']:.6g} {ma['unit']} "
                      f"({100 * (mb['value'] / ma['value'] - 1):+.1f}%, "
                      f"bound {100 * metric['bound']:.0f}%)")
            rows.append((name, metric["name"], detail,
                         verdict(ma, mb, metric["bound"], metric["better"])))
        fa, fb = sa["failed_frac"], sb["failed_frac"]
        rows.append((name, "failed_frac", f"{fa:.3g} -> {fb:.3g}",
                     "regressed" if fb > fa else "ok"))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="baseline results (run.py --out)")
    parser.add_argument("b", help="candidate results (run.py --out)")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    rows = compare(json.loads(Path(args.a).read_text()),
                   json.loads(Path(args.b).read_text()), spec)
    for name, metric, detail, result in rows:
        print(f"{name:<20} {metric:<12} {result:<10} {detail}")
    return 1 if any(r[3] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
