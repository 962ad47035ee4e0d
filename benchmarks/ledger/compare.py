#!/usr/bin/env python3
"""Compare two ledgers: ``compare.py A.json B.json`` (A is the base).

One row per (workload, end-to-end metric): both medians, the ratio B/A
with its base, the metric's bound, and a verdict —

- ``worse`` / ``better``: B's median is past the bound on that side;
- ``same``: within the bound;
- ``unresolved``: the min–max spread of either side is wider than the
  bound and the two sets of runs overlap, so the medians decide nothing.

Exits non-zero on any ``worse`` row or any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import sys
from typing import List


def verdict_row(workload: str, name: str, a: dict, b: dict) -> dict:
    bound = a["bound"]
    base = a["median"]
    change = (b["median"] - base) / base if base else 0.0
    worse_by = -change if a["better"] == "higher" else change
    spread = max((side["max"] - side["min"]) / side["median"]
                 if side["median"] else 0.0 for side in (a, b))
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > bound and overlap:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    elif worse_by < -bound:
        verdict = "better"
    else:
        verdict = "same"
    return {"workload": workload, "metric": name, "unit": a["unit"],
            "a": base, "b": b["median"],
            "ratio": b["median"] / base if base else 0.0,
            "bound": bound, "spread": spread, "worse_by": worse_by,
            "within_bound": abs(worse_by) <= bound, "verdict": verdict}


def compare_ledgers(a: dict, b: dict) -> List[dict]:
    rows = []
    for workload, entry in a["workloads"].items():
        other = b["workloads"][workload]
        for name, stat in entry["end_to_end"].items():
            rows.append(verdict_row(workload, name, stat,
                                    other["end_to_end"][name]))
    return rows


def failed_share_rose(a: dict, b: dict) -> List[str]:
    return [workload for workload, entry in a["workloads"].items()
            if b["workloads"][workload]["failed_share"] > entry["failed_share"]]


def render(rows: List[dict]) -> str:
    lines = [f"{'workload':16} {'metric':16} {'A':>12} {'B':>12} "
             f"{'B/A':>7} {'bound':>6} {'spread':>7}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:16} {row['metric']:16} {row['a']:12.5g} "
            f"{row['b']:12.5g} {row['ratio']:7.3f} {row['bound']:6.2f} "
            f"{row['spread']:7.3f}  {row['verdict']} "
            f"(base A = {row['a']:.5g} {row['unit']})")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        a = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        b = json.load(fh)
    rows = compare_ledgers(a, b)
    print(render(rows))
    rose = failed_share_rose(a, b)
    for workload in rose:
        print(f"failed_share rose on {workload}: "
              f"{a['workloads'][workload]['failed_share']:.6g} -> "
              f"{b['workloads'][workload]['failed_share']:.6g}")
    worse = [row for row in rows if row["verdict"] == "worse"]
    return 1 if worse or rose else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
