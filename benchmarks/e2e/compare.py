"""Compare two sets of end-to-end runs, metric by metric, against the benchmark's own bounds.

    python3 benchmarks/e2e/compare.py A/*.json B/*.json

The files are ``run.py --out`` records; the directory a file sits in says
which side it belongs to (first directory named = A, the baseline).  For
every workload x end-to-end metric the table gives each side's median and
quartiles, how much worse B's median is than A's as a share of A's (negative
= better), the metric's bound, and a verdict:

* ``unresolved`` — the distance between the quartiles of either side, as a
  share of its median, exceeds the bound: the runs cannot tell;
* ``differs`` — B's median is worse or better than A's by more than the bound;
* ``agree`` — otherwise.

Exit code 1 when any row ``differs``.  Two sets of the same commit must
agree everywhere; that is how the benchmark's own noise is audited.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]


def load(paths: List[str]) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run]}}`` from untraced, full-size records."""
    values: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        with open(path) as handle:
            records = json.load(handle)
        for record in records if isinstance(records, list) else [records]:
            if record["trace"] or record["smoke"]:
                continue
            for name, value in record["metrics"].items():
                values.setdefault(record["workload"], {}).setdefault(name, []).append(value)
    return values


def summary(values: List[float]):
    """(median, first quartile, third quartile); the quartiles need two runs."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    first, _, third = statistics.quantiles(values, n=4)
    return median, first, third


def main(argv: List[str]) -> int:
    sides: Dict[str, List[str]] = {}
    for path in argv:
        sides.setdefault(os.path.dirname(os.path.abspath(path)), []).append(path)
    if len(sides) != 2:
        sys.stderr.write(__doc__)
        sys.stderr.write(f"\nexpected files from two directories, got {len(sides)}\n")
        return 2
    baseline, change = (load(paths) for paths in sides.values())
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)

    differs = 0
    print(
        f"{'workload':16s} {'metric':20s} {'A median [q1, q3]':>38s} {'B median [q1, q3]':>38s} "
        f"{'worse by':>9s} {'bound':>6s}  verdict"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in baseline or workload not in change:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = baseline[workload][name], change[workload][name]
            a_median, a_first, a_third = summary(a)
            b_median, b_first, b_third = summary(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (b_median - a_median) / a_median
            spread = max((a_third - a_first) / a_median, (b_third - b_first) / b_median)
            if spread > bound:
                verdict = "unresolved"
            elif abs(worse_by) > bound:
                verdict = "differs"
                differs += 1
            else:
                verdict = "agree"
            print(
                f"{workload:16s} {name:20s} "
                f"{a_median:12.5g} [{a_first:10.5g}, {a_third:10.5g}] "
                f"{b_median:12.5g} [{b_first:10.5g}, {b_third:10.5g}] "
                f"{worse_by:+9.2%} {bound:6.1%}  {verdict}  (n={len(a)},{len(b)})"
            )
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
