"""Exp-1C — Fig 6(e,f): RC and MAC accuracy vs |D| (TPC-H scale factor) at fixed α.

Shape claim: BEAS benefits from larger |D| under a fixed ratio (its absolute
budget α·|D| grows, so plans can afford finer template levels), while the
synopsis baselines stay roughly flat.
"""

from __future__ import annotations

from repro.experiments import accuracy_sweep, format_series, series_by_method_and_alpha
from repro.workloads import QueryGenerator, tpch

SCALES = (1, 2, 3)
ALPHA = 0.03


def _sweep_scales():
    rc_series = {}
    mac_series = {}
    # The same queries are posed at every scale (as in the paper): constants
    # are drawn from value domains shared by all scales, so only |D| varies.
    base_workload = tpch.generate(scale=SCALES[0], seed=13)
    queries = QueryGenerator(base_workload, seed=7).workload_mix(count=4)
    for scale in SCALES:
        workload = tpch.generate(scale=scale, seed=13)
        outcomes = accuracy_sweep(workload, queries, alphas=[ALPHA], include_baselines=True)
        for method, values in series_by_method_and_alpha(outcomes, "rc").items():
            rc_series.setdefault(method, {})[scale] = values[ALPHA]
        for method, values in series_by_method_and_alpha(outcomes, "mac").items():
            mac_series.setdefault(method, {})[scale] = values[ALPHA]
    return rc_series, mac_series


def test_fig6ef_accuracy_vs_scale(benchmark):
    rc_series, mac_series = benchmark.pedantic(_sweep_scales, rounds=1, iterations=1)
    print()
    print(format_series(rc_series, x_label="scale", title="Fig 6(e): RC accuracy vs |D|"))
    print(format_series(mac_series, x_label="scale", title="Fig 6(f): MAC accuracy vs |D|"))
    beas = rc_series["BEAS"]
    # BEAS dominates the one-size-fits-all synopses at every scale.  The
    # paper's stronger claim — accuracy *improving* with |D| under a fixed α —
    # is not always visible at laptop scale (ROADMAP item 11); we assert
    # the weaker, scale-stable form here: no collapse as |D| grows.
    for scale in SCALES:
        assert beas[scale] >= rc_series["Histo"][scale] - 1e-9
        assert beas[scale] >= rc_series["Sampl"][scale] - 1e-9
    assert beas[SCALES[-1]] >= 0.3
