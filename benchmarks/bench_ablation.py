"""Ablation benches for the design choices DESIGN.md calls out.

* K-D-tree levelled indexes vs uniform random samples for the canonical
  access schema A_t: the K-D construction gives strictly better (or equal)
  per-level resolution, which is the paper's argument for using it.
* chAT greedy template upgrading vs leaving every template at level 0: the
  greedy ascent must never produce a worse bound than the un-optimised plan.
"""

from __future__ import annotations

import random

from repro.access.index import TemplateIndex
from repro.algebra.spc import to_spc
from repro.algebra.tableau import build_tableau
from repro.core.chase import chase
from repro.core.chat import choose_access_templates
from repro.core.fetch_plan import fetch_plan_from_chase
from repro.core.lower_bound import lower_bound
from repro.experiments import format_table
from repro.workloads import QueryGenerator


def test_ablation_kdtree_vs_random_sampling_resolution(benchmark, tfacc_workload):
    """Per-level resolution of K-D representatives vs uniform random samples."""
    relation = tfacc_workload.database.relation("accidents")
    rng = random.Random(3)

    def run():
        index = TemplateIndex(relation, (), relation.schema.attribute_names)
        rows = []
        for level in (2, 4, 6):
            kd_res = max(index.resolution(level).values())
            sample = rng.sample(relation.rows, min(len(relation), 2**level))
            # Resolution of a random sample: worst distance from any tuple to
            # its closest sampled tuple (same guarantee an access template needs).
            worst = 0.0
            for row in relation.rows[:: max(1, len(relation) // 400)]:
                best = min(
                    max(
                        attribute.distance(row[i], srow[i])
                        for i, attribute in enumerate(relation.schema.attributes)
                    )
                    for srow in sample
                )
                worst = max(worst, best)
            rows.append([level, round(kd_res, 4), round(worst, 4)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["level", "KD-tree resolution", "random-sample resolution"],
            rows,
            title="Ablation: KD-tree vs random-sample index resolution (accidents)",
        )
    )
    # The KD-tree should not be (meaningfully) worse at any level.
    assert sum(r[1] for r in rows) <= sum(r[2] for r in rows) * 1.25


def test_ablation_chat_vs_no_upgrades(benchmark, tfacc_workload, tfacc_beas):
    """chAT's greedy upgrading never lowers the bound vs leaving levels at 0."""
    generator = QueryGenerator(tfacc_workload, seed=9)
    queries = [generator._nonempty(lambda: generator.spc(1, 4)) for _ in range(3)]
    budget = tfacc_workload.database.budget_for(0.03)
    schema = tfacc_workload.database.schema

    def run():
        rows = []
        for query in queries:
            ast = query.ast
            tableau = build_tableau(to_spc(ast), schema)
            result = chase(tableau, tfacc_beas.access_schema, budget)
            plan = fetch_plan_from_chase(tableau, result)
            eta_before = lower_bound(ast, plan.resolution_map(), schema)
            eta_after = choose_access_templates(plan, ast, budget, schema)
            rows.append([query.name, round(eta_before, 4), round(eta_after, 4)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["query", "eta (levels=0)", "eta (chAT)"],
            rows,
            title="Ablation: accuracy bound before/after chAT (TFACC, alpha=0.03)",
        )
    )
    for _, before, after in rows:
        assert after >= before - 1e-9
