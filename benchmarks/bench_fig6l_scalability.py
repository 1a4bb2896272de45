"""Exp-5 — Fig 6(l): efficiency and scalability of plan generation and execution.

Paper claims reproduced in shape: α-bounded plans are generated in
milliseconds (the paper reports < 200 ms) independent of |D|; executing them
scales with the budget α·|D| rather than with |D|, while full evaluation
(the PostgreSQL/MySQL stand-in) scans the whole dataset.
"""

from __future__ import annotations

from repro.baselines.exact import ExactEvaluation
from repro.experiments import build_beas, format_table
from repro.workloads import QueryGenerator, tpch

ALPHA = 0.03
SCALES = (1, 2, 3)


def _measure():
    rows = []
    for scale in SCALES:
        workload = tpch.generate(scale=scale, seed=13)
        beas = build_beas(workload)
        # Every index up front, so "plan ms" times planning, not the index
        # builds the first plan binding each family would otherwise pay for.
        beas.access_schema.build_all()
        generator = QueryGenerator(workload, seed=37)
        queries = [generator._nonempty(lambda: generator.spc(1, 4)) for _ in range(3)]
        plan_times, exec_times, accesses, exact_scans = [], [], [], []
        exact = ExactEvaluation(workload.database).build(1.0)
        for query in queries:
            result = beas.answer(query.ast, ALPHA)
            plan_times.append(result.plan_seconds)
            exec_times.append(result.execution_seconds)
            accesses.append(result.tuples_accessed)
            _, scanned = exact.answer_metered(query.ast)
            exact_scans.append(scanned)
        rows.append(
            [
                scale,
                workload.database.total_tuples,
                round(1000 * sum(plan_times) / len(plan_times), 2),
                round(1000 * sum(exec_times) / len(exec_times), 2),
                round(sum(accesses) / len(accesses), 1),
                round(sum(exact_scans) / len(exact_scans), 1),
            ]
        )
    return rows


def test_fig6l_plan_generation_and_execution_scalability(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["scale", "|D|", "plan ms", "exec ms", "tuples accessed (BEAS)", "tuples scanned (exact)"],
            rows,
            title="Fig 6(l): plan-generation / execution cost vs |D| (alpha=0.03)",
        )
    )
    for scale, total, plan_ms, exec_ms, accessed, scanned in rows:
        # Plans are generated fast and never read more than the budget,
        # whereas exact evaluation scans the dataset.
        assert plan_ms < 1000
        assert accessed <= ALPHA * total + 1
        assert scanned >= accessed


def test_plan_generation_latency(benchmark, tpch_beas, tpch_queries):
    """Micro-benchmark: α-bounded plan generation latency (paper: < 200 ms)."""
    query = tpch_queries[0].ast

    def plan_once():
        return tpch_beas.plan(query, ALPHA)

    plan = benchmark(plan_once)
    assert plan.tariff <= tpch_beas.database.budget_for(ALPHA)


def test_bounded_execution_latency(benchmark, tpch_beas, tpch_queries):
    """Micro-benchmark: end-to-end bounded answering latency."""
    query = tpch_queries[0].ast
    result = benchmark(lambda: tpch_beas.answer(query, ALPHA))
    assert result.tuples_accessed <= result.budget
