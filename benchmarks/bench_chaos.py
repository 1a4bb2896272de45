"""Chaos soak: deterministic fault injection across every backend × executor.

The contract under test is the paper's graceful-degradation promise applied
to *failure* instead of load: a fault may cost latency, never served α,
correctness or availability.  With a seeded fault plan killing process
workers mid-query (``parallel.worker.kill`` at a configurable probability,
plus jittering ``parallel.worker.slow`` sleeps), every storage backend ×
shard-executor combination must keep each query — a fused
``select_gather``, the one operation the process executor ships — either
**bit-identical** (mask bytes and selected rows) to its pre-computed serial
reference or failing with a **typed** :exc:`~repro.errors.ReproError` —
never a wrong answer, never a hang past the dispatch deadline budget.  After
the plan is cleared, the process path must *heal itself*: the soak asserts
the circuit breaker returns to ``closed`` and answers stay bit-identical
without anyone calling ``reset_process_pool()`` — a fresh pool after a
failed one is retired, and the half-open recovery probe, are the only
healing mechanisms allowed.  A process cell over a partitioned store must
also have dispatched tasks to the workers: a soak that never touched a
worker proves nothing.

A second section soaks the serving layer: a :class:`~repro.serving.server.QueryServer`
over the CI-scale tpch workload with the result cache raising on
get/put at the same probability — cache faults must read as misses (counted
in ``ServingStats``), with every served answer bit-identical to a fresh
``Beas.answer``.

Results land in a standalone JSON artifact (the CI ``chaos-soak`` job
uploads it)::

    python benchmarks/bench_chaos.py --smoke --output chaos-soak.json
    python benchmarks/bench_chaos.py --check chaos-soak.json   # schema assert only

Exit status is non-zero if any combo recorded a wrong answer, a hang, or a
failed heal — the artifact then carries the offending records.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import configure, current_config, faults  # noqa: E402
from repro.algebra.predicates import AttrRef, CompareOp, Comparison, Conjunction, Const  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.experiments import build_beas, format_table  # noqa: E402
from repro.relational import parallel  # noqa: E402
from repro.relational.distance import NUMERIC, TRIVIAL  # noqa: E402
from repro.relational.relation import Relation  # noqa: E402
from repro.relational.schema import Attribute, RelationSchema  # noqa: E402
from repro.relational.store import list_backends  # noqa: E402
from repro.serving import QueryServer  # noqa: E402
from repro.workloads import tpch  # noqa: E402
from repro.workloads.querygen import QueryGenerator  # noqa: E402

SCHEMA = RelationSchema(
    "t", [Attribute("id", TRIVIAL), Attribute("x", NUMERIC), Attribute("y", NUMERIC)]
)
CONDITION = Conjunction.of(
    [
        Comparison(AttrRef(None, "x"), CompareOp.LE, Const(60.0)),
        Comparison(AttrRef(None, "y"), CompareOp.GT, Const(25.0)),
    ]
)

KILL_PROBABILITY = 0.1
PLAN_SEED = 1301
HEAL_BUDGET_SECONDS = 60.0


def make_rows(count: int, seed: int = 11):
    rng = random.Random(seed)
    return [
        (rng.randrange(max(1, count // 50)), rng.uniform(0, 100), rng.uniform(0, 100))
        for _ in range(count)
    ]


def identity_key(row):
    """Sortable key distinguishing types and NaN (``1`` != ``1.0`` here)."""
    return tuple(f"{type(v).__name__}:{v!r}" for v in row)


def rows_identical(left, right) -> bool:
    return [identity_key(r) for r in left] == [identity_key(r) for r in right]


def select_answer(store, masker):
    """One fused select+gather: its mask bytes and selected rows."""
    mask, selected = store.select_gather(masker)
    return bytes(mask), [identity_key(row) for row in selected.iter_rows()]


def routed_tasks() -> int:
    """Shard tasks submitted to the worker pool so far."""
    return parallel.dispatch_stats()["tasks"]


def chaos_plan(kill_p: float) -> str:
    """The soak's fault plan: worker kills plus small worker-latency jitter."""
    return (
        f"seed={PLAN_SEED};"
        f"parallel.worker.kill:p={kill_p:g};"
        f"parallel.worker.slow:p={kill_p:g},arg=0.01"
    )


def soak_combo(backend: str, executor: str, rows, queries: int, kill_p: float) -> dict:
    """Soak one backend × executor cell and verify it heals afterwards.

    Phase 1 (reference): the fused select+gather's mask bytes and selected
    rows under the serial executor, no faults.  Phase 2 (soak): the fault
    plan installed, ``queries`` evaluations — each must be bit-identical or
    raise a typed ReproError within the deadline budget.  Phase 3 (heal):
    plan cleared *without* ``reset_process_pool()``; the breaker must return
    to ``closed`` and answers must stay bit-identical within
    :data:`HEAL_BUDGET_SECONDS`.  ``routed_tasks`` counts the tasks
    submitted to the workers over both phases.
    """
    relation = Relation(SCHEMA, rows, backend=backend)
    masker = CONDITION.program(SCHEMA).run_part
    configure(shard_executor="serial")
    reference = select_answer(relation.store, masker)
    configure(shard_executor=executor)
    routed = 0

    def answer():
        nonlocal routed
        before = routed_tasks()
        try:
            return select_answer(relation.store, masker)
        finally:
            routed += routed_tasks() - before

    # A query is a hang if it outlives every legitimate bounded path: one
    # dispatch deadline, plus margin for a pool respawn and the caller
    # actually computing the answer itself.
    hang_budget = parallel.DISPATCH_DEADLINE + 30.0

    identical = typed_errors = wrong = hangs = 0
    latencies = []
    dispatch_before = parallel.dispatch_stats()
    faults.set_fault_plan(chaos_plan(kill_p))
    try:
        for _ in range(queries):
            start = time.perf_counter()
            try:
                got = answer()
            except ReproError:
                typed_errors += 1
            else:
                if got == reference:
                    identical += 1
                else:
                    wrong += 1
            elapsed = time.perf_counter() - start
            latencies.append(elapsed)
            if elapsed > hang_budget:
                hangs += 1
    finally:
        faults.set_fault_plan(None, reset_pools=False)

    # Heal phase: the process path must come back on its own.  Workers
    # spawned while the plan was live may still carry it (a death costs one
    # fallback); the pool that replaces theirs reads the cleared spec.  The
    # breaker cooldown was shrunk by run(), so an opened breaker reaches its
    # half-open probe within the budget.
    heal_started = time.perf_counter()
    heal_queries = 0
    healed = False
    while time.perf_counter() - heal_started < HEAL_BUDGET_SECONDS:
        heal_queries += 1
        if answer() != reference:
            wrong += 1
            break
        if parallel.breaker_state()["state"] == "closed":
            healed = True
            break
        time.sleep(0.05)
    dispatch_after = parallel.dispatch_stats()

    latencies.sort()
    return {
        "backend": backend,
        "executor": executor,
        "shards": len(getattr(relation.store, "shards", ())) or 1,
        "rows": len(rows),
        "queries": queries,
        "kill_probability": kill_p,
        "identical": identical,
        "typed_errors": typed_errors,
        "wrong_answers": wrong,
        "hangs": hangs,
        "p50_seconds": round(latencies[len(latencies) // 2], 6),
        "max_seconds": round(latencies[-1], 6),
        "hang_budget_seconds": round(hang_budget, 3),
        "healed_without_reset": healed,
        "heal_queries": heal_queries,
        "heal_seconds": round(time.perf_counter() - heal_started, 6),
        "routed_tasks": routed,
        "dispatch_delta": {
            key: dispatch_after[key] - dispatch_before[key]
            for key in ("tasks", "timeouts", "fallbacks", "fatal")
        },
        "breaker": parallel.breaker_state(),
        "fault_sites": faults.fault_stats(),  # {} — the plan is cleared
    }


def soak_serving(queries: int, kill_p: float, smoke: bool) -> dict:
    """Serving-cache faults must read as counted misses, never bad answers."""
    workload = tpch.generate(scale=1 if smoke else 2, seed=13)
    beas = build_beas(workload)
    generator = QueryGenerator(workload, seed=7)
    pool = [generator.spc(index % 2, 3).ast for index in range(3)]
    references = [beas.answer(ast, 0.5).rows for ast in pool]

    server = QueryServer(beas)
    identical = wrong = 0
    faults.set_fault_plan(
        f"seed={PLAN_SEED};serving.cache.get:p={kill_p:g};serving.cache.put:p={kill_p:g}",
        reset_pools=False,
    )
    try:
        for index in range(queries):
            ast = pool[index % len(pool)]
            envelope = server.serve(ast, alpha=0.5)
            if rows_identical(envelope.rows, references[index % len(pool)]):
                identical += 1
            else:
                wrong += 1
    finally:
        faults.set_fault_plan(None, reset_pools=False)
    counters = server.stats.snapshot()["counters"]
    return {
        "workload": "tpch",
        "queries": queries,
        "fault_probability": kill_p,
        "identical": identical,
        "wrong_answers": wrong,
        "result_cache_errors": counters.get("result_cache_errors", 0),
    }


def run(rows: int, queries: int, kill_p: float, smoke: bool) -> dict:
    # A single-core host reports one shard worker, which disables the
    # process path entirely (process_eligible needs > 1) — the soak is
    # about resilience, not speedup, so force a small worker pool.
    previous = configure(shard_workers=max(2, current_config().worker_count))
    process_ok = parallel.probe_process_executor()
    executors = ("serial", "process") if process_ok else ("serial",)
    combos = []
    data = make_rows(rows)
    # A small cooldown so a tripped breaker reaches its half-open probe
    # inside the heal budget; restored below.
    configure(breaker_cooldown=0.25, process_min_rows=1)
    try:
        for backend in list_backends():
            for executor in executors:
                combos.append(soak_combo(backend, executor, data, queries, kill_p))
        serving = soak_serving(queries, kill_p, smoke)
    finally:
        configure(previous)
        parallel.reset_process_pool()  # retire soak workers; not part of the heal assert
    return {
        "benchmark": (
            "chaos soak: seeded worker kills / latency jitter / cache faults "
            "across every backend × executor; bit-identity or typed error, "
            "self-healing without reset_process_pool()"
        ),
        "plan": chaos_plan(kill_p),
        "process_executor_available": process_ok,
        "combos": combos,
        "serving": serving,
        "summary": {
            "queries": sum(c["queries"] for c in combos) + serving["queries"],
            "wrong_answers": sum(c["wrong_answers"] for c in combos) + serving["wrong_answers"],
            "typed_errors": sum(c["typed_errors"] for c in combos),
            "hangs": sum(c["hangs"] for c in combos),
            "unhealed_combos": [
                f"{c['backend']}×{c['executor']}" for c in combos if not c["healed_without_reset"]
            ],
        },
    }


def check_report(report: dict) -> list:
    """Structural + contract assertions over a chaos report; returns problems."""
    problems = []
    for key in ("benchmark", "plan", "combos", "serving", "summary"):
        if key not in report:
            problems.append(f"missing section {key!r}")
    if problems:
        return problems
    for record in report["combos"]:
        where = f"{record.get('backend')}×{record.get('executor')}"
        for key in (
            "identical",
            "typed_errors",
            "wrong_answers",
            "hangs",
            "healed_without_reset",
            "p50_seconds",
            "max_seconds",
            "dispatch_delta",
            "breaker",
            "shards",
            "routed_tasks",
        ):
            if key not in record:
                problems.append(f"{where}: missing field {key!r}")
                break
        else:
            if record["wrong_answers"]:
                problems.append(f"{where}: {record['wrong_answers']} wrong answers")
            if record["hangs"]:
                problems.append(f"{where}: {record['hangs']} hangs past the deadline budget")
            if not record["healed_without_reset"]:
                problems.append(f"{where}: did not heal without reset_process_pool()")
            if record["identical"] + record["typed_errors"] != record["queries"]:
                problems.append(f"{where}: answers neither identical nor typed errors")
            partitioned = record["shards"] > 1
            if record["executor"] == "process" and partitioned and not record["routed_tasks"]:
                problems.append(f"{where}: routed no task to a worker (the soak proved nothing)")
    serving = report["serving"]
    if serving.get("wrong_answers"):
        problems.append(f"serving: {serving['wrong_answers']} wrong answers")
    if "result_cache_errors" not in serving:
        problems.append("serving: missing the result-cache error counter")
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small row/query counts (CI run)"
    )
    parser.add_argument("--output", type=Path, default=None, help="JSON artifact path")
    parser.add_argument(
        "--check",
        type=Path,
        metavar="REPORT",
        default=None,
        help="validate an existing report instead of running the soak",
    )
    parser.add_argument(
        "--kill-p", type=float, default=KILL_PROBABILITY, help="per-call fire probability"
    )
    args = parser.parse_args()

    if args.check is not None:
        report = json.loads(args.check.read_text())
        problems = check_report(report)
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}")
            sys.exit(1)
        print(f"chaos report {args.check} OK ({report['summary']['queries']} queries)")
        return

    rows = 2_000 if args.smoke else 5_000
    queries = 8 if args.smoke else 25
    report = run(rows=rows, queries=queries, kill_p=args.kill_p, smoke=args.smoke)
    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(
        format_table(
            ["backend", "executor", "ok", "typed", "wrong", "hangs", "healed", "routed", "max s"],
            [
                [
                    c["backend"],
                    c["executor"],
                    c["identical"],
                    c["typed_errors"],
                    c["wrong_answers"],
                    c["hangs"],
                    "yes" if c["healed_without_reset"] else "NO",
                    c["routed_tasks"],
                    c["max_seconds"],
                ]
                for c in report["combos"]
            ],
            title=f"Chaos soak (plan: {report['plan']})",
        )
    )
    serving = report["serving"]
    print(
        f"serving: {serving['identical']}/{serving['queries']} identical, "
        f"{serving['result_cache_errors']} result-cache faults absorbed as misses"
    )
    problems = check_report(report)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        sys.exit(1)
    summary = report["summary"]
    print(
        f"{summary['queries']} queries, {summary['typed_errors']} typed errors, "
        f"{summary['wrong_answers']} wrong answers, {summary['hangs']} hangs"
    )


if __name__ == "__main__":
    main()
