"""Concurrency harness for the query-serving subsystem (`repro.serving`).

Closed-loop multi-threaded clients drive one shared
:class:`~repro.serving.server.QueryServer` over the tpch / airca / social
workloads: each client thread loops over a fixed pool of generated query
shapes, so the stream has the repeated-query structure a serving cache is
for.  Three cells run per workload —

* ``lru-ttl × queue`` — the default serving configuration,
* ``none × queue`` — caching off, isolating what the cache buys,
* ``lru-ttl × degrade-alpha`` — admission trades α (and the η bound) for
  throughput under load; the served-α histogram records the ladder at work

— each recording QPS, p50/p95/p99 latency, cache hit rates, admission
counters and the served-α distribution.  A separate single-threaded
measurement pins the warm-cache speedup: repeated identical queries through
the server vs the same queries through cold ``Beas.answer``.

Results land in the ``serving`` section of ``BENCH_kernels.json`` — the
other sections are preserved, exactly as ``bench_kernels.py`` preserves
this one.  Run directly (no pytest needed)::

    python benchmarks/bench_serving.py             # full sweep, updates BENCH_kernels.json
    python benchmarks/bench_serving.py --smoke --output serving-smoke.json
    python benchmarks/bench_serving.py --check [report.json]   # schema assert only
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import Beas, configure, current_config  # noqa: E402
from repro.algebra import predicates  # noqa: E402
from repro.experiments import format_table  # noqa: E402
from repro.serving import (  # noqa: E402
    AdmissionController,
    QueryServer,
    ServingStats,
)
from repro.workloads import airca, social, tpch  # noqa: E402
from repro.workloads.querygen import QueryGenerator  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_kernels.json"

ALPHA = 0.5
QUERY_POOL = 6
# (cache backend, admission policy) cells per workload.
CELLS = (("lru-ttl", "queue"), ("none", "queue"), ("lru-ttl", "degrade-alpha"))


def executor_config() -> dict:
    """The pinned executor/worker configuration a record was measured under."""
    return {
        "executor": current_config().shard_executor,
        "workers": current_config().worker_count,
        "cpu_count": os.cpu_count(),
    }


def build_workloads(smoke: bool) -> dict:
    """The three serving datasets at harness (or CI-smoke) scale."""
    if smoke:
        return {
            "tpch": tpch.generate(scale=1, seed=13),
            "airca": airca.generate(flights=1200, airports=30, seed=29),
            "social": social.generate(
                persons=150, pois=600, cities=10, max_friends=5, seed=11
            ),
        }
    return {
        "tpch": tpch.generate(scale=2, seed=13),
        "airca": airca.generate(flights=6000, airports=60, seed=29),
        "social": social.generate(
            persons=400, pois=2000, cities=15, max_friends=6, seed=11
        ),
    }


def query_pool(workload, count: int = QUERY_POOL) -> list:
    """A fixed pool of non-empty SPC/aggregate query ASTs for one workload.

    SPC + aggregate shapes keep per-query work bounded (RA difference
    queries can be orders of magnitude slower, which would swamp the cache
    effects this harness measures); the *pool* being small is the point —
    a serving workload repeats its hot query shapes.
    """
    generator = QueryGenerator(workload, seed=7)
    pool = []
    for index in range(count):
        if index % 3 == 2:
            generated = generator.aggregate(0, 2)
        else:
            generated = generator.spc(index % 2, 3)
        pool.append(generated.ast)
    return pool


def run_cell(
    beas: Beas,
    queries: Sequence[object],
    cache: str,
    policy: str,
    threads: int,
    requests_per_thread: int,
) -> dict:
    """One closed-loop run: ``threads`` clients looping over the query pool."""
    admission = AdmissionController(max_concurrency=max(2, threads // 2), policy=policy)
    beas.clear_plans()  # every cell starts from a cold plan memo
    server = QueryServer(beas, result_cache=cache, admission=admission, stats=ServingStats())
    errors: List[BaseException] = []
    barrier = threading.Barrier(threads)

    def client(offset: int) -> None:
        try:
            barrier.wait()
            for i in range(requests_per_thread):
                query = queries[(offset + i) % len(queries)]
                server.serve(query, alpha=ALPHA)
        except BaseException as exc:  # pragma: no cover - diagnostics
            errors.append(exc)

    workers = [threading.Thread(target=client, args=(i,)) for i in range(threads)]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    wall_seconds = time.perf_counter() - started
    if errors:
        raise errors[0]

    snapshot = server.stats.snapshot()
    total = snapshot["counters"]["requests"]
    return {
        "workload": "",  # filled by the caller
        "cache": cache,
        "policy": policy,
        "threads": threads,
        "requests": total,
        "query_pool": len(queries),
        "alpha": ALPHA,
        "wall_seconds": round(wall_seconds, 6),
        "qps": round(total / max(wall_seconds, 1e-9), 1),
        "latency_seconds": {
            "p50": snapshot["latency_seconds"]["p50"],
            "p95": snapshot["latency_seconds"]["p95"],
            "p99": snapshot["latency_seconds"]["p99"],
        },
        "result_cache_hit_rate": round(snapshot["result_cache_hit_rate"], 4),
        "counters": snapshot["counters"],
        "served_alpha_histogram": snapshot["served_alpha_histogram"],
        "queue_wait_seconds_total": round(snapshot["queue_wait_seconds_total"], 6),
        "cache_info": server.cache_info(),
        "executor_config": executor_config(),
    }


def measure_warm_speedup(beas: Beas, queries: Sequence[object], repeats: int) -> dict:
    """Warm-cache serving vs cold ``Beas.answer`` on identical repeated queries.

    The acceptance bar for the serving layer: a repeated query answered from
    the warm result cache must be at least ~5x faster than paying plan +
    execute every time.  Cold runs call ``Beas.answer`` directly (no server
    in the loop at all, and the plan memo cleared before each call), warm
    runs go through a pre-warmed server.
    """
    server = QueryServer(beas, result_cache="lru-ttl")
    for query in queries:
        server.serve(query, alpha=ALPHA)  # populate

    started = time.perf_counter()
    for _ in range(repeats):
        for query in queries:
            beas.clear_plans()
            beas.answer(query, alpha=ALPHA)
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(repeats):
        for query in queries:
            envelope = server.serve(query, alpha=ALPHA)
            assert envelope.result_cache_hit
    warm_seconds = time.perf_counter() - started

    calls = repeats * len(queries)
    return {
        "workload": "",
        "repeats": calls,
        "alpha": ALPHA,
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "speedup": round(cold_seconds / max(warm_seconds, 1e-9), 2),
        "executor_config": executor_config(),
    }


def run(
    smoke: bool = False,
    threads: Optional[int] = None,
    requests_per_thread: Optional[int] = None,
    output: Optional[Path] = OUTPUT,
) -> dict:
    threads = threads if threads is not None else (4 if smoke else 8)
    requests_per_thread = (
        requests_per_thread if requests_per_thread is not None else (8 if smoke else 40)
    )
    previous = current_config()
    streams: List[dict] = []
    speedups: List[dict] = []
    try:
        for name, workload in build_workloads(smoke).items():
            beas = Beas(
                workload.database,
                constraints=workload.constraints,
                families=workload.families,
            )
            queries = query_pool(workload, QUERY_POOL if not smoke else 4)
            for cache, policy in CELLS:
                record = run_cell(
                    beas, queries, cache, policy, threads, requests_per_thread
                )
                record["workload"] = name
                streams.append(record)
            speedup = measure_warm_speedup(beas, queries, repeats=3 if smoke else 10)
            speedup["workload"] = name
            speedups.append(speedup)
    finally:
        configure(previous)
        predicates.clear_program_cache()

    serving = {
        "benchmark": (
            "closed-loop multi-threaded serving: QPS/latency per "
            "(workload x cache x policy) cell, plus warm-cache speedup"
        ),
        "threads": threads,
        "requests_per_thread": requests_per_thread,
        "smoke": smoke,
        "streams": streams,
        "warm_cache_speedup": speedups,
    }

    destination = "(not written)"
    if output is not None:
        report = {}
        if output.exists():
            try:
                report = json.loads(output.read_text())
            except ValueError:
                report = {}
        if not isinstance(report, dict):
            report = {}
        report["serving"] = serving
        output.write_text(json.dumps(report, indent=2) + "\n")
        destination = output.name

    print(
        format_table(
            ["workload", "cache", "policy", "qps", "p50 ms", "p99 ms", "hit rate"],
            [
                [
                    r["workload"],
                    r["cache"],
                    r["policy"],
                    r["qps"],
                    round(1e3 * r["latency_seconds"]["p50"], 2),
                    round(1e3 * r["latency_seconds"]["p99"], 2),
                    f"{100 * r['result_cache_hit_rate']:.0f}%",
                ]
                for r in streams
            ],
            title=(
                f"Serving streams ({threads} threads x {requests_per_thread} "
                f"requests, alpha={ALPHA}) -> {destination}"
            ),
        )
    )
    print(
        format_table(
            ["workload", "calls", "cold s", "warm s", "speedup"],
            [
                [
                    r["workload"],
                    r["repeats"],
                    r["cold_seconds"],
                    r["warm_seconds"],
                    f"{r['speedup']}x",
                ]
                for r in speedups
            ],
            title=f"Warm result cache vs cold Beas.answer -> {destination}",
        )
    )
    return serving


def check_serving_section(report: dict) -> List[str]:
    """Schema assertions for the ``serving`` section (the CI gate).

    Returns a list of problems (empty = valid).  Checked structurally, not
    against measured values — CI boxes are too noisy to gate on absolute
    QPS, but a record missing its latency percentiles or hit rate means the
    harness (or a hand edit) broke the contract downstream tooling reads.
    """
    problems: List[str] = []
    serving = report.get("serving")
    if not isinstance(serving, dict):
        return ["report has no 'serving' section"]
    streams = serving.get("streams")
    if not isinstance(streams, list) or not streams:
        problems.append("serving.streams missing or empty")
        streams = []
    for index, record in enumerate(streams):
        where = f"serving.streams[{index}]"
        for key in ("workload", "cache", "policy"):
            if not isinstance(record.get(key), str) or not record.get(key):
                problems.append(f"{where}.{key} missing")
        if not (isinstance(record.get("qps"), (int, float)) and record["qps"] > 0):
            problems.append(f"{where}.qps must be > 0")
        latency = record.get("latency_seconds")
        if not isinstance(latency, dict):
            problems.append(f"{where}.latency_seconds missing")
        else:
            for quantile in ("p50", "p95", "p99"):
                value = latency.get(quantile)
                if not (isinstance(value, (int, float)) and value >= 0):
                    problems.append(f"{where}.latency_seconds.{quantile} missing")
        rate = record.get("result_cache_hit_rate")
        if not (isinstance(rate, (int, float)) and 0 <= rate <= 1):
            problems.append(f"{where}.result_cache_hit_rate must be in [0, 1]")
        hist = record.get("served_alpha_histogram")
        if not isinstance(hist, dict) or not hist:
            problems.append(f"{where}.served_alpha_histogram missing or empty")
        if not isinstance(record.get("executor_config"), dict):
            problems.append(f"{where}.executor_config missing")
    speedups = serving.get("warm_cache_speedup")
    if not isinstance(speedups, list) or not speedups:
        problems.append("serving.warm_cache_speedup missing or empty")
    else:
        for index, record in enumerate(speedups):
            where = f"serving.warm_cache_speedup[{index}]"
            speedup = record.get("speedup")
            if not (isinstance(speedup, (int, float)) and speedup > 0):
                problems.append(f"{where}.speedup must be > 0")
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small workloads / few requests (CI)"
    )
    parser.add_argument(
        "--threads", type=int, default=None, help="client threads per cell"
    )
    parser.add_argument(
        "--requests", type=int, default=None, help="requests per client thread"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=OUTPUT,
        help="JSON report to merge the serving section into",
    )
    parser.add_argument(
        "--check",
        nargs="?",
        const=str(OUTPUT),
        default=None,
        metavar="REPORT",
        help="schema-assert the serving section of REPORT and exit",
    )
    args = parser.parse_args()

    if args.check is not None:
        path = Path(args.check)
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"cannot read {path}: {exc}")
            raise SystemExit(2)
        problems = check_serving_section(report)
        if problems:
            for problem in problems:
                print(f"serving schema: {problem}")
            raise SystemExit(1)
        streams = report["serving"]["streams"]
        print(f"serving section OK: {len(streams)} stream record(s) in {path.name}")
        return

    serving = run(
        smoke=args.smoke,
        threads=args.threads,
        requests_per_thread=args.requests,
        output=args.output,
    )
    worst = min(r["speedup"] for r in serving["warm_cache_speedup"])
    print(f"worst warm-cache speedup: {worst}x")


if __name__ == "__main__":
    main()
