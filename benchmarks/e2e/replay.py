"""Pass replay: run a workload's schedule repeatedly, reduce it to metrics, verify a sample.

The noise protocol, in one place:

* the schedule is fixed before anything is timed and replayed whole, pass
  after pass, after one untimed warm-up pass;
* ``gc.collect()`` runs before every pass;
* a position's latency is its **minimum over passes**: on this kind of
  shared 2-core box a neighbour's burst slows everything by 1.3-1.8x for
  seconds at a time and can cover more than half of the passes, which moves
  a median over passes by 15 % from run to run and the minimum by 3-5 %;
* percentiles are taken **over positions** — a deterministic function of
  already-stable numbers, smoothed over the neighbouring order statistics —
  and the tail metric is **p90**: at 100 positions it has ten positions
  beyond it, p95 would not;
* throughput is positions divided by the **pass time rebuilt from those
  minima** (the sum of the per-position latencies plus the cheapest write
  phase), which a burst inside every pass cannot inflate.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import spans as tracing
from workloads import Bench, Engine, Position

from repro.accuracy.rc import rc_accuracy
from repro.algebra.sql import parse_query
from repro.relational import parallel

MIN_PASSES = 7
MIN_POSITIONS = 100
SETUP_REPETITIONS = 3
VERIFIED_POSITIONS = 32  # verified per run; measuring RC costs 0.1-0.3 s a position, all would outlast the run
TOLERANCE = 1e-9  # an exact agg(SPC) plan shows eta = 1.0 vs RC = 1 - 7e-12 (summation order)
TRACED_PASSES = 2
MAX_UNATTRIBUTED = 0.10


SMOOTHING = 0.05  # half-width of the rank band a percentile averages over


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``, smoothed over neighbouring order statistics.

    Plain interpolation reads a percentile off one or two order statistics;
    where the sorted latencies have a gap (tfacc's p90 sits between the
    alpha = 0.25 and the alpha = 1.0 answers) one position changing rank
    moves the result by 10 %.  This is the triangular-weighted mean of the
    order statistics whose rank lies within ``SMOOTHING`` of ``q`` — about
    ten positions at a hundred — and equals plain linear interpolation when
    the band holds fewer than two of them.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    last = len(ordered) - 1
    rank = q * last
    width = SMOOTHING * last
    low, high = max(0, int(rank - width) + 1), min(last, int(rank + width))
    weights = [(index, 1.0 - abs(index - rank) / width) for index in range(low, high + 1)] if width > 0 else []
    weights = [(index, weight) for index, weight in weights if weight > 0]
    if len(weights) < 2:
        below = int(rank)
        above = min(below + 1, last)
        return ordered[below] + (ordered[above] - ordered[below]) * (rank - below)
    return sum(ordered[index] * weight for index, weight in weights) / sum(weight for _, weight in weights)


@dataclass
class PassRecord:
    wall: float
    write_seconds: float
    latencies: List[Optional[float]]  # None where the position failed
    classes: List[str]  # answer | exact | hit | planhit | miss | failed
    accessed: List[Optional[int]]  # tuples accessed; None for unbounded (exact) and failed positions
    etas: List[Optional[float]]  # the bound returned with the answer; None likewise


@dataclass
class Replay:
    """Everything one run measured, before it is reduced to metrics."""

    bench: Bench
    sizes: Dict[str, object]
    queries: list
    schedule: List[Position]
    passes: List[PassRecord] = field(default_factory=list)
    violations: List[Dict[str, object]] = field(default_factory=list)
    failed: set = field(default_factory=set)  # schedule indices

    def violation(self, index: Optional[int], position: Position, what: str) -> None:
        if index is not None:
            self.failed.add(index)
        self.violations.append(
            {
                "query": self.queries[position.query].name,
                "alpha": position.alpha,
                "kind": position.kind,
                "error": what,
            }
        )


def _answer(engine: Engine, sql: str, alpha: float):
    return "answer", engine.beas.answer(sql, alpha)


def _exact(engine: Engine, sql: str, alpha: float):
    engine.beas.answer_exact(sql)
    return "exact", None


def _serve(engine: Engine, sql: str, alpha: float):
    envelope = engine.server.serve(sql, alpha)
    if envelope.result_cache_hit:
        cls = "hit"
    else:
        cls = "planhit" if envelope.plan_cache_hit else "miss"
    return cls, envelope.result


OPERATIONS = {"answer": _answer, "exact": _exact, "serve": _serve}


def run_pass(replay: Replay, engine: Engine, tracer: Optional[tracing.Tracer] = None) -> PassRecord:
    """Replay the whole schedule once (closed loop, one client)."""
    bench, schedule, queries = replay.bench, replay.schedule, replay.queries
    write_every = bench.writes(replay.sizes)
    count = len(schedule)
    latencies: List[Optional[float]] = [None] * count
    classes = ["failed"] * count
    accessed: List[Optional[int]] = [None] * count
    etas: List[Optional[float]] = [None] * count
    write_seconds = 0.0
    gc.collect()
    bench.begin_pass(engine)
    clock = time.perf_counter
    started = clock()
    for index, position in enumerate(schedule):
        if write_every and index and index % write_every == 0:
            before = clock()
            bench.write(engine)
            write_seconds += clock() - before
        operation = OPERATIONS[position.kind]
        sql = queries[position.query].sql
        if tracer is not None:
            tracer.position = index
            root = tracer.begin("op")
        before = clock()
        try:
            cls, result = operation(engine, sql, position.alpha)
        except Exception as exc:  # the harness must outlive any one operation; typed and reported
            replay.violation(index, position, f"{type(exc).__name__}: {exc}")
            continue
        finally:
            after = clock()
            if tracer is not None:
                tracer.end(root)
        latencies[index] = after - before
        classes[index] = cls
        if result is not None:
            if result.tuples_accessed > result.budget:
                replay.violation(
                    index, position, f"accessed {result.tuples_accessed} tuples over a budget of {result.budget}"
                )
                continue
            accessed[index] = result.tuples_accessed
            etas[index] = result.eta
    return PassRecord(clock() - started, write_seconds, latencies, classes, accessed, etas)


def measure(replay: Replay, engine: Engine, seconds: float, min_passes: int) -> None:
    """Timed passes until both ``seconds`` have elapsed and ``min_passes`` are done."""
    started = time.perf_counter()
    while len(replay.passes) < min_passes or time.perf_counter() - started < seconds:
        replay.passes.append(run_pass(replay, engine))


def position_latencies(replay: Replay) -> Dict[int, float]:
    """Latency (seconds; minimum over passes) of every position that succeeded in every pass."""
    return {
        index: min(record.latencies[index] for record in replay.passes)
        for index in range(len(replay.schedule))
        if index not in replay.failed
    }


# ---------------------------------------------------------------------------
# Verification (after the timed passes, untimed)
# ---------------------------------------------------------------------------

def verified_sample(canonical: List[Position], target: int) -> List[Position]:
    """``target`` bounded positions spread evenly over the canonical list (all of them if fewer)."""
    bounded = [position for position in canonical if position.kind != "exact"]
    if len(bounded) <= target:
        return bounded
    return [bounded[(pick * len(bounded)) // target] for pick in range(target)]


def verify(replay: Replay, engine: Engine, target: int) -> Dict[str, float]:
    """Measure RC against exact answers and audit budget, bound and identity on a sample.

    The sample is taken from the canonical (seed-independent) position list,
    so ``rc_mean`` and ``eta_sound_frac`` are properties of the corpus and
    repeat exactly.
    """
    bench, queries = replay.bench, replay.queries
    database = engine.beas.database
    index_of = {}
    for index, position in enumerate(replay.schedule):
        index_of.setdefault(position, index)
    reference = bench.reference(replay.sizes)
    rcs: List[float] = []
    sound = 0
    for position in verified_sample(bench.canonical(queries, replay.sizes), target):
        index = index_of.get(position)
        sql = queries[position.query].sql
        try:
            if position.kind == "serve":
                envelope = engine.server.serve(sql, position.alpha)
                result = envelope.result
                fresh = engine.beas.answer(sql, envelope.served_alpha)
                if result.rows.rows != fresh.rows.rows:
                    replay.violation(index, position, "served rows differ from a fresh Beas.answer")
            else:
                result = engine.beas.answer(sql, position.alpha)
            exact = engine.beas.answer_exact(sql)
            if reference is not None:
                if result.rows.rows != reference.answer(sql, position.alpha).rows.rows:
                    replay.violation(index, position, "rows differ from the column reference")
                if exact.rows != reference.answer_exact(sql).rows:
                    replay.violation(index, position, "exact rows differ from the column reference")
            if result.tuples_accessed > result.budget:
                replay.violation(index, position, "accessed more tuples than the budget")
            rc = rc_accuracy(parse_query(sql), database, result.rows, exact).accuracy
        except Exception as exc:  # a check that cannot run is a failed check
            replay.violation(index, position, f"verification raised {type(exc).__name__}: {exc}")
            continue
        rcs.append(rc)
        if result.eta <= rc + TOLERANCE:
            sound += 1
        else:
            replay.violation(index, position, f"eta {result.eta!r} exceeds measured RC {rc!r}")
        if result.exact and rc < 1.0 - TOLERANCE:
            replay.violation(index, position, f"exact plan but measured RC {rc!r}")
    if not rcs:
        raise RuntimeError(f"{bench.name}: the verified sample is empty")
    return {
        "rc_mean": statistics.fmean(rcs),
        "eta_sound_frac": sound / len(rcs),
        "verified": len(rcs),
    }


# ---------------------------------------------------------------------------
# Reduction to metrics
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """This process's peak RSS plus its (already reaped) workers', in MB."""
    parallel.shutdown()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(replay: Replay, engine: Engine, setup_seconds: float, verified: Dict[str, float]) -> Dict[str, float]:
    floors = position_latencies(replay)
    if not floors:
        raise RuntimeError(f"{replay.bench.name}: no position succeeded in every pass")
    latencies = list(floors.values())
    pass_seconds = sum(latencies) + min(record.write_seconds for record in replay.passes)
    total = engine.beas.database.total_tuples
    last = replay.passes[-1]
    bounded = [index for index in floors if last.accessed[index] is not None]
    return {
        "setup_s": setup_seconds,
        "throughput_qps": len(latencies) / pass_seconds,
        "latency_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "latency_p90_ms": percentile(latencies, 0.90) * 1000.0,
        "rc_mean": verified["rc_mean"],
        "eta_mean": statistics.fmean(last.etas[index] for index in bounded),
        "eta_sound_frac": verified["eta_sound_frac"],
        "accessed_frac_mean": statistics.fmean(last.accessed[index] / total for index in bounded),
        "peak_rss_mb": peak_rss_mb(),
    }


def _class_p50_ms(floors: Dict[int, float], classes: List[str], wanted: str) -> float:
    values = [latency for index, latency in floors.items() if classes[index] == wanted]
    return percentile(values, 0.5) * 1000.0


def traced_passes(replay: Replay, engine: Engine, seconds: float, tracer: tracing.Tracer) -> List[Dict[str, object]]:
    """At least :data:`TRACED_PASSES` further passes with the wrappers installed."""
    records = []
    tracing.install(tracer)
    try:
        run_pass(replay, engine, tracer)  # the wrappers' own first-call costs stay out of the numbers
        started = time.perf_counter()
        while len(records) < TRACED_PASSES or time.perf_counter() - started < seconds:
            mark = tracer.mark()
            counts = tracer.counts.copy()
            before = _parallel_counters()
            record = run_pass(replay, engine, tracer)
            after = _parallel_counters()
            records.append(
                {
                    "pass": record,
                    "spans": tracer.spans[mark:],
                    "counts": tracer.counts - counts,
                    "parallel": {key: after[key] - before[key] for key in after},
                }
            )
    finally:
        tracer.uninstall()
    return records


def _parallel_counters() -> Dict[str, int]:
    affinity = parallel.affinity_stats()
    dispatch = parallel.dispatch_stats()
    workers = parallel.worker_cache_stats() or []
    return {
        "result_bytes": parallel.select_gather_stats()["result_bytes"],
        "affinity_hits": affinity["hits"],
        "affinity_steals": affinity["steals"],
        "retries": dispatch["retries"],
        "fallbacks": dispatch["fallbacks"],
        "index_builds": sum(worker["index_builds"] for worker in workers),
    }


def per_layer(replay: Replay, engine: Engine, traced: List[Dict[str, object]]) -> Dict[str, float]:
    """Median-per-pass layer metrics from the traced passes (and class medians from the untraced ones)."""

    def median_of(value) -> float:
        return statistics.median(value(record) for record in traced)

    selfs = [tracing.self_times(record["spans"]) for record in traced]

    def self_ms(name: str) -> float:
        return statistics.median(times.get(name, 0.0) for times in selfs) * 1000.0

    def count(name: str) -> float:
        return median_of(lambda record: record["counts"].get(name, 0))

    def par(name: str) -> float:
        return median_of(lambda record: record["parallel"][name])

    def share(names) -> float:
        return median_of(lambda record: tracing.total_times(record["spans"], names) / record["pass"].wall)

    def ratio(numerator: str, denominator: str) -> float:
        return median_of(
            lambda record: record["counts"].get(numerator, 0) / max(1, record["counts"].get(denominator, 0))
        )

    classes = replay.passes[-1].classes

    def class_ratio(wanted: str) -> float:
        served = [cls for cls in classes if cls in ("hit", "planhit", "miss")]
        return served.count(wanted) / len(served) if served else 0.0

    floors = position_latencies(replay)
    timings = engine.timings
    total = engine.beas.database.total_tuples
    untraced_wall = statistics.median(record.wall for record in replay.passes)
    traced_wall = median_of(lambda record: record["pass"].wall)
    attributed = statistics.median(
        sum(seconds for name, seconds in times.items() if name != "op") / record["pass"].wall
        for times, record in zip(selfs, traced)
    )
    kernel_tasks = count("parallel.kernel_tasks")
    return {
        "algebra.parse_ms": self_ms("algebra.parse"),
        "algebra.fingerprint_ms": self_ms("algebra.fingerprint"),
        "algebra.evaluate_ms": self_ms("algebra.evaluate"),
        "core.plan_ms": self_ms("core.plan"),
        "core.plan_share": share(("core.plan",)),
        "core.execute_share": share(("core.fetch", "core.evaluate", "core.refine")),
        "core.tariff_over_budget": count("core.tariff_over_budget"),
        "core.fetch_ms": self_ms("core.fetch"),
        "core.fetch_steps": count("core.fetch_steps"),
        "core.tuples_accessed": count("core.tuples_accessed"),
        "core.accessed_over_tariff": ratio("core.tuples_accessed", "core.tariff"),
        "core.evaluate_ms": self_ms("core.evaluate"),
        "core.refine_ms": self_ms("core.refine"),
        "store.eval_mask_ms": self_ms("store.eval_mask"),
        "store.eval_mask_calls": count("store.eval_mask_calls"),
        "store.select_gather_ms": self_ms("store.select_gather"),
        "store.select_gather_calls": count("store.select_gather_calls"),
        "store.select_gather_selectivity": ratio("store.select_gather_selected", "store.select_gather_rows"),
        "store.gather_ms": self_ms("store.gather"),
        "store.gather_calls": count("store.gather_calls"),
        "kernels.build_ms": self_ms("kernels.build"),
        "kernels.query_ms": self_ms("kernels.query"),
        "kernels.queries": count("kernels.queries"),
        "parallel.dispatch_ms": self_ms("parallel.dispatch"),
        "parallel.dispatch_calls": count("parallel.dispatch_calls"),
        "parallel.result_bytes": par("result_bytes"),
        "parallel.publications": count("parallel.publications"),
        "parallel.affinity_hits": par("affinity_hits"),
        "parallel.affinity_steals": par("affinity_steals"),
        "parallel.retries": par("retries"),
        "parallel.fallbacks": par("fallbacks"),
        "parallel.worker_index_hit_ratio": (
            1.0 - min(1.0, par("index_builds") / kernel_tasks) if kernel_tasks else 0.0
        ),
        "mmapstore.save_ms": timings.get("save_s", 0.0) * 1000.0,
        "mmapstore.open_ms": timings.get("open_s", 0.0) * 1000.0,
        "mmapstore.bytes_per_tuple": timings.get("dataset_bytes", 0.0) / total,
        "access.build_ms": timings["build_s"] * 1000.0,
        "serving.serve_ms": self_ms("serving.serve"),
        "serving.admit_ms": self_ms("serving.admit"),
        "serving.cache_get_ms": self_ms("serving.cache_get"),
        "serving.cache_put_ms": self_ms("serving.cache_put"),
        "serving.result_hit_ratio": class_ratio("hit"),
        "serving.plan_hit_ratio": class_ratio("planhit"),
        "serving.hit_p50_ms": _class_p50_ms(floors, classes, "hit"),
        "serving.planhit_p50_ms": _class_p50_ms(floors, classes, "planhit"),
        "serving.miss_p50_ms": _class_p50_ms(floors, classes, "miss"),
        "serving.rotate_ms": min(record.write_seconds for record in replay.passes) * 1000.0,
        "op.answer_p50_ms": _class_p50_ms(floors, classes, "answer"),
        "op.exact_p50_ms": _class_p50_ms(floors, classes, "exact"),
        "trace.unattributed_frac": 1.0 - attributed,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }


def layer_checks(bench: Bench, layers: Dict[str, float]) -> List[str]:
    """Invariants of the traced run; a broken one makes the run incorrect."""
    problems = []
    if layers["trace.unattributed_frac"] > MAX_UNATTRIBUTED:
        problems.append(f"trace.unattributed_frac {layers['trace.unattributed_frac']:.3f} > {MAX_UNATTRIBUTED}")
    counts = [
        name for name in layers
        if name.startswith("parallel.") and name not in ("parallel.worker_index_hit_ratio", "parallel.dispatch_ms")
    ]
    if bench.name == "tfacc_sharded":
        if layers["parallel.dispatch_calls"] <= 0:
            problems.append("parallel.dispatch_calls is 0: the process executor never ran")
        if layers["parallel.fallbacks"] != 0:
            problems.append(f"parallel.fallbacks is {layers['parallel.fallbacks']}")
    else:
        problems.extend(f"{name} is {layers[name]} outside tfacc_sharded" for name in counts if layers[name] != 0)
    return problems
