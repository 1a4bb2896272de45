"""Micro-benchmark: distance kernels vs. naive scans, and column vs. row storage.

Part 1 times the three kernel-accelerated hot paths against their quadratic
references at several input scales:

* ``relaxed_join`` — :meth:`repro.relational.kernels.RadiusMatcher.matches`
  (the evaluator's slack join) vs. :func:`naive_radius_matches`,
* ``difference_guard`` — :meth:`~repro.relational.kernels.RadiusMatcher.any_match`
  (the BEAS set-difference guard) vs. a short-circuiting nested loop,
* ``rc_nearest`` — :meth:`repro.relational.kernels.NearestNeighbors.min_distance`
  (RC coverage/relevance) vs. :func:`naive_min_distance`.

Part 2 times the same relational operation on a ``ColumnStore``-backed
relation vs. a ``RowStore``-backed one (see :mod:`repro.relational.store`):

* ``columnar_scan`` — column projection of 2 of 5 attributes,
* ``columnar_selection`` — a selective vectorized conjunction
  (:meth:`repro.algebra.predicates.Conjunction.mask`),
* ``columnar_join`` — the evaluator's equi-join kernel
  (:meth:`repro.algebra.evaluator.Evaluator._hash_join`),
* ``columnar_rc`` — the RC coverage sweep
  (:func:`repro.accuracy.rc.max_coverage_distance`) over key-shaped answers.

Part 3 sweeps the same four operations over the **sharded** backend
(:class:`repro.relational.store.ShardedStore`, range-partitioned per-shard
column stores) at several shard counts, against the row baseline —
``sharded_scan`` / ``sharded_selection`` / ``sharded_join`` / ``sharded_rc``
entries record what the shard count costs the caller, which reads every
sharded store through its flat column view.

Part 4 times the columnar-execution engine added on top of the storage
layer:

* ``fused_selection`` — the chunked fused-mask engine
  (:class:`repro.algebra.predicates.MaskProgram`: block-wise, fused,
  selectivity-ordered) on a column-backed relation vs. the per-row
  :meth:`repro.algebra.predicates.CompareOp.evaluate` reference loop (the
  semantics both must match exactly),
* ``columnar_join_output`` — the index-pair hash join materialized by
  per-column gather (:func:`repro.relational.store.gather_pairs`) vs. a
  faithful reimplementation of the pre-gather tuple-building join
  (``lrow + rrow`` per matched pair) over the same column-backed frames.

Part 5 times the persistent mmap-backed store
(:mod:`repro.relational.mmapstore`): ``mmap_cold_open`` reopens a saved
``.rpro`` file (map + in-place cast, no decode step) and reads every
column, vs. rebuilding the same typed-column store from Python rows —
the per-relation restart cost the RAM-resident backends pay;
``mmap_scan`` / ``mmap_join`` rerun the part-2 warm workloads over the
``mmap`` backend next to the in-RAM ``column`` backend on identical
data, pinning the steady-state cost of reading through a file mapping.

Every record carries an ``executor_config`` block (executor, workers,
cpu_count) so entries stay distinguishable across PRs.

``--backends`` restricts which storage backends parts 2–3 and 5 exercise
(comma-separated, e.g. ``--backends row,sharded``; part 1 is
backend-independent).  Every timed run cross-checks that both sides return
identical results, so the benchmark doubles as a coarse differential test.
The combined series is written to ``BENCH_kernels.json`` at the repository
root so future PRs can track the performance trajectory.  Run it directly
(no pytest needed)::

    python benchmarks/bench_kernels.py [--quick] [--backends row,column,sharded,mmap]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.accuracy.rc import max_coverage_distance  # noqa: E402
from repro.algebra.predicates import AttrRef, CompareOp, Comparison, Conjunction, Const  # noqa: E402
from repro.experiments import format_table  # noqa: E402
from repro.relational.distance import NUMERIC, TRIVIAL  # noqa: E402
from repro.relational.kernels import (  # noqa: E402
    NearestNeighbors,
    RadiusMatcher,
    naive_min_distance,
    naive_radius_matches,
    pair_within,
)
from repro.relational.relation import Relation  # noqa: E402
from repro.relational.schema import Attribute, RelationSchema  # noqa: E402

SCALES = (1_000, 3_000, 10_000)
QUERY_COUNT = 300
OUTPUT = REPO_ROOT / "BENCH_kernels.json"

POSITIONS = [0, 1]
DISTANCES = [TRIVIAL, NUMERIC]
SLACK = [0.0, 2.0]
ATTRIBUTES = [Attribute("id", TRIVIAL), Attribute("x", NUMERIC), Attribute("y", NUMERIC)]


def _join_rows(size: int, rng: random.Random):
    """(id, value) rows: ~100-row id buckets, values spread so bands stay narrow."""
    ids = max(1, size // 100)
    return [(rng.randrange(ids), rng.uniform(0, size / 10)) for _ in range(size)]


def _point_rows(size: int, rng: random.Random):
    ids = max(1, size // 500)
    return [
        (rng.randrange(ids), rng.uniform(0, size / 10), rng.uniform(0, 50))
        for _ in range(size)
    ]


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def _timed_best(fn, repeats: int = 3):
    """Best-of-``repeats`` timing (used for the quick columnar ops, which are
    fast enough for single-shot timings to be dominated by cold-start noise)."""
    best, out = _timed(fn)
    for _ in range(repeats - 1):
        seconds, out = _timed(fn)
        best = min(best, seconds)
    return best, out


def bench_relaxed_join(size: int, queries: int, rng: random.Random):
    rows = _join_rows(size, rng)
    probes = _join_rows(queries, rng)
    naive_seconds, naive_out = _timed(
        lambda: [naive_radius_matches(q, rows, POSITIONS, DISTANCES, SLACK) for q in probes]
    )
    kernel_seconds, kernel_out = _timed(
        lambda: (
            lambda matcher: [matcher.matches(q) for q in probes]
        )(RadiusMatcher(rows, POSITIONS, DISTANCES, SLACK))
    )
    assert kernel_out == naive_out
    return naive_seconds, kernel_seconds


def bench_difference_guard(size: int, queries: int, rng: random.Random):
    rows = _join_rows(size, rng)
    probes = _join_rows(queries, rng)

    def naive_guard():
        return [
            any(pair_within(q, row, POSITIONS, DISTANCES, SLACK) for row in rows)
            for q in probes
        ]

    naive_seconds, naive_out = _timed(naive_guard)
    kernel_seconds, kernel_out = _timed(
        lambda: (
            lambda guard: [guard.any_match(q) for q in probes]
        )(RadiusMatcher(rows, POSITIONS, DISTANCES, SLACK))
    )
    assert kernel_out == naive_out
    return naive_seconds, kernel_seconds


def bench_rc_nearest(size: int, queries: int, rng: random.Random):
    rows = _point_rows(size, rng)
    probes = _point_rows(queries, rng)
    distances = [a.distance for a in ATTRIBUTES]
    naive_seconds, naive_out = _timed(
        lambda: [naive_min_distance(q, rows, distances) for q in probes]
    )
    kernel_seconds, kernel_out = _timed(
        lambda: (
            lambda neighbors: [neighbors.min_distance(q) for q in probes]
        )(NearestNeighbors(rows, ATTRIBUTES))
    )
    assert kernel_out == naive_out
    return naive_seconds, kernel_seconds


KERNELS = {
    "relaxed_join": bench_relaxed_join,
    "difference_guard": bench_difference_guard,
    "rc_nearest": bench_rc_nearest,
}


# ---------------------------------------------------------------------------
# Storage backends through the same APIs (row baseline vs column / sharded)
# ---------------------------------------------------------------------------

WIDE_SCHEMA = RelationSchema(
    "t",
    [
        Attribute("id", TRIVIAL),
        Attribute("a", NUMERIC),
        Attribute("b", NUMERIC),
        Attribute("x", NUMERIC),
        Attribute("y", NUMERIC),
    ],
)

# Shard counts swept by the sharded section; each is registered as its own
# range-partitioned backend (contiguous shards concatenate typed buffers).
SHARD_COUNTS = (1, 2, 4, 8)


def register_sharded_variants() -> None:
    from repro.relational.store import ShardedStore, list_backends, register_backend

    for count in SHARD_COUNTS:
        name = f"sharded{count}"
        if name not in list_backends():
            register_backend(name, ShardedStore.configured(count, name=name))


def _wide_rows(size: int, rng: random.Random):
    return [
        (
            rng.randrange(max(1, size // 100)),
            rng.uniform(0, 100.0),
            rng.uniform(0, 100.0),
            rng.uniform(0, 100.0),
            rng.uniform(0, 100.0),
        )
        for _ in range(size)
    ]


def _wide_relations(size: int, rng: random.Random, backend: str):
    rows = _wide_rows(size, rng)
    return (
        Relation(WIDE_SCHEMA, rows, backend="row"),
        Relation(WIDE_SCHEMA, rows, backend=backend),
    )


def bench_storage_scan(size: int, queries: int, rng: random.Random, backend: str):
    """Column projection (π x,y without dedup) — the scan-shaped workload."""
    row_rel, other_rel = _wide_relations(size, rng, backend)
    row_seconds, row_out = _timed_best(
        lambda: [row_rel.project(["x", "y"], distinct=False) for _ in range(10)]
    )
    other_seconds, other_out = _timed_best(
        lambda: [other_rel.project(["x", "y"], distinct=False) for _ in range(10)]
    )
    assert row_out[0] == other_out[0]
    return row_seconds, other_seconds


def bench_storage_selection(size: int, queries: int, rng: random.Random, backend: str):
    """Selective vectorized three-way conjunction (~4% of rows pass)."""
    row_rel, other_rel = _wide_relations(size, rng, backend)
    condition = Conjunction.of(
        [
            Comparison(AttrRef(None, "x"), CompareOp.LE, Const(30.0)),
            Comparison(AttrRef(None, "y"), CompareOp.GT, Const(60.0)),
            Comparison(AttrRef(None, "a"), CompareOp.LT, Const(35.0)),
        ]
    )
    row_seconds, row_out = _timed_best(lambda: [row_rel.select(condition) for _ in range(10)])
    other_seconds, other_out = _timed_best(
        lambda: [other_rel.select(condition) for _ in range(10)]
    )
    assert row_out[0] == other_out[0]
    assert other_out[0].backend == type(other_rel.store).in_memory_class().backend
    return row_seconds, other_seconds


def bench_storage_join(size: int, queries: int, rng: random.Random, backend: str):
    """The evaluator's hash-join kernel: backend vs row-wise key extraction."""
    from repro.algebra.evaluator import Evaluator, Frame, MappingProvider
    from repro.relational.schema import DatabaseSchema

    keys = max(1, size // 2)
    l_schema = RelationSchema("l", [Attribute("l.k", TRIVIAL), Attribute("l.v", NUMERIC)])
    r_schema = RelationSchema("r", [Attribute("r.k", TRIVIAL), Attribute("r.w", NUMERIC)])
    l_rows = [(rng.randrange(keys), rng.uniform(0, 100.0)) for _ in range(size)]
    r_rows = [(rng.randrange(keys), rng.uniform(0, 100.0)) for _ in range(size // 2)]
    evaluator = Evaluator(DatabaseSchema([]), MappingProvider({}))
    outputs = []
    seconds = []
    for side in ("row", backend):
        left = Frame.from_relation(Relation(l_schema, l_rows, backend=side))
        right = Frame.from_relation(Relation(r_schema, r_rows, backend=side))
        sec, out = _timed_best(lambda: evaluator._hash_join(left, right, ["l.k"], ["r.k"]))
        outputs.append(out)
        seconds.append(sec)
    assert outputs[0].rows == outputs[1].rows
    return seconds[0], seconds[1]


KEY_SCHEMA = RelationSchema(
    "answers",
    [Attribute("pid", TRIVIAL), Attribute("city", TRIVIAL), Attribute("zone", TRIVIAL)],
)


def bench_storage_rc(size: int, queries: int, rng: random.Random, backend: str):
    """RC coverage sweep over a key-shaped answer set (hash-bucket regime).

    Identifier/key outputs (``select p.pid, p.city ...``) are the common
    RC shape; the sweep reduces to canonicalized hash-bucket lookups, where
    a column-backed answer set contributes typed buffers directly and a
    sharded one is indexed shard by shard (``rc_nearest`` above covers the
    numeric sorted-band regime).
    """
    rows = [
        (rng.randrange(size), rng.randrange(200), rng.randrange(50))
        for _ in range(size)
    ]
    row_rel = Relation(KEY_SCHEMA, rows, backend="row")
    other_rel = Relation(KEY_SCHEMA, rows, backend=backend)
    exact = Relation(KEY_SCHEMA, [rows[rng.randrange(size)] for _ in range(queries)])
    row_seconds, row_out = _timed_best(
        lambda: max_coverage_distance(exact, row_rel, KEY_SCHEMA)
    )
    other_seconds, other_out = _timed_best(
        lambda: max_coverage_distance(exact, other_rel, KEY_SCHEMA)
    )
    assert row_out == other_out
    return row_seconds, other_seconds


STORAGE_OPS = {
    "scan": bench_storage_scan,
    "selection": bench_storage_selection,
    "join": bench_storage_join,
    "rc": bench_storage_rc,
}


# ---------------------------------------------------------------------------
# Persistent mmap-backed storage (repro.relational.mmapstore)
# ---------------------------------------------------------------------------

MMAP_WARM_OPS = ("scan", "join")


def bench_mmap_section(scales, queries: int) -> list:
    """Cold-open and warm-read records for the mmap-backed store.

    ``mmap_cold_open`` times what a restart pays per relation: reopening a
    saved ``.rpro`` file (map + cast, no decode step) and reading every
    column through the mapping, vs. rebuilding the same typed-column store
    from Python rows — the ingest path every RAM-resident backend repeats
    on startup.  ``mmap_scan`` / ``mmap_join`` then run the warm storage
    workloads from part 2 over the ``mmap`` backend and record its time
    next to the in-RAM ``column`` backend's on identical data, so the
    steady-state cost of reading through a file mapping (ideally ~1x)
    is pinned alongside the cold-open win.
    """
    import tempfile

    from repro.relational.mmapstore import MmapStore
    from repro.relational.store import ColumnStore

    records = []
    width = len(WIDE_SCHEMA)
    with tempfile.TemporaryDirectory(prefix="bench-mmap-") as tmp:
        for size in scales:
            rng = random.Random(size)
            rows = _wide_rows(size, rng)
            path = Path(tmp) / f"cold_{size}.rpro"
            MmapStore.from_rows(width, rows).save(path)
            indices = list(range(size))

            def rebuild():
                store = ColumnStore.from_rows(width, rows)
                return [store.gather_column(p, indices) for p in range(width)]

            def cold_open():
                store = MmapStore.open(path)
                return [store.gather_column(p, indices) for p in range(width)]

            rebuild_seconds, rebuilt = _timed_best(rebuild)
            open_seconds, opened = _timed_best(cold_open)
            assert rebuilt == opened
            records.append(
                {
                    "kernel": "mmap_cold_open",
                    "size": size,
                    "column_seconds": round(rebuild_seconds, 6),
                    "mmap_seconds": round(open_seconds, 6),
                    "speedup": round(rebuild_seconds / max(open_seconds, 1e-9), 2),
                    "executor_config": executor_config(),
                }
            )
        for size in scales:
            for name in MMAP_WARM_OPS:
                bench = STORAGE_OPS[name]
                rng = random.Random(size)  # same data as the column record
                _, column_seconds = bench(size, queries, rng, "column")
                rng = random.Random(size)
                _, mmap_seconds = bench(size, queries, rng, "mmap")
                records.append(
                    {
                        "kernel": f"mmap_{name}",
                        "size": size,
                        "queries": queries,
                        "column_seconds": round(column_seconds, 6),
                        "mmap_seconds": round(mmap_seconds, 6),
                        "speedup": round(column_seconds / max(mmap_seconds, 1e-9), 2),
                        "executor_config": executor_config(),
                    }
                )
    return records


# ---------------------------------------------------------------------------
# Columnar execution engine (fused masks, gather-built join outputs)
# ---------------------------------------------------------------------------

SELECTION_CONDITION = Conjunction.of(
    [
        Comparison(AttrRef(None, "x"), CompareOp.LE, Const(30.0)),
        Comparison(AttrRef(None, "y"), CompareOp.GT, Const(60.0)),
        Comparison(AttrRef(None, "a"), CompareOp.LT, Const(35.0)),
    ]
)


def bench_fused_selection(size: int, queries: int, rng: random.Random):
    """Chunked fused-mask engine vs the per-row ``CompareOp.evaluate`` loop.

    Both sides implement the same selection semantics — the differential
    tests in ``tests/test_fused_masks.py`` hold them bit-identical — so the
    speedup is exactly what the fused engine buys over row-at-a-time
    predicate evaluation.
    """
    _, column_rel = _wide_relations(size, rng, "column")
    schema = column_rel.schema
    checks = [
        (schema.position(ref.attribute), comparison.op, comparison.constant())
        for comparison in SELECTION_CONDITION
        for ref in [comparison.attributes()[0]]
    ]

    def per_row():
        return [
            column_rel.select(
                lambda row: all(op.evaluate(row[p], c) for p, op, c in checks)
            )
            for _ in range(5)
        ]

    def fused():
        return [column_rel.select(SELECTION_CONDITION) for _ in range(5)]

    per_row_seconds, per_row_out = _timed_best(per_row)
    fused_seconds, fused_out = _timed_best(fused)
    assert per_row_out[0] == fused_out[0]
    return per_row_seconds, fused_seconds


def bench_columnar_join_output(size: int, queries: int, rng: random.Random):
    """Gather-materialized index-pair join vs the PR-3 tuple-building join.

    Both run over the same column-backed frames; the baseline reproduces the
    pre-gather code path exactly (bucket probe emitting ``lrow + rrow``
    Python tuples into a row store).  The workload is the α-bounded shape
    BEAS evaluates: a wide probe side joined against a *small* (budget-
    bounded fetch) build side, so most probe rows find no match — exactly
    where materializing every probe row as a tuple is pure waste.
    """
    from repro.algebra.evaluator import Evaluator, Frame, MappingProvider
    from repro.relational.schema import DatabaseSchema, RelationSchema as RS
    from repro.relational.store import RowStore

    keys = max(1, size // 2)
    build_size = max(1, size // 10)
    l_schema = RS(
        "l",
        [
            Attribute("l.k", TRIVIAL),
            Attribute("l.v", NUMERIC),
            Attribute("l.u", NUMERIC),
            Attribute("l.t", NUMERIC),
        ],
    )
    r_schema = RS("r", [Attribute("r.k", TRIVIAL), Attribute("r.w", NUMERIC)])
    l_rows = [
        (
            rng.randrange(keys),
            rng.uniform(0, 100.0),
            rng.uniform(0, 100.0),
            rng.uniform(0, 100.0),
        )
        for _ in range(size)
    ]
    r_rows = [(rng.randrange(keys), rng.uniform(0, 100.0)) for _ in range(build_size)]
    l_store = Relation(l_schema, l_rows, backend="column").store
    r_store = Relation(r_schema, r_rows, backend="column").store
    evaluator = Evaluator(DatabaseSchema([]), MappingProvider({}))
    out_schema = RS("⋈", l_schema.attributes + r_schema.attributes)
    width = len(l_schema) + len(r_schema)

    # Every BEAS answer evaluates joins over freshly fetched frames, so
    # neither side gets to amortize row-materialization caches across
    # repeats: each timed call starts from cache-free copies of the stores.
    def tuple_join():
        # The pre-gather implementation, verbatim: materialize both row
        # lists, emit one concatenated tuple per matched pair.
        left = Frame(l_schema, store=l_store.copy())
        right = Frame(r_schema, store=r_store.copy())
        rows, weights = [], []
        buckets = {}
        for j, key in enumerate(right.key_tuples([0])):
            buckets.setdefault(key, []).append(j)
        left_rows, right_rows = left.rows, right.rows
        for i, key in enumerate(left.key_tuples([0])):
            for j in buckets.get(key, ()):
                rows.append(left_rows[i] + right_rows[j])
                weights.append(left.weights[i] * right.weights[j])
        return Frame(out_schema, weights=weights, store=RowStore.from_rows(width, rows))

    def gather_join():
        left = Frame(l_schema, store=l_store.copy())
        right = Frame(r_schema, store=r_store.copy())
        return evaluator._hash_join(left, right, ["l.k"], ["r.k"])

    tuple_seconds, tuple_out = _timed_best(tuple_join)
    gather_seconds, gather_out = _timed_best(gather_join)
    assert tuple_out.rows == gather_out.rows
    return tuple_seconds, gather_seconds


COLUMNAR_ENGINE_OPS = {
    "fused_selection": bench_fused_selection,
    "columnar_join_output": bench_columnar_join_output,
}


# ---------------------------------------------------------------------------
# Record metadata and the range-partitioned relation the sharded sections use
# ---------------------------------------------------------------------------

PARALLEL_SHARDS = 4


def executor_config() -> dict:
    """The pinned executor/worker configuration a record was measured under."""
    import os

    from repro import current_config

    return {
        "executor": current_config().shard_executor,
        "workers": current_config().worker_count,
        "cpu_count": os.cpu_count(),
    }


def _parallel_relation(size: int, rng: random.Random):
    from repro.relational.store import ShardedStore

    backend_cls = ShardedStore.configured(PARALLEL_SHARDS)
    rows = [
        (
            rng.randrange(max(1, size // 100)),
            rng.uniform(0, 100.0),
            rng.uniform(0, 100.0),
            rng.uniform(0, 100.0),
            rng.uniform(0, 100.0),
        )
        for _ in range(size)
    ]
    store = backend_cls.from_rows(len(WIDE_SCHEMA), rows)
    return Relation(WIDE_SCHEMA, store=store), rows


DEFAULT_BACKENDS = ("row", "column", "sharded", "mmap")


# ---------------------------------------------------------------------------
# Resilience: checksum-verification overhead, recovery time after a kill
# ---------------------------------------------------------------------------


def bench_resilience_section(size: int, backends: Sequence[str]) -> list:
    """What the PR-10 failure-handling substrate costs when nothing fails.

    ``checksum_cold_open`` times a full cold open + every-column read of a
    saved ``.rpro`` file under each verification mode (``off`` — structural
    parsing only, ``header`` — the default CRC over the pickled header,
    ``full`` — additionally every column payload), so the integrity tax is
    pinned next to the mmap section's cold-open win.  ``recovery_after_kill``
    measures the failure path itself on the process executor: a warm healthy
    fused ``select_gather`` (the one operation that ships), the same query
    with a seeded ``parallel.worker.kill`` plan (mask and selected rows must
    stay bit-identical — the caller answers it and the dead pool is
    retired), and the time for the path to heal — breaker back to
    ``closed`` with no ``reset_process_pool()`` — once the plan is cleared.
    ``routed_tasks`` counts the tasks submitted to workers from the kill on,
    so a run that never reached a worker is visible as 0.
    """
    import tempfile

    from repro import configure, current_config, faults
    from repro.relational import parallel
    from repro.relational.mmapstore import CHECKSUM_MODES, MmapStore

    records = []
    if "mmap" in backends:
        width = len(WIDE_SCHEMA)
        rng = random.Random(size)
        rows = _wide_rows(size, rng)
        with tempfile.TemporaryDirectory(prefix="bench-crc-") as tmp:
            path = Path(tmp) / "crc.rpro"
            MmapStore.from_rows(width, rows).save(path)
            indices = list(range(size))

            def cold_read():
                store = MmapStore.open(path)
                return [store.gather_column(p, indices) for p in range(width)]

            mode_seconds = {}
            reference = None
            previous = current_config()
            try:
                for mode in CHECKSUM_MODES:
                    configure(checksum_mode=mode)
                    seconds, out = _timed_best(cold_read)
                    mode_seconds[mode] = seconds
                    if reference is None:
                        reference = out
                    assert out == reference  # verification must not change reads
            finally:
                configure(previous)
            off = max(mode_seconds["off"], 1e-9)
            records.append(
                {
                    "kernel": "checksum_cold_open",
                    "size": size,
                    "off_seconds": round(mode_seconds["off"], 6),
                    "header_seconds": round(mode_seconds["header"], 6),
                    "full_seconds": round(mode_seconds["full"], 6),
                    "header_overhead": round(mode_seconds["header"] / off, 2),
                    "full_overhead": round(mode_seconds["full"] / off, 2),
                    "executor_config": executor_config(),
                }
            )
    if "sharded" in backends:
        rng = random.Random(size)
        relation, _rows = _parallel_relation(size, rng)
        store, schema = relation.store, relation.schema
        previous = configure(
            shard_executor="process",
            shard_workers=2,
            process_min_rows=1,
            breaker_cooldown=0.25,
        )
        program = SELECTION_CONDITION.program(schema)

        def fused():
            mask, selected = store.select_gather(program.run_part)
            return bytes(mask), selected.row_list()

        try:
            configure(shard_executor="serial")
            reference = fused()
            configure(shard_executor="process")
            assert fused() == reference  # warm-up (publish + spawn)
            healthy_seconds, healthy = _timed_best(fused)
            assert healthy == reference
            before = parallel.dispatch_stats()
            faults.set_fault_plan("seed=1301;parallel.worker.kill:at=1")
            try:
                killed_seconds, killed = _timed(fused)
            finally:
                faults.set_fault_plan(None, reset_pools=False)
            assert killed == reference  # a kill costs latency, never bits
            heal_started = time.perf_counter()
            heal_queries = 0
            while time.perf_counter() - heal_started < 60.0:
                heal_queries += 1
                assert fused() == reference
                if parallel.breaker_state()["state"] == "closed":
                    break
                time.sleep(0.05)
            recovery_seconds = time.perf_counter() - heal_started
            after = parallel.dispatch_stats()
            records.append(
                {
                    "kernel": "recovery_after_kill",
                    "size": size,
                    "shards": PARALLEL_SHARDS,
                    "healthy_seconds": round(healthy_seconds, 6),
                    "killed_query_seconds": round(killed_seconds, 6),
                    "kill_overhead": round(
                        killed_seconds / max(healthy_seconds, 1e-9), 2
                    ),
                    "recovery_seconds": round(recovery_seconds, 6),
                    "heal_queries": heal_queries,
                    "healed_without_reset": after["breaker"]["state"] == "closed",
                    "routed_tasks": after["tasks"] - before["tasks"],
                    "dispatch_delta": {
                        key: after[key] - before[key]
                        for key in ("tasks", "timeouts", "fallbacks", "fatal")
                    },
                    "executor_config": executor_config(),
                }
            )
        finally:
            configure(previous)
            parallel.shutdown()
    return records


def bench_static_analysis(repeats: int = 3) -> dict:
    """Wall-time of the invariant analyzer suite over ``src/repro``.

    The analyzers run in CI on every push (the ``static-analysis`` gate), so
    their cost is part of the repo's feedback-loop budget; this records it
    next to the kernel numbers.  Best-of-``repeats`` like the other sections.
    """
    from repro.tools.static import analyze_paths, list_checkers

    target = REPO_ROOT / "src" / "repro"
    best = float("inf")
    report = None
    for _ in range(repeats):
        started = time.perf_counter()
        report = analyze_paths([target])
        best = min(best, time.perf_counter() - started)
    return {
        "target": "src/repro",
        "rules": list(list_checkers()),
        "files_analyzed": report.files,
        "findings": len(report.findings),
        "suppressed": len(report.suppressed),
        "best_seconds": round(best, 6),
        "files_per_second": round(report.files / max(best, 1e-9), 1),
    }


def run(
    scales=SCALES,
    queries: int = QUERY_COUNT,
    output: Optional[Path] = OUTPUT,
    backends: Sequence[str] = DEFAULT_BACKENDS,
) -> dict:
    register_sharded_variants()
    results = []
    for size in scales:
        for name, bench in KERNELS.items():
            rng = random.Random(size)  # same data for naive and kernel
            naive_seconds, kernel_seconds = bench(size, queries, rng)
            results.append(
                {
                    "kernel": name,
                    "size": size,
                    "queries": queries,
                    "naive_seconds": round(naive_seconds, 6),
                    "kernel_seconds": round(kernel_seconds, 6),
                    "speedup": round(naive_seconds / max(kernel_seconds, 1e-9), 2),
                    "executor_config": executor_config(),
                }
            )
    columnar_results = []
    if "column" in backends:
        for size in scales:
            for name, bench in STORAGE_OPS.items():
                rng = random.Random(size)  # same data for both backends
                row_seconds, column_seconds = bench(size, queries, rng, "column")
                columnar_results.append(
                    {
                        "kernel": f"columnar_{name}",
                        "size": size,
                        "queries": queries,
                        "row_seconds": round(row_seconds, 6),
                        "column_seconds": round(column_seconds, 6),
                        "speedup": round(row_seconds / max(column_seconds, 1e-9), 2),
                        "executor_config": executor_config(),
                    }
                )
    sharded_results = []
    if "sharded" in backends:
        size = max(scales)
        for shard_count in SHARD_COUNTS:
            for name, bench in STORAGE_OPS.items():
                rng = random.Random(size)  # same data at every shard count
                row_seconds, sharded_seconds = bench(
                    size, queries, rng, f"sharded{shard_count}"
                )
                sharded_results.append(
                    {
                        "kernel": f"sharded_{name}",
                        "size": size,
                        "shards": shard_count,
                        "queries": queries,
                        "row_seconds": round(row_seconds, 6),
                        "sharded_seconds": round(sharded_seconds, 6),
                        "speedup": round(row_seconds / max(sharded_seconds, 1e-9), 2),
                        "executor_config": executor_config(),
                    }
                )
    mmap_results = []
    if "mmap" in backends:
        mmap_results = bench_mmap_section(scales, queries)
    engine_results = []
    if "column" in backends:
        for size in scales:
            for name, bench in COLUMNAR_ENGINE_OPS.items():
                rng = random.Random(size)  # same data on both sides
                baseline_seconds, engine_seconds = bench(size, queries, rng)
                engine_results.append(
                    {
                        "kernel": name,
                        "size": size,
                        "baseline_seconds": round(baseline_seconds, 6),
                        "engine_seconds": round(engine_seconds, 6),
                        "speedup": round(baseline_seconds / max(engine_seconds, 1e-9), 2),
                        "executor_config": executor_config(),
                    }
                )
    resilience_results = bench_resilience_section(max(scales), backends)
    static_results = bench_static_analysis()
    report = {
        "benchmark": (
            "distance kernels vs naive nested loops; column/sharded vs row "
            "storage; fused masks / gather joins vs per-row baselines"
        ),
        "query_count": queries,
        "scales": list(scales),
        "backends": list(backends),
        "results": results,
        "columnar": columnar_results,
        "sharded": sharded_results,
        "mmap": mmap_results,
        "columnar_engine": engine_results,
        "resilience": resilience_results,
        "static_analysis": static_results,
    }
    destination = "(not written)"
    if output is not None and not set(DEFAULT_BACKENDS) <= set(backends):
        # A restricted --backends run would clobber the tracked record with
        # empty sections; keep partial runs from touching the file, exactly
        # like --quick runs.
        output = None
        destination = "(not written: partial --backends run)"
    if output is not None:
        if output.exists():
            # The serving section is owned by benchmarks/bench_serving.py;
            # a kernel re-run must not clobber it.
            try:
                previous = json.loads(output.read_text())
            except ValueError:
                previous = {}
            if isinstance(previous, dict) and "serving" in previous:
                report["serving"] = previous["serving"]
        output.write_text(json.dumps(report, indent=2) + "\n")
        destination = output.name
    print(
        format_table(
            ["kernel", "size", "naive s", "kernel s", "speedup"],
            [
                [r["kernel"], r["size"], r["naive_seconds"], r["kernel_seconds"], f"{r['speedup']}x"]
                for r in results
            ],
            title=f"Distance kernels vs naive ({queries} queries per scale) -> {destination}",
        )
    )
    if columnar_results:
        print(
            format_table(
                ["operation", "size", "row s", "column s", "speedup"],
                [
                    [r["kernel"], r["size"], r["row_seconds"], r["column_seconds"], f"{r['speedup']}x"]
                    for r in columnar_results
                ],
                title=f"ColumnStore vs RowStore -> {destination}",
            )
        )
    if sharded_results:
        print(
            format_table(
                ["operation", "shards", "size", "row s", "sharded s", "speedup"],
                [
                    [
                        r["kernel"],
                        r["shards"],
                        r["size"],
                        r["row_seconds"],
                        r["sharded_seconds"],
                        f"{r['speedup']}x",
                    ]
                    for r in sharded_results
                ],
                title=f"ShardedStore vs RowStore -> {destination}",
            )
        )
    if mmap_results:
        print(
            format_table(
                ["operation", "size", "column s", "mmap s", "speedup"],
                [
                    [r["kernel"], r["size"], r["column_seconds"], r["mmap_seconds"], f"{r['speedup']}x"]
                    for r in mmap_results
                ],
                title=(
                    "MmapStore: cold open vs rebuild, warm reads vs ColumnStore "
                    f"-> {destination}"
                ),
            )
        )
    print(
        format_table(
            ["target", "files", "rules", "findings", "suppressed", "best s", "files/s"],
            [
                [
                    static_results["target"],
                    static_results["files_analyzed"],
                    len(static_results["rules"]),
                    static_results["findings"],
                    static_results["suppressed"],
                    static_results["best_seconds"],
                    static_results["files_per_second"],
                ]
            ],
            title=f"Invariant analyzer suite (repro.tools.static) -> {destination}",
        )
    )
    if engine_results:
        print(
            format_table(
                ["operation", "size", "baseline s", "engine s", "speedup"],
                [
                    [
                        r["kernel"],
                        r["size"],
                        r["baseline_seconds"],
                        r["engine_seconds"],
                        f"{r['speedup']}x",
                    ]
                    for r in engine_results
                ],
                title=f"Fused masks / gather joins vs per-row baselines -> {destination}",
            )
        )
    crc_records = [r for r in resilience_results if r["kernel"] == "checksum_cold_open"]
    if crc_records:
        print(
            format_table(
                ["operation", "size", "off s", "header s", "full s", "full overhead"],
                [
                    [
                        r["kernel"],
                        r["size"],
                        r["off_seconds"],
                        r["header_seconds"],
                        r["full_seconds"],
                        f"{r['full_overhead']}x",
                    ]
                    for r in crc_records
                ],
                title=f"Checksum verification overhead (cold open + full read) -> {destination}",
            )
        )
    kill_records = [r for r in resilience_results if r["kernel"] == "recovery_after_kill"]
    if kill_records:
        print(
            format_table(
                ["operation", "size", "healthy s", "killed s", "recovery s", "healed", "routed"],
                [
                    [
                        r["kernel"],
                        r["size"],
                        r["healthy_seconds"],
                        r["killed_query_seconds"],
                        r["recovery_seconds"],
                        "yes" if r["healed_without_reset"] else "NO",
                        r["routed_tasks"],
                    ]
                    for r in kill_records
                ],
                title=f"Recovery after an injected worker kill -> {destination}",
            )
        )
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small scales only (CI smoke run)"
    )
    parser.add_argument(
        "--backends",
        default=",".join(DEFAULT_BACKENDS),
        help=(
            "comma-separated storage backends to exercise in the storage "
            "sections (subset of row,column,sharded,mmap; the row baseline "
            "always runs)"
        ),
    )
    args = parser.parse_args()
    backends = tuple(name.strip() for name in args.backends.split(",") if name.strip())
    unknown = set(backends) - set(DEFAULT_BACKENDS)
    if unknown:
        parser.error(f"unknown backends: {sorted(unknown)}")
    scales = (200, 1_000) if args.quick else SCALES
    queries = 50 if args.quick else QUERY_COUNT
    # A quick smoke run must not clobber the tracked full-scale record.
    report = run(
        scales=scales,
        queries=queries,
        output=None if args.quick else OUTPUT,
        backends=backends,
    )
    worst = min(
        r["speedup"] for r in report["results"] if r["size"] == max(report["scales"])
    )
    print(f"worst speedup at {max(report['scales'])} rows: {worst}x")


if __name__ == "__main__":
    main()
