"""Quickstart: answer a query with bounded resources and inspect the guarantees.

Builds the Example-1 social dataset (person / friend / poi), sets up BEAS with
the paper's access schema (friend-list and home-city constraints plus the
(type, city) POI template family), and answers the "hotels under $95 in my
friends' cities" query at several resource ratios, comparing against the exact
answers.

Also demonstrates the pluggable storage layer (``repro.relational.store``):
every relation can live row-wise (``backend="row"``, the default — one tuple
per row), column-wise (``backend="column"`` — one contiguous buffer per
attribute, ``array('d')``/``array('q')`` for pure float/int columns), or
horizontally partitioned (``backend="sharded"`` — the rows cut into
contiguous ranges, one column store per shard, which the process executor
ships selections to).  The whole pipeline —
selection via *fused chunked* predicate mask programs (selectivity-ordered
short-circuiting), *index-pair* hash joins whose
outputs are materialized by per-column gather (``Store.take`` /
``Store.gather_column``), KD-tree construction, RC accuracy sweeps — reads
through the backend and returns bit-identical answers on every backend;
columnar/sharded storage is simply faster on scan/selection/join-heavy work
(see ``benchmarks/bench_kernels.py``).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Beas, parse_query, rc_accuracy
from repro.relational import Database
from repro.workloads import social


def to_column_backend(database: Database) -> Database:
    """Rebuild every relation of ``database`` on the columnar backend.

    (A process-wide default can be set instead with
    ``repro.configure(default_backend="column")``, and individual
    relations can be built columnar directly via
    ``Relation(schema, rows, backend="column")`` or
    ``Relation.from_columns(schema, {"price": [...], ...})``.)
    """
    return Database.from_relations(
        [
            database.relation(name).with_backend("column")
            for name in database.relation_names
        ]
    )


def main() -> None:
    workload = social.generate(persons=2000, pois=12000, cities=50, seed=7)
    database = to_column_backend(workload.database)
    poi = database.relation("poi")
    print(
        f"dataset: {database.relation_sizes()}  (|D| = {database.total_tuples}, "
        f"storage backend: {poi.backend})"
    )

    # Column-backed relations answer vectorized predicates column-at-a-time:
    # σ_{type='hotel' ∧ price<=95} runs as byte-masks over the type/price
    # buffers instead of one Python call per row.
    from repro.algebra.predicates import AttrRef, CompareOp, Comparison, Conjunction, Const

    cheap_hotels = poi.select(
        Conjunction.of(
            [
                Comparison(AttrRef(None, "type"), CompareOp.EQ, Const("hotel")),
                Comparison(AttrRef(None, "price"), CompareOp.LE, Const(95.0)),
            ]
        )
    )
    print(f"vectorized σ over poi: {len(cheap_hotels)} hotels under $95\n")

    # Offline phase: build the access schema indexes (canonical A_t plus the
    # workload's declared constraints and template families).
    beas = Beas(database, constraints=workload.constraints, families=workload.families)
    print(beas.access_schema.describe())
    print()

    query_sql = social.example_queries()[0]
    print("query:", query_sql)
    exact = beas.answer_exact(query_sql)
    print(f"exact answers: {len(exact)} rows\n")

    for alpha in (0.001, 0.005, 0.02, 0.1):
        result = beas.answer(query_sql, alpha)
        accuracy = rc_accuracy(parse_query(query_sql), database, result.rows, exact)
        print(
            f"alpha={alpha:<6g} budget={result.budget:<6} accessed={result.tuples_accessed:<6} "
            f"rows={len(result.rows):<5} eta>={result.eta:.3f} "
            f"measured RC accuracy={accuracy.accuracy:.3f} exact_plan={result.exact}"
        )

    print()
    print("plan at alpha=0.005:")
    print(beas.explain(query_sql, 0.005))

    # The second query of Example 1 is boundedly evaluable: exact answers from
    # a tiny, |D|-independent amount of data.
    q2 = social.example_queries()[1]
    result = beas.answer(q2, 0.001)
    print()
    print("boundedly evaluable query:", q2)
    print(
        f"  exact={result.exact} boundedly_evaluable={result.boundedly_evaluable} "
        f"accessed={result.tuples_accessed} tuples out of {database.total_tuples}"
    )

    # Row- and column-backed execution are interchangeable: same answers,
    # different memory layout.
    row_db = workload.database  # original row-backed instance
    row_beas = Beas(row_db, constraints=workload.constraints, families=workload.families)
    row_result = row_beas.answer(query_sql, 0.02)
    col_result = beas.answer(query_sql, 0.02)
    assert row_result.rows == col_result.rows
    print()
    print(
        "row- and column-backed BEAS agree: "
        f"{len(row_result.rows)} == {len(col_result.rows)} answer rows"
    )

    # --- Sharded storage -------------------------------------------------
    # backend="sharded" cuts each relation into contiguous row ranges, one
    # column store per shard (4 shards by default).  The shards are for
    # shipping work to worker processes; every read in the caller — this
    # selection included — goes through one cached global-order column
    # view, so a sharded relation answers like a column-backed one.
    from repro import configure
    from repro.relational import ShardedStore, register_backend

    sharded_poi = workload.database.relation("poi").with_backend("sharded")
    sharded_hotels = sharded_poi.select(
        Conjunction.of(
            [
                Comparison(AttrRef(None, "type"), CompareOp.EQ, Const("hotel")),
                Comparison(AttrRef(None, "price"), CompareOp.LE, Const(95.0)),
            ]
        )
    )
    assert sharded_hotels == cheap_hotels
    print()
    print(
        f"sharded σ over poi agrees: {len(sharded_hotels)} hotels across "
        f"{sharded_poi.store.shard_count} shards "
        f"(sizes {[len(s) for s in sharded_poi.store.shards]})"
    )

    # The shard count is configurable; a configured variant can be
    # registered as its own backend name.  There is one layout: shard k
    # holds the k-th of equal contiguous row ranges (the last one takes what
    # is left), and appends go to the last shard.
    register_backend("sharded8", ShardedStore.configured(8, name="sharded8"))
    eight = workload.database.relation("poi").with_backend("sharded8")
    assert eight.distinct() == sharded_poi.distinct()
    print(f"sharded8 shard sizes: {[len(s) for s in eight.store.shards]}")

    # --- Shard executors: serial / process -------------------------------
    # How per-shard work actually runs is a setting, orthogonal to the
    # layout.  Every process-wide setting is a field of the one repro.Config
    # (the table is the repro.config module docstring), changed by
    # configure(), which returns the previous Config so that
    # configure(previous) restores it:
    #
    #   configure(shard_executor="serial")   every shard in the caller (default)
    #   configure(shard_executor="process")  worker processes over mapped files
    #
    # "process" ships one thing to other CPUs: the mask of the fused
    # select+gather the evaluator's filters run over a sharded base
    # relation — in practice exact answers (Beas.answer_exact), because
    # fetch frames are column stores.  The first such query publishes each
    # shard's column buffers as one .rpro file, worker processes mmap it
    # and keep it warm, and every later query ships only the compiled mask
    # program; each worker answers with its shard's mask bytes — never the
    # data.  The
    # caller stitches the masks and selects the survivors from its column
    # view.  Everything else — bare masks, gathers, distance kernels — runs
    # in the caller.  Per-row callables, small stores (below the
    # process_min_rows setting, default 4096 rows — under that, the
    # round-trip costs more than the work) and anything unpicklable run in
    # the caller too, with bit-identical results.  Mutating a store unlinks
    # its published files; the next query republishes.
    #
    # Pool sizing: configure(shard_workers=n) sets the number of worker
    # processes (values < 1 raise; None restores os.cpu_count()).
    # Environment overrides at import time:
    # REPRO_SHARD_WORKERS=4 REPRO_SHARD_EXECUTOR=process python app.py
    #
    # Relation.select reaches Store.eval_mask, never select_gather, so
    # nothing ships here: the process executor answers this σ exactly as
    # the serial one does.
    previous = configure(shard_executor="process")
    process_hotels = sharded_poi.select(
        Conjunction.of(
            [
                Comparison(AttrRef(None, "type"), CompareOp.EQ, Const("hotel")),
                Comparison(AttrRef(None, "price"), CompareOp.LE, Const(95.0)),
            ]
        )
    )
    configure(previous)
    assert process_hotels == cheap_hotels
    print("process-executor σ over poi agrees with the serial path")

    # Per-row *callable* predicates always scan sequentially in global row
    # order (they may be stateful).  What a sharded relation derives is a
    # column store: the shards stay with the base relation.
    assert eight.select(lambda row: row[1] == "hotel").store.backend == "column"

    # --- Columnar execution engine ---------------------------------------
    # Conjunctions do not evaluate one whole column at a time: they compile
    # to a fused chunked MaskProgram that processes the store in blocks
    # (4096 rows by default), fuses every comparison per block, orders the
    # comparisons by their observed selectivity and short-circuits blocks
    # that go all-zero.

    # Joins and products are index-pair joins: the hash/radius kernels emit
    # matched (left_index, right_index) pairs and the output frame is built
    # by per-column *gather* (Store.take / Store.gather_column — indices may
    # repeat or arrive out of order), so columnar plans never materialize
    # intermediate Python row tuples.
    gathered = poi.store.take([2, 0, 2])  # out-of-order + duplicate gather
    assert gathered.row_list() == [poi.rows[2], poi.rows[0], poi.rows[2]]
    print("gather semantics: take([2, 0, 2]) returns rows 2, 0, 2 — in that order")


if __name__ == "__main__":
    main()
