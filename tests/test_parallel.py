"""Process-parallel shard execution: publication, workers, settings, and equivalence.

Three layers of coverage for :mod:`repro.relational.parallel`:

* **Unit** — the publish → resolve round trip of every kind of shard, and
  the worker functions called in-process through handles of files written
  under ``tmp_path`` (exactly the code worker processes run, minus the
  process boundary).  (What the settings accept is ``tests/test_config.py``.)
* **End-to-end** — real pool round trips: masks, gathers, kernel batches and
  KD radius queries under ``executor="process"`` must be bit-identical to
  the serial/thread paths, including after a shard mutation retires the
  published files.
* **Property** — a hypothesis invariant that serial, thread and process
  mask evaluation agree on None/NaN/mixed/string columns.

The cross-backend conformance matrix in ``conftest.py`` additionally runs
every ``backend``-fixture test under the process executor, so whole-query
(``Beas.answer``) equivalence is enforced suite-wide, not just here.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import pickle
import random
import shutil
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Beas, ConstraintSpec, QueryServer, configure, current_config
from repro.algebra.predicates import AttrRef, CompareOp, Comparison, Conjunction, Const
from repro.errors import CorruptShardError
from repro.relational import parallel
from repro.relational.distance import NUMERIC, TRIVIAL
from repro.relational.kdtree import KDForest
from repro.relational.kernels import (
    NearestNeighbors,
    RadiusMatcher,
    ShardedNearestNeighbors,
    ShardedRadiusMatcher,
    naive_min_distance,
    naive_radius_matches,
)
from repro.relational.mmapstore import MmapStore, write_anonymous
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.store import ColumnStore, EXECUTOR_MODES, ShardedStore

from conftest import SHARD_EXECUTORS, identity_key, to_backend

PROCESS_OK = "process" in SHARD_EXECUTORS
needs_process = pytest.mark.skipif(
    not PROCESS_OK, reason="process pool unavailable on this platform"
)

SCHEMA = RelationSchema(
    "t", [Attribute("id", TRIVIAL), Attribute("x", NUMERIC), Attribute("y", NUMERIC)]
)
CONDITION = Conjunction.of(
    [
        Comparison(AttrRef(None, "x"), CompareOp.LE, Const(60.0)),
        Comparison(AttrRef(None, "y"), CompareOp.GT, Const(25.0)),
    ]
)


def _raising_masker(part):
    """A picklable masker that fails: its error must reach the caller."""
    raise RuntimeError("application bug in masker")


def make_rows(count: int, seed: int = 11):
    rng = random.Random(seed)
    return [
        (rng.randrange(max(1, count // 50)), rng.uniform(0, 100), rng.uniform(0, 100))
        for _ in range(count)
    ]


def published_files(directory):
    return sorted(name for name in os.listdir(directory) if name.startswith("pub-"))


def force_process():
    configure(shard_executor="process", process_min_rows=1)


# ---------------------------------------------------------------------------
# Publication: every kind of shard reaches a worker bit-identically
# ---------------------------------------------------------------------------

MIXED_COLUMNS = [
    [1.5, 2.5, float("nan"), -0.0],                # float buffer (with NaN)
    [1, -(2**62), 0, 7],                           # int buffer
    [None, "s", 3, 2.0],                           # object column
    ["a", "b", "c", "d"],                          # strings
    [2**63, -(2**64), 0, 1],                       # ints beyond the typed buffer
    [1, 2.0, 3, 4.5],                              # mixed int/float stays mixed
]


def resolve_published(store):
    """Publish ``store`` and resolve every handle the way a worker does."""
    publication = parallel.publication_for(store)
    assert publication is not None
    assert len(publication.handles) == len(store.shards)
    return [parallel._resolve_store(handle) for handle in publication.handles]


class TestPublicationRoundTrip:
    def assert_identical_stores(self, left, right):
        assert len(left) == len(right)
        assert left.width == right.width
        assert [identity_key(r) for r in left.iter_rows()] == [
            identity_key(r) for r in right.iter_rows()
        ]

    @pytest.mark.parametrize("shard_backend", ["column", "row", "sharded", "mmap"])
    def test_shards_resolve_with_values_and_types(self, store_dir, shard_backend):
        # "sharded" shards are the nested layout: each is flattened into
        # one file in its own global row order.
        cls = ShardedStore.configured(2, "range", shard_backend=shard_backend)
        store = cls.from_columns(len(MIXED_COLUMNS), MIXED_COLUMNS)
        for shard, resolved in zip(store.shards, resolve_published(store)):
            assert isinstance(resolved, MmapStore)
            self.assert_identical_stores(shard, resolved)
            if shard_backend == "column":
                assert resolved._kinds == shard._kinds  # typed buffers stay typed

    def test_empty_and_zero_width_stores(self, store_dir):
        cls = ShardedStore.configured(2, "range")
        empty = cls.from_columns(3, [[], [], []])
        for shard, resolved in zip(empty.shards, resolve_published(empty)):
            self.assert_identical_stores(shard, resolved)
            assert resolved.width == 3

        zero_width = cls(0)
        for resolved in resolve_published(zero_width):
            assert resolved.width == 0 and len(resolved) == 0

    def test_mapped_shards_hand_out_their_own_files(self, store_dir):
        cls = ShardedStore.configured(2, "range", shard_backend="mmap")
        store = cls.from_columns(len(MIXED_COLUMNS), MIXED_COLUMNS)
        publication = parallel.publication_for(store)
        assert publication.handles == [shard.file_handle() for shard in store.shards]
        assert publication.written == [] and published_files(store_dir) == []
        publication.retire()  # the files are the stores', not the publication's
        assert all(os.path.exists(path) for _token, path in publication.handles)

    def test_sharded_store_pickles_without_publication(self):
        rows = make_rows(64)
        store = ShardedStore.from_rows(3, rows)
        if PROCESS_OK:
            force_process()
            CONDITION.mask(store, SCHEMA)  # force a publication
        clone = pickle.loads(pickle.dumps(store))
        assert clone._publication is None
        self.assert_identical_stores(store, clone)

    def test_buffer_roundtrip(self):
        from array import array

        typed = array("d", [1.0, 2.0])
        assert parallel._decode_buffer(parallel._encode_buffer(typed)) == typed
        objects = [None, "x", 3]
        assert parallel._decode_buffer(parallel._encode_buffer(objects)) == objects

    def test_files_follow_the_publication(self, store_dir):
        """Mutation, GC of the store, and shutdown() each leave no file behind."""
        store = ShardedStore.from_rows(3, make_rows(64))
        assert parallel.publication_for(store) is not None
        assert len(published_files(store_dir)) == len(store.shards)
        store.append((1, 2.0, 3.0))
        assert published_files(store_dir) == []

        assert parallel.publication_for(store) is not None
        assert len(published_files(store_dir)) == len(store.shards)
        del store
        gc.collect()
        assert published_files(store_dir) == []

        store = ShardedStore.from_rows(3, make_rows(64))
        stale = parallel.publication_for(store)
        parallel.shutdown()
        assert published_files(store_dir) == []
        # A store queried again after shutdown() republishes.
        fresh = parallel.publication_for(store)
        assert fresh is not stale
        assert len(published_files(store_dir)) == len(store.shards)
        self.assert_identical_stores(store.shards[0], parallel._resolve_store(fresh.handles[0]))


# ---------------------------------------------------------------------------
# Worker functions, driven in-process through handles of files in tmp_path
# ---------------------------------------------------------------------------

def file_handle(store, token=None):
    """A worker handle for ``store``: its buffers written under the store dir."""
    written_token, path = write_anonymous(store)
    return (token or written_token, path)


class TestWorkerFunctions:
    def test_eval_mask_matches_direct_evaluation(self, store_dir):
        store = ColumnStore.from_rows(3, make_rows(200))
        program = CONDITION.program(SCHEMA)
        masker = pickle.dumps(program.run_part)
        out = parallel._worker_eval_mask(file_handle(store), masker)
        assert bytearray(out) == program.run_part(store)

    def test_gather_roundtrip(self, store_dir):
        store = ColumnStore.from_rows(3, make_rows(50))
        encoded = parallel._worker_gather(file_handle(store), 1, [4, 4, 0, 49])
        assert list(parallel._decode_buffer(encoded)) == list(
            store.gather_column(1, [4, 4, 0, 49])
        )

    def test_select_gather_worker(self, store_dir):
        store = ColumnStore.from_rows(3, make_rows(200))
        program = CONDITION.program(SCHEMA)
        masker = pickle.dumps(program.run_part)
        handle = file_handle(store)
        mask, payloads = parallel._worker_select_gather(handle, masker, [0, 2], 5)
        expected = program.run_part(store)
        indices = [i for i, bit in enumerate(expected) if bit][:5]
        assert [i for i, bit in enumerate(mask) if bit] == indices
        assert [list(parallel._decode_buffer(p)) for p in payloads] == [
            list(store.gather_column(position, indices)) for position in (0, 2)
        ]
        # Nothing to gather: the payload is short-circuited.
        assert parallel._worker_select_gather(handle, masker, [], None) == (bytes(expected), None)

    def test_radius_and_nn_and_kd_workers(self, store_dir):
        rows = make_rows(120)
        store = ColumnStore.from_rows(3, rows)
        handle = file_handle(store)
        spec = pickle.dumps(([0, 1], [TRIVIAL, NUMERIC], [0.0, 2.0]))
        queries = [rows[i][:2] for i in range(0, 120, 17)]
        batch = pickle.dumps(queries)

        per_query = parallel._worker_radius_matches(handle, spec, batch, True)
        flags = parallel._worker_radius_matches(handle, spec, batch, False)
        for values, matches, flag in zip(queries, per_query, flags):
            expected = naive_radius_matches(values, rows, [0, 1], [TRIVIAL, NUMERIC], [0.0, 2.0])
            assert matches == expected
            assert flag == bool(expected)

        nn_spec = pickle.dumps(list(SCHEMA.attributes))
        nn_batch = pickle.dumps([rows[3], rows[77]])
        distances = [a.distance for a in SCHEMA.attributes]
        assert parallel._worker_nn_min(handle, nn_spec, nn_batch) == [
            naive_min_distance(rows[3], rows, distances),
            naive_min_distance(rows[77], rows, distances),
        ]

        kd_spec = pickle.dumps((SCHEMA, 4))
        kd_batch = pickle.dumps([((rows[5][0], rows[5][1], rows[5][2]), [0.0, 3.0, 5.0])])
        [indices] = parallel._worker_kd_radius(handle, kd_spec, kd_batch)
        expected = naive_radius_matches(rows[5], rows, [0, 1, 2], distances, [0.0, 3.0, 5.0])
        assert sorted(indices) == expected

    def test_store_cache_lru_eviction(self, store_dir, monkeypatch):
        monkeypatch.setattr(parallel, "_STORE_CACHE_LIMIT", 2)
        parallel._STORE_CACHE.clear()
        parallel._INDEX_CACHE.clear()
        stores = [ColumnStore.from_rows(3, make_rows(8, seed=s)) for s in range(3)]
        handles = [file_handle(store, f"lru-{i}") for i, store in enumerate(stores)]
        masker = pickle.dumps(CONDITION.program(SCHEMA).run_part)

        parallel._worker_eval_mask(handles[0], masker)
        spec = pickle.dumps(([0], [TRIVIAL], [0.0]))
        parallel._worker_radius_matches(handles[0], spec, pickle.dumps([(0,)]), True)
        assert ("lru-0", "radius", spec) in parallel._INDEX_CACHE

        parallel._worker_eval_mask(handles[1], masker)
        parallel._worker_eval_mask(handles[2], masker)
        assert "lru-0" not in parallel._STORE_CACHE  # oldest evicted
        assert ("lru-0", "radius", spec) not in parallel._INDEX_CACHE  # deps dropped
        # Cached entries are reused (move_to_end path) and re-resolvable.
        parallel._worker_eval_mask(handles[2], masker)
        parallel._worker_eval_mask(handles[0], masker)
        parallel._STORE_CACHE.clear()
        parallel._INDEX_CACHE.clear()


class TestWorkerInternals:
    """Worker-process plumbing, driven in-process (coverage cannot see the
    real workers, so the exact code they run is exercised here directly)."""

    def test_worker_init_pins_sequential_execution(self, monkeypatch):
        monkeypatch.setattr(parallel, "_IN_PROCESS_WORKER", False)  # undone after the test
        configure(shard_executor="process", checksum_mode="full")
        shipped = current_config()
        parallel._worker_init(shipped)
        assert parallel._IN_PROCESS_WORKER is True
        assert current_config() == dataclasses.replace(
            shipped, shard_workers=1, shard_executor="thread"
        )
        assert parallel._worker_ping() is True
        # A worker never spawns nested pools or publications.
        relation = Relation(SCHEMA, make_rows(50), backend="sharded")
        assert not parallel.process_eligible(relation.store)

    @needs_process
    def test_pools_never_fork_a_threaded_parent(
        self, tiny_db, monkeypatch
    ):
        """A pool created while the shard thread pool and a QueryServer
        request thread are alive asks for forkserver (or spawn), never fork."""
        import multiprocessing

        from repro.relational import store as store_module

        asked = []
        get_context = multiprocessing.get_context

        def recording_get_context(method=None):
            asked.append(method)
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", recording_get_context)
        store_module._pool().submit(int).result()  # the shard thread pool is up
        server = QueryServer(
            Beas(
                to_backend(tiny_db, "sharded"),
                constraints=[ConstraintSpec("emp", ("eid",), ("dept", "salary", "grade"), n=1)],
            )
        )
        force_process()
        parallel.reset_process_pool()  # the request below must create the pools
        hits_before = parallel.affinity_stats()["hits"]
        threads_seen = []

        def request():
            threads_seen.append(threading.active_count())
            server.serve("SELECT e.eid, e.salary FROM emp e WHERE e.dept = 2", alpha=1.0)

        thread = threading.Thread(target=request, name="request-thread")
        thread.start()
        thread.join(60)
        assert not thread.is_alive()
        assert threads_seen[0] > 2  # main + request thread + shard pool threads
        assert parallel._router is not None
        assert parallel.affinity_stats()["hits"] > hits_before  # workers really ran
        assert asked and "fork" not in asked

    def test_unpicklable_specs_return_none(self):
        from repro.relational.distance import DistanceFunction

        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        bad_distance = DistanceFunction("bad", lambda x, y: 0.0)
        assert (
            parallel.radius_matches_many(
                relation.store, [0], [bad_distance], [0.0], [(1,)]
            )
            is None
        )
        bad_attr = Attribute("a", bad_distance)
        assert parallel.nn_min_distance_many(relation.store, [bad_attr], [(1,)]) is None
        bad_schema = RelationSchema("b", [bad_attr])
        assert (
            parallel.kd_within_radius_many(relation.store, bad_schema, 1, [((1,), [0.0])])
            is None
        )
        # Unpicklable query values fall back the same way.
        assert (
            parallel.radius_matches_many(
                relation.store, [0], [TRIVIAL], [0.0], [(lambda: None,)]
            )
            is None
        )
        assert (
            parallel.nn_min_distance_many(
                relation.store, list(SCHEMA.attributes), [(lambda: None,)]
            )
            is None
        )
        assert (
            parallel.kd_within_radius_many(
                relation.store, SCHEMA, 1, [((lambda: None,), [0.0])]
            )
            is None
        )

    def test_unpublishable_payload_falls_back_without_leaking(
        self, store_dir
    ):
        rows = make_rows(3000)
        rows[-1] = (threading.Lock(), 1.0, 2.0)  # unpicklable object-column value
        cls = ShardedStore.configured(4, "range")  # bad value isolated in last shard
        store = cls.from_rows(3, rows)
        force_process()

        assert parallel.publication_for(store) is None
        assert store._publication is parallel._UNPUBLISHABLE
        # The good shards written before the failure must not leak, and
        # repeated queries must not re-attempt (and re-leak) the encode.
        assert os.listdir(store_dir) == []
        condition = Conjunction.of(
            [Comparison(AttrRef(None, "x"), CompareOp.LE, Const(60.0))]
        )
        process_mask = bytes(condition.mask(store, SCHEMA))
        assert os.listdir(store_dir) == []
        configure(shard_executor="serial")
        assert process_mask == bytes(condition.mask(store, SCHEMA))

        # Mutation clears the sentinel like any publication: a store that
        # sheds its unpicklable values becomes publishable again.
        store.append((1, 1.0, 2.0))
        assert store._publication is None

    @needs_process
    def test_ensure_router_is_race_free(self):
        parallel.reset_process_pool()
        routers = []
        barrier = threading.Barrier(2)

        def create():
            barrier.wait()
            routers.append(parallel._ensure_router())

        threads = [threading.Thread(target=create) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert routers[0] is routers[1]  # one shared router, nothing leaked

    @needs_process
    def test_broken_pool_submission_falls_back(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        class FakePool:
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("boom")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        parallel.reset_process_pool()
        failures_before = parallel._pool_failures
        configure(retry_backoff=0.0)
        monkeypatch.setattr(
            parallel._AffinityRouter, "_create_pool", staticmethod(FakePool)
        )
        try:
            program = CONDITION.program(SCHEMA)
            assert parallel.process_eval_mask(relation.store, program.run_part) is None
            assert parallel._pool_failures == failures_before + 1
            assert parallel.probe_process_executor() is False
        finally:
            monkeypatch.undo()
            parallel.reset_process_pool()
            parallel._pool_failures = failures_before
        # The thread fallback keeps the query correct throughout.
        configure(shard_executor="serial")
        reference = bytes(CONDITION.mask(relation.store, SCHEMA))
        configure(shard_executor="process")
        assert bytes(CONDITION.mask(relation.store, SCHEMA)) == reference

    @needs_process
    def test_cancelled_futures_fall_back_without_breaker_strike(
        self, monkeypatch
    ):
        from concurrent.futures import Future

        class CancellingPool:
            def submit(self, *args, **kwargs):
                future = Future()
                future.cancel()
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        configure(shard_executor="serial")
        reference = bytes(CONDITION.mask(relation.store, SCHEMA))
        configure(shard_executor="process")
        parallel.reset_process_pool()
        failures_before = parallel._pool_failures
        monkeypatch.setattr(
            parallel._AffinityRouter, "_create_pool", staticmethod(CancellingPool)
        )
        try:
            # A concurrent reset cancelling the futures degrades to the thread
            # path (correct answer) without counting against the breaker.
            assert bytes(CONDITION.mask(relation.store, SCHEMA)) == reference
            assert parallel._pool_failures == failures_before
        finally:
            monkeypatch.undo()
            parallel.reset_process_pool()

    @needs_process
    def test_success_resets_failure_breaker(self):
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        parallel._pool_failures = parallel._MAX_POOL_FAILURES - 1
        program = CONDITION.program(SCHEMA)
        assert parallel.process_eval_mask(relation.store, program.run_part) is not None
        # One good round clears the strikes: only *consecutive* failures
        # can disable process mode.
        assert parallel._pool_failures == 0

    @needs_process
    def test_reset_pool_with_live_pool(self):
        assert parallel.probe_process_executor() is True  # ensures a live pool
        parallel.reset_process_pool()
        assert parallel._router is None
        assert parallel.probe_process_executor() is True  # respawns cleanly


# ---------------------------------------------------------------------------
# End-to-end: real pool round trips
# ---------------------------------------------------------------------------

@needs_process
class TestProcessExecution:
    def test_masks_bit_identical_across_executors(self):
        relation = Relation(SCHEMA, make_rows(5000), backend="sharded")
        masks = {}
        for mode in EXECUTOR_MODES:
            configure(shard_executor=mode)
            configure(process_min_rows=1)
            masks[mode] = bytes(CONDITION.mask(relation.store, SCHEMA))
        assert masks["serial"] == masks["thread"] == masks["process"]

    def test_gather_identical_across_executors(self):
        relation = Relation(SCHEMA, make_rows(600), backend="sharded")
        indices = [5, 5, 599, 0, 123, 123, 7]  # duplicates, out of order
        configure(shard_executor="serial")
        expected = [list(relation.store.gather_column(p, indices)) for p in range(3)]
        force_process()
        gathered = [list(relation.store.gather_column(p, indices)) for p in range(3)]
        assert gathered == expected

    def test_kernel_batches_identical(self):
        rows = make_rows(800)
        relation = Relation(SCHEMA, rows, backend="sharded")
        queries = [rows[i][:2] for i in range(0, 800, 31)]
        full = [rows[i] for i in range(0, 800, 57)]

        configure(shard_executor="thread")
        matcher = RadiusMatcher.from_store(relation.store, [0, 1], [TRIVIAL, NUMERIC], [0.0, 2.0])
        assert isinstance(matcher, ShardedRadiusMatcher)
        expected_matches = matcher.matches_many(queries)
        expected_any = matcher.any_match_many(queries)
        neighbors = NearestNeighbors.from_store(relation.store, SCHEMA.attributes)
        assert isinstance(neighbors, ShardedNearestNeighbors)
        expected_min = neighbors.min_distance_many(full)

        force_process()
        matcher = RadiusMatcher.from_store(relation.store, [0, 1], [TRIVIAL, NUMERIC], [0.0, 2.0])
        assert matcher.matches_many(queries) == expected_matches
        assert matcher.any_match_many(queries) == expected_any
        assert matcher.matches(queries[0]) == expected_matches[0]  # per-query stays local
        neighbors = NearestNeighbors.from_store(relation.store, SCHEMA.attributes)
        assert neighbors.min_distance_many(full) == expected_min

    def test_subclassed_kernels_stay_on_local_path(self):
        """A RadiusMatcher/NearestNeighbors subclass keeps its overridden
        behavior in batch calls: workers build base-class kernels, so
        subclasses must not ship to the pool."""

        class MutedMatcher(RadiusMatcher):
            def matches(self, values):
                return []  # deliberately different from the base behavior

        rows = make_rows(600)
        relation = Relation(SCHEMA, rows, backend="sharded")
        force_process()
        base = ShardedRadiusMatcher(relation.store, [0, 1], [TRIVIAL, NUMERIC], [0.0, 2.0])
        assert base.matches_many([rows[0][:2]]) != [[]]  # the row matches itself
        muted = ShardedRadiusMatcher(
            relation.store, [0, 1], [TRIVIAL, NUMERIC], [0.0, 2.0],
            matcher_cls=MutedMatcher,
        )
        # The override survived under executor="process" (no pool shipping).
        assert muted.matches_many([rows[0][:2]]) == [[]]

        class TaggedNeighbors(NearestNeighbors):
            def min_distance(self, values):
                return -1.0

        neighbors = ShardedNearestNeighbors(
            relation.store, SCHEMA.attributes, index_cls=TaggedNeighbors
        )
        assert neighbors.min_distance_many([rows[0]]) == [-1.0]

    def test_kd_forest_batch_identical(self):
        rows = make_rows(400)
        relation = Relation(SCHEMA, rows, backend="sharded")
        queries = [(rows[i], [0.0, 4.0, 6.0]) for i in range(0, 400, 41)]
        configure(shard_executor="thread")
        expected = [
            sorted(hits)
            for hits in KDForest(relation, max_leaf_size=4).within_radius_indices_many(queries)
        ]
        force_process()
        forest = KDForest(relation, max_leaf_size=4)
        assert [sorted(hits) for hits in forest.within_radius_indices_many(queries)] == expected
        assert sorted(forest.within_radius_indices(*queries[0])) == expected[0]

    def test_mutation_retires_publication(self):
        relation = Relation(SCHEMA, make_rows(3000), backend="sharded")
        force_process()
        CONDITION.mask(relation.store, SCHEMA)
        publication = relation.store._publication
        assert publication is not None
        before = set(publication.written)
        assert before and all(os.path.exists(path) for path in before)

        relation.append((999, 10.0, 90.0))  # mutation retires the files
        assert relation.store._publication is None
        assert not any(os.path.exists(path) for path in before)

        process_mask = bytes(CONDITION.mask(relation.store, SCHEMA))
        configure(shard_executor="serial")
        assert process_mask == bytes(CONDITION.mask(relation.store, SCHEMA))
        # The fresh publication uses fresh file names: stale worker cache
        # entries can never answer for the mutated store.
        assert not (set(relation.store._publication.written) & before)

    def test_store_with_an_empty_shard_still_dispatches(self):
        cls = ShardedStore.configured(4, "range")
        store = cls.from_rows(3, make_rows(3))
        assert [len(shard) for shard in store.shards] == [1, 1, 1, 0]
        configure(shard_executor="serial")
        reference = bytes(CONDITION.mask(store, SCHEMA))
        force_process()
        fallbacks_before = parallel.dispatch_stats()["fallbacks"]
        parts = parallel.process_eval_mask(store, CONDITION.program(SCHEMA).run_part)
        # The empty shard has a file like any other, and a worker answered for it.
        assert parts is not None and [len(part) for part in parts] == [1, 1, 1, 0]
        assert bytes(CONDITION.mask(store, SCHEMA)) == reference
        assert parallel.dispatch_stats()["fallbacks"] == fallbacks_before

    def test_unpicklable_masker_falls_back(self):
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        seen = bytearray(relation.store.eval_mask(lambda part: bytearray(b"\x01" * len(part))))
        assert seen == bytearray(b"\x01" * len(relation))

    def test_small_store_skips_process(self):
        relation = Relation(SCHEMA, make_rows(40), backend="sharded")
        configure(shard_executor="process")  # default threshold: 40 rows stay local
        mask = CONDITION.mask(relation.store, SCHEMA)
        assert relation.store._publication is None
        configure(shard_executor="serial")
        assert mask == CONDITION.mask(relation.store, SCHEMA)

    def test_unpicklable_distance_falls_back_locally(self):
        from repro.relational.distance import DistanceFunction

        rows = make_rows(900)
        relation = Relation(SCHEMA, rows, backend="sharded")
        custom = DistanceFunction("local", lambda x, y: abs(float(x) - float(y)), numeric=True)
        force_process()
        matcher = RadiusMatcher.from_store(relation.store, [1], [custom], [2.0])
        queries = [rows[i][1:2] for i in range(0, 900, 97)]
        for values, hits in zip(queries, matcher.matches_many(queries)):
            assert hits == naive_radius_matches(values, rows, [1], [custom], [2.0])

    def test_pool_failure_counter_disables_and_resets(self, monkeypatch):
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        reference = bytes(CONDITION.mask(relation.store, SCHEMA))

        # A pool that cannot be created: every process attempt falls back.
        def no_pool():
            raise OSError("cannot start a worker process")

        parallel.reset_process_pool()
        failures_before = parallel._pool_failures
        configure(retry_backoff=0.0)
        monkeypatch.setattr(
            parallel._AffinityRouter, "_create_pool", staticmethod(no_pool)
        )
        try:
            assert parallel.process_eval_mask(relation.store, CONDITION.program(SCHEMA).run_part) is None
            assert bytes(CONDITION.mask(relation.store, SCHEMA)) == reference
        finally:
            monkeypatch.undo()
            parallel._pool_failures = failures_before

        # Repeated infrastructure failures trip the breaker...
        for _ in range(parallel._MAX_POOL_FAILURES):
            parallel._breaker_strike()
        assert not parallel.process_eligible(relation.store)
        assert not parallel.probe_process_executor()
        # ...and the breaker is resettable (new sessions start clean).
        parallel._pool_failures = 0
        assert parallel.process_eligible(relation.store)

    def test_reset_and_probe(self):
        parallel.reset_process_pool()
        assert parallel.probe_process_executor() is True
        force_process()
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        expected = bytes(CONDITION.mask(relation.store, SCHEMA))
        stale_publication = relation.store._publication
        failures_before = parallel._pool_failures
        parallel.shutdown()  # the explicit cleanup hook body
        assert not any(os.path.exists(path) for path in stale_publication.written)
        # After a full shutdown the next query republishes and respawns —
        # including for the store whose publication the shutdown orphaned
        # (its stale file names must not poison workers or trip the
        # failure breaker).
        assert bytes(CONDITION.mask(relation.store, SCHEMA)) == expected
        assert relation.store._publication is not stale_publication
        assert parallel._pool_failures == failures_before
        relation2 = Relation(SCHEMA, make_rows(2000), backend="sharded")
        assert bytes(CONDITION.mask(relation2.store, SCHEMA)) == expected

    def test_application_errors_propagate_from_workers(self):
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        failures_before = parallel._pool_failures
        with pytest.raises(RuntimeError, match="application bug"):
            relation.store.eval_mask(_raising_masker)
        # A computation's own error is not an infrastructure failure: it
        # must not count toward the breaker or silently re-run on threads.
        assert parallel._pool_failures == failures_before


@needs_process
class TestWorkerSettings:
    """A worker imports the package afresh; the parent's ``Config`` must reach it."""

    @staticmethod
    def ask_worker(fn):
        future, _slot = parallel._ensure_router().submit("settings-probe", fn)
        return future.result(timeout=30)

    def test_a_worker_runs_under_its_parents_settings(self):
        configure(checksum_mode="full", process_min_rows=1)
        assert self.ask_worker(current_config) == dataclasses.replace(
            current_config(), shard_workers=1, shard_executor="thread"
        )
        # A setting the workers read: the router is retired, and the workers
        # the next dispatch spawns carry the new value.
        configure(checksum_mode="off")
        assert parallel.affinity_stats()["slots"] == 0
        assert self.ask_worker(current_config).checksum_mode == "off"
        # Parent-side decisions keep the warm worker.
        pid = self.ask_worker(os.getpid)
        configure(shard_executor="process", process_min_rows=7)
        assert self.ask_worker(os.getpid) == pid

    def test_full_checksums_are_verified_inside_the_workers(self, store_dir, tmp_path):
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        configure(shard_executor="serial")
        reference = bytes(CONDITION.mask(relation.store, SCHEMA))
        configure(shard_executor="process", process_min_rows=1, checksum_mode="full")
        victim = parallel.publication_for(relation.store).written[-1]
        with open(victim, "r+b") as handle:  # flip the last payload byte
            handle.seek(-1, os.SEEK_END)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([byte[0] ^ 0xFF]))
        # What a parent-side open of that file does (on a copy: a failed
        # open quarantines the file it was given).
        copy = shutil.copy(victim, tmp_path / "copy.rpro")
        with pytest.raises(CorruptShardError, match="checksum mismatch"):
            MmapStore.open(copy)
        # The worker's open must do the same: the dispatch is fatal, and the
        # thread fallback answers from the parent's own, undamaged buffers.
        fatal_before = parallel.dispatch_stats()["fatal"]
        assert bytes(CONDITION.mask(relation.store, SCHEMA)) == reference
        assert parallel.dispatch_stats()["fatal"] == fatal_before + 1
        assert os.path.exists(victim + ".quarantined")  # caught by the open, not by luck
        parallel._pool_failures = 0  # the strike this cost is not the next test's


def test_no_cell_of_the_matrix_needs_shared_memory(backend, monkeypatch):
    """With ``SharedMemory`` unusable, every backend × executor cell still
    dispatches (no fallback) and agrees with the row-store reference."""
    import multiprocessing.shared_memory as shm_module

    def unavailable(*args, **kwargs):
        raise OSError("no /dev/shm on this host")

    monkeypatch.setattr(shm_module, "SharedMemory", unavailable)
    rows = make_rows(600)
    store = Relation(SCHEMA, rows, backend=backend).store
    reference = Relation(SCHEMA, rows, backend="row").store
    run_part = CONDITION.program(SCHEMA).run_part
    fallbacks_before = parallel.dispatch_stats()["fallbacks"]

    assert bytes(CONDITION.mask(store, SCHEMA)) == bytes(CONDITION.mask(reference, SCHEMA))
    mask, selected = store.select_gather(run_part)
    reference_mask, reference_selected = reference.select_gather(run_part)
    assert bytes(mask) == bytes(reference_mask)
    assert [identity_key(row) for row in selected.iter_rows()] == [
        identity_key(row) for row in reference_selected.iter_rows()
    ]
    indices = [5, 5, 599, 0, 123]
    assert list(store.gather_column(1, indices)) == list(reference.gather_column(1, indices))
    assert parallel.dispatch_stats()["fallbacks"] == fallbacks_before


# ---------------------------------------------------------------------------
# Property: executors agree on awkward columns
# ---------------------------------------------------------------------------

VALUES = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.floats(-5, 5),
    st.just(float("nan")),
    st.sampled_from(["m", "x", "Zz"]),
)
MIXED_SCHEMA = RelationSchema("m", [Attribute("a", NUMERIC), Attribute("b", TRIVIAL)])
MIXED_CONDITION = Conjunction.of(
    [
        Comparison(AttrRef(None, "a"), CompareOp.LE, Const(1.5)),
        Comparison(AttrRef(None, "b"), CompareOp.NE, Const("m")),
    ]
)


@needs_process
@settings(max_examples=25, deadline=None)
@given(rows=st.lists(st.tuples(VALUES, VALUES), min_size=0, max_size=40))
def test_executors_agree_on_mixed_columns(rows):
    """Serial, thread and process mask evaluation are bit-identical on
    None/NaN/mixed/string columns (the satellite hypothesis property)."""
    cls = ShardedStore.configured(3, "round_robin")
    store = cls.from_rows(2, rows)
    configure(process_min_rows=1)
    results = {}
    for mode in EXECUTOR_MODES:
        configure(shard_executor=mode)
        results[mode] = bytes(MIXED_CONDITION.mask(store, MIXED_SCHEMA))
    assert results["serial"] == results["thread"] == results["process"]
