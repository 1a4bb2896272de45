"""Process-parallel shard execution: publication, workers, settings, and equivalence.

Three layers of coverage for :mod:`repro.relational.parallel`:

* **Unit** — the publish → resolve round trip of every kind of shard, and
  the worker function called in-process through handles of files written
  under ``tmp_path`` (exactly the code worker processes run, minus the
  process boundary).  (What the settings accept is ``tests/test_config.py``.)
* **End-to-end** — real pool round trips: the fused select+gather — the one
  operation that ships — under ``executor="process"`` must be bit-identical
  to the serial path, including after a shard mutation retires the
  published files; masks, gathers and kernel batches on a sharded store stay
  in the caller under the process executor and answer identically too, and
  nothing but the fused operator is ever submitted to a worker.
* **Property** — a hypothesis invariant that serial and process
  select+gather agree on None/NaN/mixed/string columns.

The cross-backend conformance matrix in ``conftest.py`` additionally runs
every ``backend``-fixture test under the process executor, so whole-query
(``Beas.answer``) equivalence is enforced suite-wide, not just here.
"""

from __future__ import annotations

import gc
import os
import pickle
import random
import shutil
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Beas, ConstraintSpec, configure, current_config, faults
from repro.algebra.predicates import AttrRef, CompareOp, Comparison, Conjunction, Const
from repro.errors import CorruptShardError
from repro.experiments import build_beas
from repro.relational import parallel
from repro.relational.distance import NUMERIC, TRIVIAL
from repro.relational.kernels import (
    NearestNeighbors,
    RadiusMatcher,
    naive_min_distance,
    naive_radius_matches,
)
from repro.relational.mmapstore import MmapStore, write_anonymous
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.store import ColumnStore, EXECUTOR_MODES, ShardedStore, backend_class
from repro.workloads import tfacc
from repro.workloads.querygen import QueryGenerator

from conftest import SHARD_EXECUTORS, identity_key, to_backend, union_compatible

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


def _every_other_row(part):
    """A picklable masker keeping rows 0, 2, 4, ... (a strict subset)."""
    return bytearray((index + 1) % 2 for index in range(len(part)))


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


def select_answer(store, masker=None):
    """``store.select_gather`` under the current executor: mask bytes, selected rows."""
    mask, selected = store.select_gather(masker or CONDITION.program(SCHEMA).run_part)
    return bytes(mask), [identity_key(row) for row in selected.iter_rows()]


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
        cls = ShardedStore.configured(2, shard_backend=shard_backend)
        store = cls.from_columns(len(MIXED_COLUMNS), MIXED_COLUMNS)
        for shard, resolved in zip(store.shards, resolve_published(store)):
            assert isinstance(resolved, MmapStore)
            self.assert_identical_stores(shard, resolved)
            if shard_backend == "column":
                assert resolved._kinds == shard._kinds  # typed buffers stay typed

    def test_empty_and_zero_width_stores(self, store_dir):
        cls = ShardedStore.configured(2)
        empty = cls.from_columns(3, [[], [], []])
        for shard, resolved in zip(empty.shards, resolve_published(empty)):
            self.assert_identical_stores(shard, resolved)
            assert resolved.width == 3

        zero_width = cls(0)
        for resolved in resolve_published(zero_width):
            assert resolved.width == 0 and len(resolved) == 0

    def test_mapped_shards_hand_out_their_own_files(self, store_dir):
        cls = ShardedStore.configured(2, shard_backend="mmap")
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
            select_answer(store)  # force a publication
        clone = pickle.loads(pickle.dumps(store))
        assert clone._publication is None
        self.assert_identical_stores(store, clone)

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
        """The mask a worker evaluates over the mapped shard file is the mask
        the parent evaluates over its own buffers — and all it sends back."""
        store = ColumnStore.from_rows(3, make_rows(200))
        program = CONDITION.program(SCHEMA)
        mask = parallel._worker_select_gather(file_handle(store), pickle.dumps(program.run_part))
        assert isinstance(mask, bytes)
        assert bytearray(mask) == store.eval_mask(program.run_part)

    def test_mixed_columns_mask_in_the_worker(self, store_dir):
        """Every buffer kind a worker maps masks like the parent's own copy."""
        store = ColumnStore.from_columns(len(MIXED_COLUMNS), MIXED_COLUMNS)
        mask = parallel._worker_select_gather(file_handle(store), pickle.dumps(_every_other_row))
        assert bytearray(mask) == _every_other_row(store)

    def test_store_cache_lru_eviction(self, store_dir, monkeypatch):
        monkeypatch.setattr(parallel, "_STORE_CACHE_LIMIT", 2)
        parallel._STORE_CACHE.clear()
        stores = [ColumnStore.from_rows(3, make_rows(8, seed=s)) for s in range(3)]
        handles = [file_handle(store, f"lru-{i}") for i, store in enumerate(stores)]
        masker = pickle.dumps(CONDITION.program(SCHEMA).run_part)

        for handle in handles:
            parallel._worker_select_gather(handle, masker)
        assert "lru-0" not in parallel._STORE_CACHE  # oldest evicted
        # Cached entries are reused (move_to_end path) and re-resolvable.
        parallel._worker_select_gather(handles[2], masker)
        parallel._worker_select_gather(handles[0], masker)
        assert list(parallel._STORE_CACHE) == ["lru-2", "lru-0"]
        parallel._STORE_CACHE.clear()


class TestWorkerInternals:
    """Worker-process plumbing, driven in-process (coverage cannot see the
    real workers, so the exact code they run is exercised here directly)."""

    def test_worker_init_installs_the_parents_settings(self, monkeypatch):
        monkeypatch.setattr(parallel, "_IN_PROCESS_WORKER", False)  # undone after the test
        configure(shard_executor="process", checksum_mode="full", process_min_rows=1)
        shipped = current_config()
        parallel._worker_init(shipped)
        assert parallel._IN_PROCESS_WORKER is True
        assert current_config() == shipped
        assert parallel._worker_ping() is True
        # The worker flag alone keeps a worker from spawning nested pools or
        # publications, whatever its shard_executor says.
        relation = Relation(SCHEMA, make_rows(50), backend="sharded")
        assert not parallel.process_eligible(relation.store)

    @needs_process
    def test_pools_never_fork_a_threaded_parent(
        self, tiny_db, monkeypatch
    ):
        """A pool created while another live thread and a request thread are
        alive asks for forkserver (or spawn), never fork.  The request is an
        exact answer: its scan of the sharded base relation is what ships."""
        import multiprocessing

        asked = []
        get_context = multiprocessing.get_context

        def recording_get_context(method=None):
            asked.append(method)
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", recording_get_context)
        release = threading.Event()
        bystander = threading.Thread(target=release.wait, name="bystander-thread", daemon=True)
        bystander.start()  # the parent is threaded before any pool exists
        beas = Beas(
            to_backend(tiny_db, "sharded"),
            constraints=[ConstraintSpec("emp", ("eid",), ("dept", "salary", "grade"), n=1)],
        )
        force_process()
        parallel.reset_process_pool()  # the request below must create the pools
        tasks_before = parallel.dispatch_stats()["tasks"]
        threads_seen = []

        def request():
            threads_seen.append(threading.active_count())
            beas.answer_exact("SELECT e.eid, e.salary FROM emp e WHERE e.dept = 2")

        thread = threading.Thread(target=request, name="request-thread")
        thread.start()
        thread.join(60)
        release.set()
        bystander.join(60)
        assert not thread.is_alive() and not bystander.is_alive()
        assert threads_seen[0] > 2  # main + request thread + the bystander
        assert parallel._pool is not None
        assert parallel.dispatch_stats()["tasks"] > tasks_before  # workers really ran
        assert asked and "fork" not in asked

    def test_unpublishable_payload_falls_back_without_leaking(
        self, store_dir
    ):
        rows = make_rows(3000)
        rows[-1] = (threading.Lock(), 1.0, 2.0)  # unpicklable object-column value
        cls = ShardedStore.configured(4)  # bad value isolated in last shard
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
        masker = condition.program(SCHEMA).run_part
        process_answer = select_answer(store, masker)
        assert os.listdir(store_dir) == []
        configure(shard_executor="serial")
        assert process_answer == select_answer(store, masker)

        # Mutation clears the sentinel like any publication: a store that
        # sheds its unpicklable values becomes publishable again.
        store.append((1, 1.0, 2.0))
        assert store._publication is None

    @needs_process
    def test_ensure_pool_is_race_free(self):
        parallel.reset_process_pool()
        pools = []
        barrier = threading.Barrier(2)

        def create():
            barrier.wait()
            pools.append(parallel._ensure_pool())

        threads = [threading.Thread(target=create) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert pools[0] is pools[1]  # one shared pool, nothing leaked

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
        monkeypatch.setattr(parallel, "_ensure_pool", FakePool)
        try:
            program = CONDITION.program(SCHEMA)
            assert parallel.process_select_gather(relation.store, program.run_part) is None
            assert parallel._pool_failures == failures_before + 1
            assert parallel.probe_process_executor() is False
        finally:
            monkeypatch.undo()
            parallel.reset_process_pool()
            parallel._pool_failures = failures_before
        # The in-caller fallback keeps the query correct throughout.
        configure(shard_executor="serial")
        reference = select_answer(relation.store)
        configure(shard_executor="process")
        assert select_answer(relation.store) == reference

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
        reference = select_answer(relation.store)
        configure(shard_executor="process")
        parallel.reset_process_pool()
        failures_before = parallel._pool_failures
        monkeypatch.setattr(parallel, "_ensure_pool", CancellingPool)
        try:
            # A concurrent reset cancelling the futures degrades to the caller's
            # path (correct answer) without counting against the breaker.
            assert select_answer(relation.store) == reference
            assert parallel._pool_failures == failures_before
        finally:
            monkeypatch.undo()
            parallel.reset_process_pool()

    @needs_process
    def test_unpicklable_specs_return_none(self):
        """Work that cannot cross the boundary answers ``None`` (run it in the
        parent): the fused select+gather with a masker that does not pickle,
        and each name pinned for the benchmark, whatever it is handed."""
        from repro.relational.distance import DistanceFunction

        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        assert parallel.process_eligible(relation.store)
        calls_before = parallel.select_gather_stats()["calls"]
        assert parallel.process_select_gather(relation.store, lambda part: part) is None
        assert parallel.select_gather_stats()["calls"] == calls_before
        assert relation.store._publication is None  # nothing was dispatched

        bad_distance = DistanceFunction("bad", lambda x, y: 0.0)
        bad_attr = Attribute("a", bad_distance)
        pinned = (
            parallel.process_eval_mask(relation.store, CONDITION.program(SCHEMA).run_part),
            parallel.process_gather(relation.store, 0, [0, 1]),
            parallel.radius_matches_many(relation.store, [0], [bad_distance], [0.0], [(1,)]),
            parallel.nn_min_distance_many(relation.store, [bad_attr], [(1,)]),
            parallel.kd_within_radius_many(
                relation.store, RelationSchema("b", [bad_attr]), 1, [((1,), [0.0])]
            ),
        )
        assert pinned == (None,) * 5
        assert relation.store._publication is None

    @needs_process
    def test_success_resets_failure_breaker(self):
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        parallel._pool_failures = parallel._MAX_POOL_FAILURES - 1
        program = CONDITION.program(SCHEMA)
        assert parallel.process_select_gather(relation.store, program.run_part) is not None
        # One good round clears the strikes: only *consecutive* failures
        # can disable process mode.
        assert parallel._pool_failures == 0

    @needs_process
    def test_one_select_reaches_the_pool_once(self, monkeypatch):
        """A fused select whose dispatch gives up answers in the caller: the
        same work is not sent to the pool a second time as a bare mask."""
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        configure(shard_executor="serial")
        reference = select_answer(relation.store)
        configure(shard_executor="process", process_min_rows=1)
        monkeypatch.setattr(parallel, "DISPATCH_DEADLINE", 0.5)
        dispatches = []
        dispatch = parallel._dispatch

        def counting_dispatch(publication, masker_payload):
            dispatches.append(len(publication.handles))
            return dispatch(publication, masker_payload)

        monkeypatch.setattr(parallel, "_dispatch", counting_dispatch)
        failures_before = parallel._pool_failures
        fallbacks_before = parallel.dispatch_stats()["fallbacks"]
        previous_plan = faults.set_fault_plan("parallel.worker.slow:p=1,arg=3.0")
        try:
            assert select_answer(relation.store) == reference
        finally:
            faults.set_fault_plan(previous_plan, reset_pools=False)
            parallel.reset_process_pool()
            parallel._pool_failures = failures_before
        assert dispatches == [len(relation.store.shards)]
        assert parallel.dispatch_stats()["fallbacks"] == fallbacks_before + 1

    @needs_process
    def test_reset_pool_with_live_pool(self):
        assert parallel.probe_process_executor() is True  # ensures a live pool
        parallel.reset_process_pool()
        assert parallel._pool is None
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
        assert masks["serial"] == masks["process"]

    def test_gather_identical_across_executors(self):
        relation = Relation(SCHEMA, make_rows(600), backend="sharded")
        indices = [5, 5, 599, 0, 123, 123, 7]  # duplicates, out of order
        configure(shard_executor="serial")
        expected = [list(relation.store.gather_column(p, indices)) for p in range(3)]
        force_process()
        gathered = [list(relation.store.gather_column(p, indices)) for p in range(3)]
        assert gathered == expected

    def test_kernel_batches_identical(self):
        """A sharded store's kernels answer exactly like a column store's and
        the nested loops, under the serial and the process executor."""
        rows = make_rows(800)
        sharded = Relation(SCHEMA, rows, backend="sharded").store
        column = Relation(SCHEMA, rows, backend="column").store
        queries = [rows[i][:2] for i in range(0, 800, 31)]
        full = [rows[i] for i in range(0, 800, 57)]
        key = ([0, 1], [TRIVIAL, NUMERIC], [0.0, 2.0])
        expected = [naive_radius_matches(values, rows, *key) for values in queries]
        distances = [a.distance for a in SCHEMA.attributes]
        expected_min = [naive_min_distance(values, rows, distances) for values in full]

        for executor in EXECUTOR_MODES:
            configure(shard_executor=executor, process_min_rows=1)
            for store in (sharded, column):
                matcher = RadiusMatcher.from_store(store, *key)
                assert matcher.matches_many(queries) == expected
                assert matcher.any_match_many(queries) == [bool(hits) for hits in expected]
                assert matcher.matches(queries[0]) == expected[0]
                neighbors = NearestNeighbors.from_store(store, SCHEMA.attributes)
                assert [neighbors.min_distance(values) for values in full] == expected_min

    def test_subclassed_kernels_stay_on_local_path(self):
        """A RadiusMatcher/NearestNeighbors subclass built over a sharded store
        under the process executor is one local kernel of that subclass: its
        overrides answer every batch call, and nothing is published."""

        class MutedMatcher(RadiusMatcher):
            def matches(self, values):
                return []  # deliberately different from the base behavior

        class TaggedNeighbors(NearestNeighbors):
            def min_distance(self, values):
                return -1.0

        rows = make_rows(600)
        relation = Relation(SCHEMA, rows, backend="sharded")
        force_process()
        key = ([0, 1], [TRIVIAL, NUMERIC], [0.0, 2.0])
        base = RadiusMatcher.from_store(relation.store, *key)
        assert type(base) is RadiusMatcher
        assert base.matches_many([rows[0][:2]]) != [[]]  # the row matches itself
        muted = MutedMatcher.from_store(relation.store, *key)
        assert type(muted) is MutedMatcher
        assert muted.matches_many([rows[0][:2]]) == [[]]
        assert muted.any_match_many([rows[0][:2]]) == [True]  # any_match is not overridden

        neighbors = TaggedNeighbors.from_store(relation.store, SCHEMA.attributes)
        assert type(neighbors) is TaggedNeighbors
        assert neighbors.min_distance(rows[0]) == -1.0
        assert relation.store._publication is None

    def test_bare_masks_and_gathers_stay_in_the_parent(self):
        """Only the fused select+gather ships: a bare mask and a bare gather
        over a sharded store answer in the caller under the process executor,
        publishing nothing and dispatching nothing."""
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        indices = [5, 5, 1999, 0, 123, 123, 7]  # duplicates, out of order
        configure(shard_executor="serial")
        mask = bytes(CONDITION.mask(relation.store, SCHEMA))
        gathered = [list(relation.store.gather_column(p, indices)) for p in range(3)]
        force_process()
        tasks_before = parallel.dispatch_stats()["tasks"]
        assert bytes(CONDITION.mask(relation.store, SCHEMA)) == mask
        assert [list(relation.store.gather_column(p, indices)) for p in range(3)] == gathered
        assert relation.store._publication is None
        assert parallel.dispatch_stats()["tasks"] == tasks_before

    @pytest.mark.parametrize("layout", ["sharded", "mmap-sharded"])
    def test_mutation_retires_publication(self, layout, store_dir):
        """An append retires the published files and the flat view: every
        read after it — column, key tuples, serial and shipped select — sees
        the new row."""
        store = backend_class(layout).from_rows(3, make_rows(3000))
        force_process()
        first_mask, first_rows = select_answer(store)
        publication = store._publication
        assert publication is not None
        before = set(publication.written)
        assert all(os.path.exists(path) for path in before)
        assert (len(store.column(1)), len(list(store.key_tuples([0, 2])))) == (3000, 3000)

        added = (999, 10.0, 90.0)  # a row the condition keeps
        store.append(added)  # mutation retires the files and the flat view
        assert store._publication is None
        assert not any(os.path.exists(path) for path in before)
        assert store.column(1)[-1] == 10.0 and list(store.key_tuples([0, 2]))[-1] == (999, 90.0)

        calls_before = parallel.select_gather_stats()["calls"]
        process_answer = select_answer(store)
        assert parallel.select_gather_stats()["calls"] == calls_before + 1  # it shipped
        assert process_answer == (first_mask + b"\x01", first_rows + [identity_key(added)])
        configure(shard_executor="serial")
        assert process_answer == select_answer(store)
        # The fresh publication uses fresh file names: stale worker cache
        # entries can never answer for the mutated store.
        assert not (set(store._publication.written) & before)

    def test_a_reset_pool_keeps_the_publication(self):
        """Publications are sized by the data, not the pool: the workers
        that replace a retired pool map the same files."""
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        expected = select_answer(relation.store)
        publication = relation.store._publication
        parallel.reset_process_pool()
        calls_before = parallel.select_gather_stats()["calls"]
        assert select_answer(relation.store) == expected
        assert parallel.select_gather_stats()["calls"] == calls_before + 1
        assert relation.store._publication is publication

    def test_store_with_an_empty_shard_still_dispatches(self):
        cls = ShardedStore.configured(4)
        store = cls.from_rows(3, make_rows(3))
        assert [len(shard) for shard in store.shards] == [1, 1, 1, 0]
        configure(shard_executor="serial")
        reference = select_answer(store)
        force_process()
        fallbacks_before = parallel.dispatch_stats()["fallbacks"]
        masks = parallel.process_select_gather(store, CONDITION.program(SCHEMA).run_part)
        # The empty shard has a file like any other, and a worker answered for it.
        assert masks is not None and [len(mask) for mask in masks] == [1, 1, 1, 0]
        assert select_answer(store) == reference
        assert parallel.dispatch_stats()["fallbacks"] == fallbacks_before

    def test_unpicklable_masker_falls_back(self):
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        calls_before = parallel.select_gather_stats()["calls"]
        mask, selected = relation.store.select_gather(lambda part: bytearray(b"\x01" * len(part)))
        assert mask == bytearray(b"\x01" * len(relation))
        assert selected is relation.store
        assert parallel.select_gather_stats()["calls"] == calls_before  # nothing shipped

    def test_small_store_skips_process(self):
        relation = Relation(SCHEMA, make_rows(40), backend="sharded")
        configure(shard_executor="process")  # default threshold: 40 rows stay local
        answer = select_answer(relation.store)
        assert relation.store._publication is None
        configure(shard_executor="serial")
        assert answer == select_answer(relation.store)

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
        reference = select_answer(relation.store)

        # A pool that cannot be created: every process attempt falls back.
        def no_pool():
            raise OSError("cannot start a worker process")

        parallel.reset_process_pool()
        failures_before = parallel._pool_failures
        monkeypatch.setattr(parallel, "_ensure_pool", no_pool)
        try:
            program = CONDITION.program(SCHEMA)
            assert parallel.process_select_gather(relation.store, program.run_part) is None
            assert select_answer(relation.store) == reference
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
        expected = select_answer(relation.store)
        stale_publication = relation.store._publication
        failures_before = parallel._pool_failures
        parallel.shutdown()  # the explicit cleanup hook body
        assert not any(os.path.exists(path) for path in stale_publication.written)
        # After a full shutdown the next query republishes and respawns —
        # including for the store whose publication the shutdown orphaned
        # (its stale file names must not poison workers or trip the
        # failure breaker).
        assert select_answer(relation.store) == expected
        assert relation.store._publication is not stale_publication
        assert parallel._pool_failures == failures_before
        relation2 = Relation(SCHEMA, make_rows(2000), backend="sharded")
        assert select_answer(relation2.store) == expected

    def test_application_errors_propagate_from_workers(self):
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        force_process()
        failures_before = parallel._pool_failures
        with pytest.raises(RuntimeError, match="application bug"):
            relation.store.select_gather(_raising_masker)
        # A computation's own error is not an infrastructure failure: it
        # must not count toward the breaker or silently re-run in the caller.
        assert parallel._pool_failures == failures_before


@needs_process
class TestWorkerSettings:
    """A worker imports the package afresh; the parent's ``Config`` must reach it."""

    @staticmethod
    def ask_worker(fn):
        return parallel._ensure_pool().submit(fn).result(timeout=30)

    def test_a_worker_runs_under_its_parents_settings(self):
        configure(shard_executor="process", checksum_mode="full", process_min_rows=1)
        assert self.ask_worker(current_config) == current_config()  # exactly, nothing pinned
        # A setting the workers read: the pool is retired, and the workers
        # the next dispatch spawns carry the new value.
        configure(checksum_mode="off")
        assert parallel._pool is None
        assert self.ask_worker(current_config).checksum_mode == "off"
        # Parent-side decisions keep the warm worker.
        pid = self.ask_worker(os.getpid)
        configure(shard_executor="serial", process_min_rows=7)
        assert self.ask_worker(os.getpid) == pid

    def test_full_checksums_are_verified_inside_the_workers(self, store_dir, tmp_path):
        relation = Relation(SCHEMA, make_rows(2000), backend="sharded")
        configure(shard_executor="serial")
        reference = select_answer(relation.store)
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
        # caller answers from the parent's own, undamaged buffers.
        fatal_before = parallel.dispatch_stats()["fatal"]
        assert select_answer(relation.store) == reference
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


@needs_process
def test_only_the_fused_select_gather_reaches_a_worker(monkeypatch):
    """Answering a generated workload over the sharded backend under the
    process executor submits no shard task but the fused select+gather."""
    workload = tfacc.generate(accidents=250, stops=80)
    database = to_backend(workload.database, "sharded")
    beas = Beas(database, access_schema=build_beas(workload).access_schema)
    submitted = []
    submit = ProcessPoolExecutor.submit

    def recording_submit(pool, fn, *args):
        submitted.append(fn.__name__)
        return submit(pool, fn, *args)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)
    configure(shard_executor="process", process_min_rows=1, shard_workers=2)
    for query in QueryGenerator(workload, seed=7).workload_mix(12):
        if not union_compatible(query.ast, database.schema):
            continue
        for alpha in (0.25, 1.0):
            beas.answer(query.ast, alpha)
        beas.answer_exact(query.ast)
    assert set(submitted) <= {"_worker_select_gather", "_worker_ping"}
    assert "_worker_select_gather" in submitted


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
    """Serial and process select+gather are bit-identical on
    None/NaN/mixed/string columns (the satellite hypothesis property)."""
    cls = ShardedStore.configured(3)
    store = cls.from_rows(2, rows)
    masker = MIXED_CONDITION.program(MIXED_SCHEMA).run_part
    configure(process_min_rows=1)
    results = {}
    for mode in EXECUTOR_MODES:
        configure(shard_executor=mode)
        results[mode] = select_answer(store, masker)
    assert results["serial"] == results["process"]
