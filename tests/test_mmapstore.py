"""The persistent mmap-backed storage tier: files, datasets, crash-restart.

The load-bearing guarantees under test:

* **Bit-identity through the file** — a store built on the ``mmap``
  backend reads through an actual on-disk file, and a store reopened from
  that file is indistinguishable (typed values, NaN, mixed columns) from
  the in-memory original.
* **Restart is not a mutation** — the mutation epoch rides in the file
  header and the publication epoch in the dataset manifest, so caches
  keyed on them stay valid across a close-and-reopen.
* **Nothing to publish** — process-mode queries over mmap-backed shards
  hand workers the shards' own files; the
  :class:`~repro.relational.parallel.ShardPublication` writes nothing.
* **Hygiene** — anonymous construction-time files are reference-counted
  and swept; test runs leave no stray ``.rpro`` files behind.

The cross-backend conformance matrix (``tests/test_store.py``) and the
serving invalidation matrix (``tests/test_serving.py``) parametrize over
:func:`~repro.relational.store.list_backends`, so the mmap backends join
those suites automatically; :class:`TestMatrixMembership` pins that they
actually do.
"""

from __future__ import annotations

import gc
import math
import os
import pickle

import pytest

from conftest import SHARD_EXECUTORS, assert_identical, identity_key, to_backend
from repro import Beas, ConstraintSpec, QueryServer, Relation, configure
from repro.algebra.predicates import AttrRef, CompareOp, Comparison, Conjunction, Const
from repro.errors import CorruptShardError
from repro.relational import mmapstore, parallel
from repro.relational.mmapstore import (
    FILE_SUFFIX,
    MANIFEST_NAME,
    MANIFEST_VERSION,
    MmapShardedStore,
    MmapStore,
    cleanup_store_dir,
    get_store_dir,
    open_database,
    save_database,
)
from repro.relational.parallel import publication_for
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.store import ColumnStore, ShardedStore, backend_class, list_backends

NAN = float("nan")

MIXED_ROWS = [
    (1, "a", 10.0, 1),
    (2, "a", 20, 2.5),
    (3, "b", None, NAN),
    (3, "b", 30.5, -0.0),
    (4, None, NAN, 10**25),
    (5, "c", 1, True),
]


@pytest.fixture
def schema():
    return RelationSchema(
        "t",
        [Attribute("id"), Attribute("cat"), Attribute("x"), Attribute("y")],
    )


def rpro_files(directory):
    return sorted(
        name for name in os.listdir(directory) if name.endswith(FILE_SUFFIX)
    )


# ---------------------------------------------------------------------------
# Matrix membership
# ---------------------------------------------------------------------------


class TestMatrixMembership:
    def test_mmap_backends_registered(self):
        # Registration happens at repro.relational import time, which is
        # what makes the conformance and serving matrices (parametrized
        # over list_backends()) cover the mmap tier with no opt-in.
        names = set(list_backends())
        assert {"mmap", "mmap-sharded"} <= names
        assert backend_class("mmap") is MmapStore
        assert backend_class("mmap-sharded") is MmapShardedStore
        assert MmapShardedStore.shard_count == 4
        assert MmapShardedStore.shard_backend == "mmap"


# ---------------------------------------------------------------------------
# Single-store round trips
# ---------------------------------------------------------------------------


class TestMmapStoreRoundTrip:
    def test_construction_reads_through_a_file(self, schema, store_dir):
        relation = Relation(schema, MIXED_ROWS, backend="mmap")
        store = relation.store
        assert store.is_mapped
        assert store.path is not None
        assert os.path.dirname(store.path) == store_dir
        reference = Relation(schema, MIXED_ROWS, backend="column")
        assert_identical(relation.project(schema.attribute_names), reference)

    def test_save_open_bit_identical(self, schema, store_dir, tmp_path):
        original = MmapStore.from_rows(4, MIXED_ROWS)
        path = tmp_path / f"explicit{FILE_SUFFIX}"
        original.save(path)
        assert original.path == str(path)
        reopened = MmapStore.open(path)
        assert reopened.is_mapped
        assert [identity_key(r) for r in reopened.row_list()] == [
            identity_key(r) for r in original.row_list()
        ]

    def test_epoch_persisted_in_header(self, schema, store_dir, tmp_path):
        store = MmapStore.from_rows(4, MIXED_ROWS)
        store.append((6, "d", 1.5, 2))
        store.append((7, "d", 2.5, 3))
        assert store.epoch == 2
        path = tmp_path / f"epoch{FILE_SUFFIX}"
        store.save(path)
        reopened = MmapStore.open(path)
        assert reopened.epoch == 2  # a reopen is not a mutation

    def test_mutation_detaches_from_the_file(self, schema, store_dir):
        store = MmapStore.from_rows(4, MIXED_ROWS)
        assert store.is_mapped
        before = store.epoch
        store.append((9, "z", 0.5, 1))
        assert not store.is_mapped  # files are immutable: mutation detaches
        assert store.epoch == before + 1
        assert store.row_list()[-1][0] == 9

    def test_copy_shares_mapping_with_copy_on_write(self, schema, store_dir):
        original = MmapStore.from_rows(4, MIXED_ROWS)
        clone = original.copy()
        assert clone.is_mapped and clone.path == original.path
        clone.append((9, "z", 0.5, 1))
        # The clone detached onto private buffers; the original still reads
        # from the file and never saw the append.
        assert not clone.is_mapped
        assert original.is_mapped
        assert len(original) == len(MIXED_ROWS)
        assert len(clone) == len(MIXED_ROWS) + 1

    def test_sorting_writes_no_file(self, schema, store_dir):
        rows = [(i, "abcdefg"[i * 3 % 7], (i * 37) % 11 * 0.5, 50 - i) for i in range(50)]
        relation = Relation(schema, rows, backend="mmap")
        files = rpro_files(store_dir)
        ordered = relation.sorted()
        assert rpro_files(store_dir) == files
        assert type(ordered.store) is ColumnStore
        assert [identity_key(r) for r in ordered.rows] == [
            identity_key(r) for r in sorted(relation.rows, key=lambda row: row[0])
        ]
        assert ordered == relation

    def test_derivations_leave_no_mapped_buffers(self, schema, store_dir):
        store = MmapStore.from_rows(4, MIXED_ROWS)
        for derived, expected in (
            (store.project([0, 2]), [(row[0], row[2]) for row in MIXED_ROWS]),
            (store.head(3), MIXED_ROWS[:3]),
            (store.take([4, 1, 3]), [MIXED_ROWS[index] for index in (4, 1, 3)]),
        ):
            assert type(derived) is ColumnStore
            assert [identity_key(r) for r in derived.row_list()] == [
                identity_key(r) for r in expected
            ]
            # Derived stores own plain in-memory buffers — mutating them
            # must never touch (or depend on) the source file.
            for col in derived._cols:
                assert not isinstance(col, memoryview)

    def test_pickle_round_trip_detaches(self, schema, store_dir):
        store = MmapStore.from_rows(4, MIXED_ROWS)
        store.append((6, "d", 1.5, 2))
        clone = pickle.loads(pickle.dumps(store))
        assert isinstance(clone, MmapStore)
        assert not clone.is_mapped  # file paths mean nothing cross-process
        assert clone.epoch == store.epoch
        assert [identity_key(r) for r in clone.row_list()] == [
            identity_key(r) for r in store.row_list()
        ]

    def test_unpicklable_objects_stay_in_memory(self, store_dir, tmp_path):
        # Anonymous persistence degrades silently (the store is still fully
        # valid in memory), but an explicit save must fail loudly.
        store = MmapStore.from_rows(1, [(lambda: None,)])
        assert not store.is_mapped
        with pytest.raises(Exception):
            store.save(tmp_path / f"bad{FILE_SUFFIX}")

    def test_open_rejects_non_dataset_files(self, tmp_path):
        path = tmp_path / f"junk{FILE_SUFFIX}"
        path.write_bytes(b"not a dataset file at all")
        with pytest.raises(ValueError):
            MmapStore.open(path)


# ---------------------------------------------------------------------------
# The store directory and anonymous-file hygiene
# ---------------------------------------------------------------------------


class TestStoreDir:
    def test_store_dir_round_trips(self, tmp_path):
        first = tmp_path / "first"
        configure(store_dir=first)
        assert get_store_dir() == str(first)
        assert os.path.isdir(first)
        assert configure(store_dir=tmp_path / "second").store_dir == str(first)
        configure(store_dir=None)  # the lazily created temporary directory
        assert os.path.isdir(get_store_dir())
        assert not get_store_dir().startswith(str(tmp_path))

    def test_anonymous_files_are_reference_counted(self, schema, store_dir):
        store = MmapStore.from_rows(4, MIXED_ROWS)
        path = store.path
        assert os.path.exists(path)
        del store
        gc.collect()
        assert not os.path.exists(path)  # last mapping gone -> file unlinked

    def test_only_named_files_wait_for_the_device(self, store_dir, tmp_path, monkeypatch):
        # An anonymous file is scratch (unlinked with its last mapping, swept
        # at exit), and the executor builds one per fetch step: a flush there
        # is a disk wait on every answer that protects nothing.  Files someone
        # can reopen by name keep theirs.
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        store = MmapStore.from_rows(4, MIXED_ROWS)
        assert store.is_mapped and synced == []
        store.save(tmp_path / f"named{FILE_SUFFIX}")
        assert len(synced) == 1

    def test_cleanup_sweeps_leftovers(self, schema, store_dir):
        stores = [MmapStore.from_rows(4, MIXED_ROWS) for _ in range(3)]
        assert len(rpro_files(store_dir)) == 3
        cleanup_store_dir()
        assert rpro_files(store_dir) == []
        del stores


# ---------------------------------------------------------------------------
# Dataset directories
# ---------------------------------------------------------------------------


class TestDatasetDirectories:
    def test_save_open_round_trip_with_epoch(self, tiny_db, store_dir, tmp_path):
        tiny_db.relation("emp").append((998, 2, 61.25, "g2"))
        saved_epoch = tiny_db.publication_epoch
        assert saved_epoch > 0
        dataset = tmp_path / "dataset"
        save_database(tiny_db, dataset)
        assert MANIFEST_NAME in os.listdir(dataset)

        reopened = open_database(dataset)
        assert reopened.publication_epoch == saved_epoch
        for name in tiny_db.relation_names:
            assert_identical(reopened.relation(name), tiny_db.relation(name))
            assert reopened.relation(name).store.is_mapped

    @pytest.mark.parametrize(
        "layout, shards",
        [("sharded", 4), ("sharded1", 1), ("sharded7", 7), ("mmap-sharded", 4)],
    )
    def test_sharded_layout_preserved(self, tiny_db, store_dir, tmp_path, layout, shards):
        db = to_backend(tiny_db, layout)
        dataset = tmp_path / "dataset"
        save_database(db, dataset)
        reopened = open_database(dataset)
        for name in tiny_db.relation_names:
            saved, store = db.relation(name).store, reopened.relation(name).store
            assert isinstance(store, ShardedStore)
            assert store.shard_count == len(store.shards) == shards
            assert [len(shard) for shard in store.shards] == [len(shard) for shard in saved.shards]
            assert all(isinstance(shard, MmapStore) for shard in store.shards)
            assert_identical(reopened.relation(name), tiny_db.relation(name))

    def test_open_rejects_other_manifest_versions(self, tiny_db, store_dir, tmp_path):
        """A version-1 manifest may describe interleaved shards (a per-row
        shard map); reading its files in order would reorder the rows."""
        dataset = tmp_path / "dataset"
        save_database(to_backend(tiny_db, "sharded"), dataset)
        manifest_path = os.path.join(dataset, MANIFEST_NAME)
        with open(manifest_path, "rb") as handle:
            manifest = pickle.loads(handle.read())
        assert manifest["version"] == MANIFEST_VERSION == 2
        manifest["version"] = 1
        for entry in manifest["relations"]:
            rows = len(tiny_db.relation(entry["name"]))
            entry["shard_of"] = bytes(index % len(entry["files"]) for index in range(rows))
        with open(manifest_path, "wb") as handle:
            handle.write(pickle.dumps(manifest))
        with pytest.raises(ValueError, match="version 1.*version 2"):
            open_database(dataset)

    def test_open_without_schema_raises(self, tiny_db, store_dir, tmp_path):
        dataset = tmp_path / "dataset"
        save_database(tiny_db, dataset)
        manifest_path = os.path.join(dataset, MANIFEST_NAME)
        with open(manifest_path, "rb") as handle:
            manifest = pickle.loads(handle.read())
        schema = manifest.pop("schema")
        manifest["schema"] = None
        with open(manifest_path, "wb") as handle:
            handle.write(pickle.dumps(manifest))
        with pytest.raises(ValueError, match="schema"):
            open_database(dataset)
        # ...and supplying the schema explicitly recovers the dataset.
        reopened = open_database(dataset, schema=schema)
        assert_identical(reopened.relation("emp"), tiny_db.relation("emp"))

    def test_open_rejects_non_manifest(self, tmp_path):
        dataset = tmp_path / "dataset"
        os.makedirs(dataset)
        with open(os.path.join(dataset, MANIFEST_NAME), "wb") as handle:
            handle.write(pickle.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="manifest"):
            open_database(dataset)


# ---------------------------------------------------------------------------
# Fetch frames are scratch data: built in memory, whatever the base relation
# ---------------------------------------------------------------------------


class TestFetchFramesStayInMemory:
    @pytest.mark.parametrize("backend_name", ["mmap", "mmap-sharded"])
    def test_fetching_over_mapped_relations_writes_no_file(self, tiny_db, store_dir, backend_name):
        from repro.core.executor import PlanExecutor

        db = to_backend(tiny_db, backend_name)
        reference = Beas(tiny_db, constraints=_tiny_constraints())
        beas = Beas(db, constraints=_tiny_constraints())
        before = rpro_files(store_dir)
        assert before  # the base relations themselves are mapped files
        for sql in RESTART_QUERIES:
            plan = beas.plan(sql, 1.0)
            executor = PlanExecutor(db, plan)
            for frame in executor.fetch().values():
                # Read in the caller, never shipped: one flat column store.
                assert type(frame.store) is ColumnStore
            assert rpro_files(store_dir) == before
            assert_identical(executor.execute(), reference.answer(sql, 1.0).rows)
        for name in db.relation_names:  # base relations stay mmap-backed
            stores = getattr(db.relation(name).store, "shards", None) or [db.relation(name).store]
            assert all(store.is_mapped or len(store) == 0 for store in stores)


# ---------------------------------------------------------------------------
# Crash-restart: reopen from disk, answers and epochs survive
# ---------------------------------------------------------------------------


def _tiny_constraints():
    return [
        ConstraintSpec("dept", ("did",), ("name", "budget"), n=1),
        ConstraintSpec("emp", ("eid",), ("dept", "salary", "grade"), n=1),
    ]


RESTART_QUERIES = [
    "SELECT e.eid, e.salary FROM emp e WHERE e.dept = 2",
    "SELECT e.eid FROM emp e WHERE e.salary <= 60 AND e.grade = 'g1'",
    "SELECT e.dept, SUM(e.salary) FROM emp e GROUP BY e.dept",
]


def test_crash_restart_bit_identical(tiny_db, store_dir, tmp_path):
    """Write a dataset, drop every live object, reopen from disk alone.

    The reopened database must answer every query bit-identically to the
    one that was saved, and must report the *same* publication epoch — a
    restart is not a mutation, so serving-layer cache keys minted before
    it stay valid after it.
    """
    db = to_backend(tiny_db, "mmap")
    db.relation("emp").append((999, 1, 55.5, "g1"))  # a non-zero epoch
    beas = Beas(db, constraints=_tiny_constraints())
    expected = {
        sql: beas.answer(sql, alpha=0.5) for sql in RESTART_QUERIES
    }
    saved_epoch = db.publication_epoch
    dataset = tmp_path / "dataset"
    save_database(db, dataset)

    del db, beas
    gc.collect()

    reopened = open_database(dataset)
    assert reopened.publication_epoch == saved_epoch
    revived = Beas(reopened, constraints=_tiny_constraints())
    for sql, before in expected.items():
        after = revived.answer(sql, alpha=0.5)
        assert_identical(after.rows, before.rows)
        assert after.eta == before.eta
        assert after.tuples_accessed == before.tuples_accessed


def test_restart_preserves_serving_cache_keys(tiny_db, store_dir, tmp_path):
    """A result cached pre-restart is a hit post-restart (same epoch keys)."""
    db = to_backend(tiny_db, "mmap")
    beas = Beas(db, constraints=_tiny_constraints())
    server = QueryServer(beas)
    sql = RESTART_QUERIES[0]
    cold = server.serve(sql, alpha=0.5)

    dataset = tmp_path / "dataset"
    save_database(db, dataset)
    reopened = open_database(dataset)
    revived = Beas(reopened, constraints=_tiny_constraints())
    # Same result cache, new engine — exactly the restart-with-warm-cache shape.
    warm_server = QueryServer(revived, result_cache=server.result_cache)
    warm = warm_server.serve(sql, alpha=0.5)
    assert warm.result_cache_hit
    assert warm.publication_epoch == cold.publication_epoch
    assert_identical(warm.rows, cold.rows)


# ---------------------------------------------------------------------------
# Process execution: workers map the shards' own files
# ---------------------------------------------------------------------------


needs_process = pytest.mark.skipif(
    "process" not in SHARD_EXECUTORS, reason="platform cannot run worker processes"
)


class TestProcessExecution:
    def test_worker_resolves_file_handles(self, schema, store_dir):
        # Drive the worker-side resolver in-process: a file handle maps the
        # file and caches the store under its identity token.
        store = MmapStore.from_rows(4, MIXED_ROWS)
        handle = store.file_handle()
        assert handle is not None and handle[1] == store.path
        resolved = parallel._resolve_store(handle)
        assert [identity_key(r) for r in resolved.row_list()] == [
            identity_key(r) for r in store.row_list()
        ]
        assert parallel._resolve_store(handle) is resolved  # token-cached

    def test_detached_store_has_no_file_handle(self, schema, store_dir):
        store = MmapStore.from_rows(4, MIXED_ROWS)
        store.append((6, "d", 1.5, 2))
        assert store.file_handle() is None

    def test_publication_hands_out_the_shards_own_files(self, tiny_db, store_dir):
        db = to_backend(tiny_db, "mmap-sharded")
        store = db.relation("emp").store
        publication = publication_for(store)
        assert publication.handles == [shard.file_handle() for shard in store.shards]
        assert publication.written == []
        publication.retire()  # nothing of its own to unlink
        assert all(os.path.exists(shard.path) for shard in store.shards)

    @needs_process
    def test_process_queries_write_no_publication_file(self, tiny_db, store_dir):
        configure(shard_executor="process", process_min_rows=1)
        db = to_backend(tiny_db, "mmap-sharded")
        beas = Beas(db, constraints=_tiny_constraints())
        reference = Beas(tiny_db, constraints=_tiny_constraints())
        for sql in RESTART_QUERIES:
            got = beas.answer(sql, alpha=0.9)
            assert_identical(got.rows, reference.answer(sql, alpha=0.9).rows)
        # A fused select+gather forces a round trip through the worker
        # pool (query plans above may stay on index paths).
        emp = db.relation("emp")
        program = Conjunction.of(
            [Comparison(AttrRef(None, "salary"), CompareOp.LE, Const(60.0))]
        ).program(emp.schema)
        calls_before = parallel.select_gather_stats()["calls"]
        _mask, selected = emp.store.select_gather(program.run_part)
        assert parallel.select_gather_stats()["calls"] == calls_before + 1
        assert [identity_key(row) for row in selected.iter_rows()] == [
            identity_key(row) for row in tiny_db.relation("emp").rows if row[2] <= 60.0
        ]
        # The workers mapped the shards' own files: nothing was written.
        assert emp.store._publication.written == []
        assert not [name for name in os.listdir(store_dir) if name.startswith("pub-")]


# ---------------------------------------------------------------------------
# NaN fidelity through the file (spot check beyond the conformance matrix)
# ---------------------------------------------------------------------------


def test_nan_and_negative_zero_survive_the_file(store_dir, tmp_path):
    store = MmapStore.from_rows(1, [(NAN,), (-0.0,), (1.5,)])
    path = tmp_path / f"nan{FILE_SUFFIX}"
    store.save(path)
    reopened = MmapStore.open(path)
    values = [row[0] for row in reopened.row_list()]
    assert math.isnan(values[0])
    assert math.copysign(1.0, values[1]) == -1.0
    assert values[2] == 1.5

# ---------------------------------------------------------------------------
# Corruption: checksums, quarantine, crash-restart over damage
# ---------------------------------------------------------------------------


def _flip_byte(path, offset):
    """Flip one byte of ``path`` in place (negative offsets from the end)."""
    with open(path, "r+b") as handle:
        handle.seek(offset, os.SEEK_END if offset < 0 else os.SEEK_SET)
        position = handle.tell()
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ 0xFF]))


class TestCorruptFiles:
    @pytest.mark.parametrize("quarantined_to", [None, "/data/victim.rpro.quarantined"])
    def test_the_error_pickles_as_itself(self, quarantined_to):
        """A worker's failed open reaches the parent through pickle: it must
        arrive as this error with its fields, not break the worker pool."""
        error = CorruptShardError("/data/victim.rpro", "checksum mismatch", quarantined_to)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is CorruptShardError and str(copy) == str(error)
        assert (copy.path, copy.reason, copy.quarantined_to) == (
            "/data/victim.rpro",
            "checksum mismatch",
            quarantined_to,
        )

    def _saved(self, tmp_path):
        store = MmapStore.from_rows(4, MIXED_ROWS)
        path = str(tmp_path / f"victim{FILE_SUFFIX}")
        store.save(path)
        del store
        gc.collect()
        return path

    def test_truncated_before_header_quarantines(
        self, store_dir, tmp_path
    ):
        path = self._saved(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(5)
        with pytest.raises(CorruptShardError) as excinfo:
            MmapStore.open(path)
        assert "truncated" in excinfo.value.reason
        assert excinfo.value.quarantined_to is not None
        assert not os.path.exists(path)
        assert os.path.exists(excinfo.value.quarantined_to)

    def test_truncated_header_quarantines(self, store_dir, tmp_path):
        path = self._saved(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(20)  # magic + length survive, header does not
        with pytest.raises(CorruptShardError) as excinfo:
            MmapStore.open(path)
        assert excinfo.value.quarantined_to is not None

    def test_header_bit_flip_caught_by_default_mode(
        self, store_dir, tmp_path
    ):
        path = self._saved(tmp_path)
        configure(checksum_mode=None)  # the default mode verifies the header
        _flip_byte(path, len(b"RPROMM02") + 8 + 3)
        with pytest.raises(CorruptShardError) as excinfo:
            MmapStore.open(path)
        assert "header" in excinfo.value.reason
        assert excinfo.value.quarantined_to is not None

    def test_payload_bit_flip_caught_by_full_mode(
        self, store_dir, tmp_path
    ):
        path = self._saved(tmp_path)
        configure(checksum_mode="full")
        _flip_byte(path, -1)  # last payload byte
        with pytest.raises(CorruptShardError) as excinfo:
            MmapStore.open(path)
        assert "checksum mismatch" in excinfo.value.reason

    def test_corrupt_error_is_a_value_error(self, store_dir, tmp_path):
        # Pre-checksum callers caught ValueError for any malformed file;
        # the typed error must keep satisfying them.
        path = self._saved(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(5)
        with pytest.raises(ValueError):
            MmapStore.open(path)

    def test_quarantined_file_not_reopened(self, store_dir, tmp_path):
        path = self._saved(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(20)
        with pytest.raises(CorruptShardError):
            MmapStore.open(path)
        # Crash-restart over the quarantined file: a clean typed error,
        # never the same bad bytes again.
        with pytest.raises(FileNotFoundError):
            MmapStore.open(path)

    def test_bad_magic_is_plain_value_error_no_quarantine(
        self, store_dir, tmp_path
    ):
        # A file that was never ours is not "corrupt" — leave it alone.
        path = str(tmp_path / f"alien{FILE_SUFFIX}")
        with open(path, "wb") as handle:
            handle.write(b"NOTADATA" + b"\x00" * 64)
        with pytest.raises(ValueError) as excinfo:
            MmapStore.open(path)
        assert not isinstance(excinfo.value, CorruptShardError)
        assert os.path.exists(path)

    def test_off_mode_skips_verification(self, store_dir, tmp_path):
        store = MmapStore.from_rows(1, [(1.5,), (2.5,), (3.5,)])
        path = str(tmp_path / f"floats{FILE_SUFFIX}")
        store.save(path)
        configure(checksum_mode="off")
        _flip_byte(path, -1)  # arr payload damage: structurally still parseable
        reopened = MmapStore.open(path)
        assert reopened.is_mapped  # opened unverified, by explicit request
        configure(checksum_mode="full")  # the same damage is caught once asked for
        with pytest.raises(CorruptShardError):
            MmapStore.open(path)

    def test_legacy_v1_magic_is_not_a_dataset_file(self, store_dir, tmp_path):
        # RPROMM01 (no checksums) is no longer read: it could only ever be
        # opened unverified, whatever ``checksum_mode`` said.
        path = str(tmp_path / f"legacy{FILE_SUFFIX}")
        with open(path, "wb") as handle:
            handle.write(b"RPROMM01" + (0).to_bytes(8, "little") + b"\x00" * 16)
        with pytest.raises(ValueError, match="bad magic") as excinfo:
            MmapStore.open(path)
        assert not isinstance(excinfo.value, CorruptShardError)
        assert os.path.exists(path)  # left in place, not quarantined

    def test_crash_restart_over_quarantined_shard(
        self, tiny_db, store_dir, tmp_path
    ):
        dataset = tmp_path / "dataset"
        save_database(tiny_db, dataset)
        shard_file = os.path.join(dataset, f"emp{FILE_SUFFIX}")
        assert os.path.exists(shard_file)
        with open(shard_file, "r+b") as handle:
            handle.truncate(20)
        with pytest.raises(CorruptShardError):
            open_database(dataset)
        # The damaged shard was quarantined; the next restart sees a clean
        # missing-file error instead of re-reading the bad bytes...
        with pytest.raises(FileNotFoundError):
            open_database(dataset)
        # ...and re-publishing the dataset heals it in place.
        save_database(tiny_db, dataset)
        reopened = open_database(dataset)
        assert_identical(
            reopened.relation("emp"),
            tiny_db.relation("emp"),
        )


def fail_the_next_open(monkeypatch, error):
    """``_map_file`` raises ``error`` once, then maps files again."""
    map_file = mmapstore._map_file
    calls = []

    def failing_once(path):
        calls.append(path)
        if len(calls) == 1:
            raise error
        return map_file(path)

    monkeypatch.setattr(mmapstore, "_map_file", failing_once)
    return calls


class TestFailedOpens:
    """An open that fails without damaged bytes moves nothing aside."""

    def test_a_failed_open_never_quarantines(self, store_dir, tmp_path, monkeypatch):
        store = MmapStore.from_rows(4, MIXED_ROWS)
        path = str(tmp_path / f"healthy{FILE_SUFFIX}")
        store.save(path)
        fail_the_next_open(monkeypatch, CorruptShardError(path, "unreadable"))
        with pytest.raises(CorruptShardError) as excinfo:
            MmapStore.open(path)
        assert excinfo.value.quarantined_to is None
        assert os.path.exists(path)
        reopened = MmapStore.open(path)  # the next open succeeds
        assert [identity_key(r) for r in reopened.row_list()] == [
            identity_key(r) for r in store.row_list()
        ]

    def test_a_missing_file_error_leaves_the_file_alone(self, store_dir, tmp_path, monkeypatch):
        store = MmapStore.from_rows(4, MIXED_ROWS)
        path = str(tmp_path / f"present{FILE_SUFFIX}")
        store.save(path)
        fail_the_next_open(monkeypatch, FileNotFoundError(2, "no such dataset file", path))
        with pytest.raises(FileNotFoundError):
            MmapStore.open(path)
        assert os.path.exists(path)

    def test_a_failed_reopen_after_save_propagates(self, store_dir, tmp_path, monkeypatch):
        # An explicit save must not succeed silently: the error reaches the
        # caller, the store keeps its in-memory buffers, and the written
        # file opens on the next try.
        store = MmapStore.from_rows(4, MIXED_ROWS)
        reference = [identity_key(r) for r in store.row_list()]
        path = str(tmp_path / f"saved{FILE_SUFFIX}")
        fail_the_next_open(monkeypatch, CorruptShardError(path, "unreadable"))
        with pytest.raises(CorruptShardError):
            store.save(path)
        assert [identity_key(r) for r in store.row_list()] == reference
        assert os.path.exists(path)
        assert [identity_key(r) for r in MmapStore.open(path).row_list()] == reference

    @pytest.mark.parametrize(
        "error",
        [
            FileNotFoundError(2, "no such dataset file", "anon"),
            PermissionError(13, "permission denied", "anon"),
        ],
        ids=["missing", "unreadable"],
    )
    def test_anonymous_persist_survives_any_failed_reopen(self, store_dir, monkeypatch, error):
        calls = fail_the_next_open(monkeypatch, error)
        store = MmapStore.from_rows(4, MIXED_ROWS)
        assert len(calls) == 1
        assert not store.is_mapped
        assert rpro_files(store_dir) == []
        reference = MmapStore.from_rows(4, MIXED_ROWS)
        assert [identity_key(r) for r in store.row_list()] == [
            identity_key(r) for r in reference.row_list()
        ]

    def test_anonymous_persist_survives_a_failed_reopen(self, store_dir, monkeypatch):
        # Construction-time persist cannot reopen its file: the store stays
        # detached (bit-identical in memory) instead of failing the build,
        # and the orphaned file is dropped.
        calls = fail_the_next_open(monkeypatch, CorruptShardError("anon", "unreadable"))
        store = MmapStore.from_rows(4, MIXED_ROWS)
        assert len(calls) == 1
        assert not store.is_mapped
        assert rpro_files(store_dir) == []
        reference = MmapStore.from_rows(4, MIXED_ROWS)
        assert [identity_key(r) for r in store.row_list()] == [
            identity_key(r) for r in reference.row_list()
        ]
        assert rpro_files(store_dir) != []  # the healthy reference persisted
