"""Storage backends: unit, differential and conformance-matrix tests.

The contract under test (see :mod:`repro.relational.store`): every
registered backend produces **bit-identical** relations through every
relational operation — same values, same types (``1`` stays ``int``,
``1.0`` stays ``float``), same row order — including mixed int/float
columns, ``None``, NaN, and the full ``Beas.answer()`` pipeline.

``TestBackendConformanceMatrix`` runs the whole differential suite over
every backend returned by :func:`repro.relational.store.list_backends` (the
``backend`` fixture is auto-parametrized in ``conftest.py``): column,
sharded at 1/4/7 shards, the mmap tier — and any backend registered at
import time, automatically.  The reference side is plain Python rows where
the operation is simple enough to state with a list, and the column store
otherwise.
"""

from __future__ import annotations

import pytest

from repro import Beas, Database, Relation, configure, current_config, parse_query
from repro.algebra.evaluator import DatabaseProvider, Evaluator, evaluate_exact
from repro.algebra.predicates import AttrRef, CompareOp, Comparison, Conjunction, Const
from repro.errors import SchemaError
from repro.relational.distance import CATEGORICAL, NUMERIC
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.store import (
    ColumnStore,
    ShardedStore,
    and_masks,
    backend_class,
    gather_columns,
    gather_pairs,
    list_backends,
    make_store,
    register_backend,
    vstack_gather,
)
from repro.workloads import social

from conftest import assert_identical, identity_key, to_backend

NAN = float("nan")


@pytest.fixture()
def schema():
    return RelationSchema(
        "t",
        [
            Attribute("id"),
            Attribute("cat", CATEGORICAL),
            Attribute("x", NUMERIC),
            Attribute("y", NUMERIC),
        ],
    )


MIXED_ROWS = [
    (1, "a", 10.0, 1),
    (2, "a", 20, 2.5),
    (3, "b", None, NAN),
    (3, "b", 30.5, -0.0),
    (4, None, NAN, 10**25),
    (5, "c", 1, True),
]


def _odd_ids(part):
    """A picklable masker keeping the rows whose id is odd."""
    return bytearray(1 if value % 2 else 0 for value in part.column(0))


# ---------------------------------------------------------------------------
# Store unit tests
# ---------------------------------------------------------------------------

class TestStores:
    def test_roundtrip_mixed_rows(self):
        store = ColumnStore.from_rows(4, MIXED_ROWS)
        assert len(store) == len(MIXED_ROWS)
        assert store.row_list() == MIXED_ROWS
        assert list(store.iter_rows()) == MIXED_ROWS
        assert [store.row(i) for i in range(len(store))] == MIXED_ROWS
        for p in range(4):
            expected = [row[p] for row in MIXED_ROWS]
            got = list(store.column(p))
            assert [identity_key((v,)) for v in got] == [
                identity_key((v,)) for v in expected
            ]

    def test_derivations(self):
        store = ColumnStore.from_rows(4, MIXED_ROWS)
        mask = bytearray([1, 0, 1, 0, 1, 0])
        assert store.select_mask(mask).row_list() == [MIXED_ROWS[i] for i in (0, 2, 4)]
        assert store.take([3, 1]).row_list() == [MIXED_ROWS[3], MIXED_ROWS[1]]
        assert store.project([2, 0]).row_list() == [(r[2], r[0]) for r in MIXED_ROWS]
        assert store.head(2).row_list() == MIXED_ROWS[:2]
        dup = store.copy()
        dup.append((9, "z", 0.0, 0.0))
        assert len(store) == len(MIXED_ROWS) and len(dup) == len(MIXED_ROWS) + 1
        assert list(store.key_tuples([1, 3])) == [(r[1], r[3]) for r in MIXED_ROWS]
        assert list(store.key_tuples([])) == [()] * len(MIXED_ROWS)

    def test_column_store_typed_buffers(self):
        store = ColumnStore(2)
        for v in (1.0, 2.5, NAN):
            store.append((v, 7))
        assert store._kinds == ["float", "int"]  # noqa: SLF001 - layout assertion
        # Ints and floats stay distinct types after a round trip.
        assert [type(v) for v in store.column(0)] == [float, float, float]
        assert [type(v) for v in store.column(1)] == [int, int, int]
        # A mixed value demotes the buffer without changing stored values.
        store.append((None, 10**25))
        assert store._kinds == ["object", "object"]
        assert list(store.column(0))[:2] == [1.0, 2.5]
        assert list(store.column(1)) == [7, 7, 7, 10**25]
        # bool is not int for buffer purposes (it must round-trip as bool).
        other = ColumnStore(1)
        other.append((True,))
        assert other._kinds == ["object"]
        assert other.column(0)[0] is True

    def test_column_store_select_mask_keeps_types(self):
        store = ColumnStore.from_rows(2, [(1.0, 1), (2.0, 2), (3.0, 3)])
        kept = store.select_mask(bytearray([1, 0, 1]))
        assert kept._kinds == ["float", "int"]
        assert kept.row_list() == [(1.0, 1), (3.0, 3)]

    def test_emptied_typed_columns_accept_any_append(self):
        # Regression: take/head used to keep the empty array('d') buffer
        # while resetting the kind, so appending a non-numeric value crashed.
        store = ColumnStore.from_rows(2, [(1.0, 1), (2.0, 2)])
        for emptied in (store.select_mask(bytearray([0, 0])), store.head(0)):
            emptied.append(("hello", None))
            assert emptied.row_list() == [("hello", None)]
            assert emptied._kinds == ["object", "object"]

    def test_zero_width_rows_still_count(self):
        # A sharded store's length is the sum of its shards' lengths, so a
        # shard built from zero-width rows must count them.
        for cls in (ColumnStore, ShardedStore.configured(2)):
            store = cls.from_rows(0, [()] * 5)
            assert len(store) == 5

    def test_from_columns_equals_from_rows(self):
        columns = list(zip(*MIXED_ROWS))
        assert ColumnStore.from_columns(4, columns).row_list() == MIXED_ROWS

    def test_from_rows_keeps_each_value_once(self):
        # The input tuples are not cached beside the column buffers.
        store = ColumnStore.from_rows(4, MIXED_ROWS)
        assert store._row_cache is None  # noqa: SLF001 - layout assertion
        assert store.row_list() == MIXED_ROWS

    def test_registry_and_default(self):
        assert {"column", "sharded"} <= set(list_backends())
        assert "row" not in list_backends()
        assert backend_class("column") is ColumnStore
        assert backend_class("sharded") is ShardedStore
        with pytest.raises(ValueError):
            backend_class("no-such-backend")
        previous = configure(default_backend=None)  # the default, whatever the environment says
        assert current_config().default_backend == "column"
        assert type(make_store(3)) is ColumnStore
        assert Relation(RelationSchema("r", [Attribute("a")])).backend == "column"
        configure(default_backend="sharded")
        assert isinstance(make_store(3), ShardedStore)
        configure(previous)
        assert current_config() == previous

    def test_register_third_backend(self):
        class TaggedStore(ColumnStore):
            backend = "tagged"

        register_backend("tagged", TaggedStore)
        assert "tagged" in list_backends()
        rel = Relation(
            RelationSchema("r", [Attribute("a")]), [(1,), (2,)], backend="tagged"
        )
        assert rel.backend == "tagged"
        assert rel.select(lambda row: row[0] == 1).rows == ((1,),)

    def test_and_masks(self):
        assert and_masks(bytearray([1, 1, 0, 1]), bytearray([1, 0, 0, 1])) == bytearray(
            [1, 0, 0, 1]
        )
        assert and_masks(bytearray(), bytearray()) == bytearray()


# ---------------------------------------------------------------------------
# ShardedStore unit tests
# ---------------------------------------------------------------------------

class TestShardedStore:
    @pytest.mark.parametrize("build", ["from_rows", "from_columns"])
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_roundtrip_preserves_order_and_types(self, shards, build):
        cls = ShardedStore.configured(shards)
        if build == "from_rows":
            store = cls.from_rows(4, MIXED_ROWS)
        else:
            store = cls.from_columns(4, [[r[p] for r in MIXED_ROWS] for p in range(4)])
        assert len(store) == len(MIXED_ROWS)
        assert store.shard_count == len(store.shards) == shards
        # Contiguous ranges: the shards, one after another, are the rows in
        # order, in equal ranges of ceil(rows / shards) but the last.
        chunk = -(-len(MIXED_ROWS) // shards)
        sizes = [len(s) for s in store.shards]
        assert sizes == [max(0, min(chunk, len(MIXED_ROWS) - k * chunk)) for k in range(shards)]
        expected = [identity_key(r) for r in MIXED_ROWS]
        assert [identity_key(r) for s in store.shards for r in s.iter_rows()] == expected
        assert [identity_key(r) for r in store.row_list()] == expected
        assert [identity_key(r) for r in store.iter_rows()] == expected
        assert [identity_key(store.row(i)) for i in range(len(store))] == expected
        for p in range(4):
            got = [identity_key((v,)) for v in store.column(p)]
            assert got == [identity_key((r[p],)) for r in MIXED_ROWS]
        assert [identity_key(k) for k in store.key_tuples([1, 3])] == [
            identity_key((r[1], r[3])) for r in MIXED_ROWS
        ]

    @pytest.mark.parametrize(
        ("shards", "rows", "sizes"),
        [
            (1, 0, [0]),
            (1, 5, [5]),
            (3, 0, [0, 0, 0]),
            (3, 2, [1, 1, 0]),
            (3, 9, [3, 3, 3]),
            (3, 10, [4, 4, 2]),
            (4, 10, [3, 3, 3, 1]),
            (4, 6, [2, 2, 2, 0]),
            (7, 6, [1, 1, 1, 1, 1, 1, 0]),
        ],
    )
    def test_bounds_cut_contiguous_ranges(self, shards, rows, sizes):
        """``_bounds`` cuts ``rows`` into ranges of ceil(rows / shards) until
        the rows run out; both bulk builders cut exactly there, so the shards
        concatenate to the rows in order."""
        cls = ShardedStore.configured(shards)
        bounds = cls._bounds(rows)
        assert bounds[0] == 0 and bounds[-1] == rows and len(bounds) == shards + 1
        assert [hi - lo for lo, hi in zip(bounds, bounds[1:])] == sizes
        data = [(i, float(i)) for i in range(rows)]
        for store in (
            cls.from_rows(2, data),
            cls.from_columns(2, [[r[0] for r in data], [r[1] for r in data]]),
        ):
            assert [len(s) for s in store.shards] == sizes
            assert [r for s in store.shards for r in s.iter_rows()] == data
            assert len(store) == rows and store.row_list() == data

    @pytest.mark.parametrize("shards", [1, 3, 7])
    def test_derivations_preserve_global_order(self, shards):
        cls = ShardedStore.configured(shards)
        store = cls.from_rows(4, MIXED_ROWS)
        mask = bytearray([1, 0, 1, 0, 1, 0])
        kept = store.select_mask(mask)
        assert [identity_key(r) for r in kept.row_list()] == [
            identity_key(MIXED_ROWS[i]) for i in (0, 2, 4)
        ]
        taken = store.take([3, 1, 3])
        assert [identity_key(r) for r in taken.row_list()] == [
            identity_key(MIXED_ROWS[i]) for i in (3, 1, 3)
        ]
        assert [identity_key(r) for r in store.project([2, 0]).row_list()] == [
            identity_key((r[2], r[0])) for r in MIXED_ROWS
        ]
        assert [identity_key(r) for r in store.head(3).row_list()] == [
            identity_key(r) for r in MIXED_ROWS[:3]
        ]
        dup = store.copy()
        dup.append((9, "z", 0.0, 0.0))
        assert len(store) == len(MIXED_ROWS) and len(dup) == len(MIXED_ROWS) + 1

    @pytest.mark.parametrize("build", ["from_rows", "from_columns"])
    def test_appends_after_a_bulk_build_go_to_the_last_shard(self, build):
        """Appends after a bulk build land in the last shard and keep the
        global order (unhashable values included); every read after one sees
        it, and a copy's appends leave the original alone."""
        rows = [(i, float(i % 5)) for i in range(10)]
        added = [(10, 0.0), ([1], 2.0), ("a", {"k": 1})]
        cls = ShardedStore.configured(4)
        if build == "from_rows":
            store = cls.from_rows(2, rows)
        else:
            store = cls.from_columns(2, [[r[0] for r in rows], [r[1] for r in rows]])
        assert [len(s) for s in store.shards] == [3, 3, 3, 1]
        assert [store.row(index) for index in range(10)] == rows
        assert list(store.gather_column(0, [9, 0])) == [9, 0]  # builds the flat view
        for row in added:
            store.append(row)
        assert [len(s) for s in store.shards] == [3, 3, 3, 4]
        assert store.shards[-1].row_list() == rows[9:] + added
        assert store.row_list() == rows + added
        assert list(store.gather_column(0, [10, 0])) == [10, 0]  # the cached view was dropped
        dup = store.copy()
        dup.append((99, 0.0))
        assert not set(map(id, dup.shards)) & set(map(id, store.shards))
        assert store.row_list() == rows + added
        assert dup.row_list() == rows + added + [(99, 0.0)]
        # An empty store takes every append into its last shard.
        grown = ShardedStore.configured(3)(2)
        for row in rows:
            grown.append(row)
        assert [len(s) for s in grown.shards] == [0, 0, 10]
        assert grown.row_list() == rows

    @pytest.mark.parametrize(
        "layout", [name for name in list_backends() if issubclass(backend_class(name), ShardedStore)]
    )
    def test_derived_stores_and_fetch_frames_are_column_stores(self, layout, tiny_db):
        """Shards are for shipping: what a sharded store derives, and the
        frames a plan fetches from it, are plain column stores."""
        from repro import ConstraintSpec
        from repro.core.executor import PlanExecutor

        store = backend_class(layout).from_rows(4, MIXED_ROWS)
        derived = [
            store.select_mask(bytearray([1, 0, 1, 0, 1, 0])),
            store.take([3, 1, 3]),
            store.project([2, 0]),
            store.head(3),
            store.select_gather(_odd_ids)[1],
        ]
        assert [type(d) for d in derived] == [ColumnStore] * len(derived)
        assert type(store.copy()) is type(store)

        db = to_backend(tiny_db, layout)
        beas = Beas(db, constraints=[ConstraintSpec("emp", ("eid",), ("dept", "salary", "grade"), n=1)])
        frames = PlanExecutor(db, beas.plan("SELECT e.eid, e.salary FROM emp e WHERE e.dept = 2", 1.0)).fetch()
        assert frames and all(type(frame.store) is ColumnStore for frame in frames.values())

    def test_shards_are_column_stores(self):
        store = ShardedStore.from_rows(2, [(i, float(i)) for i in range(10)])
        assert all(isinstance(s, ColumnStore) for s in store.shards)
        # Per-shard typed buffers survive partitioning, and whole-column
        # reads concatenate them into one typed buffer.
        assert all(
            s._kinds == ["int", "float"] for s in store.shards if len(s)
        )  # noqa: SLF001 - layout assertion
        from array import array

        assert isinstance(store.column(0), array) and list(store.column(0)) == list(range(10))

    def test_eval_mask_matches_global_order(self):
        cls = ShardedStore.configured(3)
        store = cls.from_rows(2, [(i, float(i % 7)) for i in range(40)])
        mask = store.eval_mask(
            lambda part: bytearray(
                1 if row[1] > 3.0 else 0 for row in part.iter_rows()
            )
        )
        assert list(mask) == [1 if (i % 7) > 3 else 0 for i in range(40)]

    def test_shard_worker_configuration(self):
        configure(shard_workers=3)
        assert current_config().worker_count == 3
        inner = configure(shard_workers=None)
        assert inner.shard_workers == 3
        assert current_config().worker_count >= 1

    def test_configured_registration_and_validation(self):
        cls = ShardedStore.configured(2, name="test-sharded2")
        assert cls.backend == "test-sharded2"
        with pytest.raises(TypeError):
            # name is keyword-only: a stale positional second argument must
            # not silently become the backend's name.
            ShardedStore.configured(8, "range")
        with pytest.raises(ValueError):
            ShardedStore.configured(0)  # fails eagerly, not at first use
        many = ShardedStore.configured(300).from_rows(1, [(i,) for i in range(600)])
        assert len(many.shards) == 300 and many.row_list() == [(i,) for i in range(600)]
        register_backend("test-sharded2", cls)
        rel = Relation(
            RelationSchema("r", [Attribute("a")]), [(1,), (2,), (3,)],
            backend="test-sharded2",
        )
        assert rel.backend == "test-sharded2"
        assert rel.select(lambda row: row[0] >= 2).rows == ((2,), (3,))

    def test_nested_sharded_shards_do_not_deadlock(self):
        # A sharded store whose shards are themselves sharded: every level
        # runs its shards in the caller, so nesting cannot wait on itself.
        register_backend(
            "test-inner-sharded", ShardedStore.configured(2, name="test-inner-sharded")
        )
        outer = ShardedStore.configured(
            2, name="test-outer-sharded", shard_backend="test-inner-sharded"
        )
        store = outer.from_rows(2, [(i, float(i)) for i in range(10000)])
        mask = bytearray((1 if i % 2 == 0 else 0) for i in range(10000))
        kept = store.select_mask(mask)  # must not hang
        assert kept.row_list() == [(i, float(i)) for i in range(10000) if i % 2 == 0]

    def test_shard_views(self):
        flat = ColumnStore.from_rows(2, [(1, 2.0)])
        assert flat.shard_views() == (flat,)
        store = ShardedStore.from_rows(2, [(i, float(i)) for i in range(10)])
        views = store.shard_views()
        assert views == store.shards
        assert sum(len(v) for v in views) == 10

    def test_unregistered_store_class_runs_through_beas(self, social_workload):
        # Relations may adopt a store whose class was never registered
        # (ShardedStore.configured without register_backend); the executor's
        # fetch stage must not look the backend name up in the registry.
        from repro.relational.store import list_backends

        cls = ShardedStore.configured(3)  # auto-generated name
        assert cls.backend not in list_backends()
        db = Database.from_relations(
            [
                Relation(
                    social_workload.database.relation(name).schema,
                    store=cls.from_rows(
                        len(social_workload.database.relation(name).schema),
                        social_workload.database.relation(name).rows,
                    ),
                )
                for name in social_workload.database.relation_names
            ]
        )
        beas = Beas(
            db,
            constraints=social_workload.constraints,
            families=social_workload.families,
        )
        reference = _beas_for(social_workload, "column")
        sql = social.example_queries()[0]
        assert_identical(reference.answer(sql, 0.02).rows, beas.answer(sql, 0.02).rows)

    def test_empty_store_and_from_columns(self):
        cls = ShardedStore.configured(3)
        empty = cls(2)
        assert len(empty) == 0 and empty.row_list() == []
        assert empty.select_mask(bytearray()).row_list() == []
        by_columns = cls.from_columns(4, [list(c) for c in zip(*MIXED_ROWS)])
        assert [len(s) for s in by_columns.shards] == [2, 2, 2]
        assert [identity_key(r) for r in by_columns.row_list()] == [
            identity_key(r) for r in MIXED_ROWS
        ]


# ---------------------------------------------------------------------------
# Relation facade
# ---------------------------------------------------------------------------

class TestRelationFacade:
    def test_backend_choice_and_inheritance(self, schema):
        rel = Relation(schema, MIXED_ROWS, backend="column")
        assert rel.backend == "column"
        assert rel.project(["cat", "x"]).backend == "column"
        assert rel.select(lambda row: True).backend == "column"
        assert rel.distinct().backend == "column"
        assert rel.rename("u").backend == "column"
        assert rel.sorted().backend == "column"
        assert rel.with_backend("sharded").backend == "sharded"
        assert_identical(rel.with_backend("sharded"), rel)
        assert_identical(rel.with_backend("sharded").with_backend("column"), rel)

    def test_from_columns_mapping_and_sequence(self, schema):
        columns = {name: [r[i] for r in MIXED_ROWS] for i, name in enumerate(schema.attribute_names)}
        by_map = Relation.from_columns(schema, columns)
        by_seq = Relation.from_columns(schema, list(zip(*MIXED_ROWS)))
        assert by_map.backend == "column"
        assert_identical(by_map, by_seq)
        assert_identical(by_map, Relation(schema, MIXED_ROWS))

    def test_from_columns_validation(self, schema):
        with pytest.raises(SchemaError):
            Relation.from_columns(schema, {"id": [1]})  # missing columns
        with pytest.raises(SchemaError):
            Relation.from_columns(schema, [[1], [2]])  # wrong arity
        with pytest.raises(SchemaError):
            Relation.from_columns(
                schema, [[1], ["a"], [1.0], [2.0, 3.0]]
            )  # ragged lengths

    def test_rows_view_is_immutable(self, schema, backend):
        rel = Relation(schema, MIXED_ROWS, backend=backend)
        assert isinstance(rel.rows, tuple)

    def test_store_width_must_match_schema(self, schema):
        with pytest.raises(SchemaError):
            Relation(schema, store=ColumnStore.from_rows(2, [(1, 2)]))


# ---------------------------------------------------------------------------
# Vectorized predicates
# ---------------------------------------------------------------------------

PREDICATES = [
    Comparison(AttrRef(None, "x"), CompareOp.LE, Const(20)),
    Comparison(AttrRef(None, "x"), CompareOp.GT, Const(10.0)),
    Comparison(AttrRef(None, "cat"), CompareOp.EQ, Const("b")),
    Comparison(AttrRef(None, "cat"), CompareOp.NE, Const("a")),
    Comparison(AttrRef(None, "x"), CompareOp.EQ, Const(None)),
    Comparison(AttrRef(None, "x"), CompareOp.LT, Const(None)),
    Comparison(Const(25), CompareOp.GE, AttrRef(None, "x")),  # flipped operand
    Comparison(AttrRef(None, "x"), CompareOp.LE, AttrRef(None, "y")),  # attr/attr
]


class TestVectorizedPredicates:
    @pytest.mark.parametrize("comparison", PREDICATES, ids=str)
    def test_mask_matches_row_evaluation(self, schema, backend, comparison):
        rel = Relation(schema, MIXED_ROWS, backend=backend)
        normalized = comparison.normalized()

        def row_predicate(row):
            def value(operand):
                if isinstance(operand, Const):
                    return operand.value
                return row[schema.position(operand.attribute)]

            return comparison.op.evaluate(value(comparison.left), value(comparison.right))

        mask = comparison.mask(rel.store, schema)
        assert list(mask) == [1 if row_predicate(row) else 0 for row in rel]
        assert normalized.mask(rel.store, schema) == mask
        assert_identical(rel.select(comparison), rel.select(row_predicate))

    def test_conjunction_mask(self, schema, backend):
        rel = Relation(schema, MIXED_ROWS, backend=backend)
        conj = Conjunction.of(PREDICATES[:2])
        expected = and_masks(
            PREDICATES[0].mask(rel.store, schema), PREDICATES[1].mask(rel.store, schema)
        )
        assert conj.mask(rel.store, schema) == expected
        assert list(Conjunction.true().mask(rel.store, schema)) == [1] * len(rel)

    def test_mask_on_typed_buffer_handles_nan_and_type_mismatch(self):
        schema = RelationSchema("t", [Attribute("x", NUMERIC)])
        rel = Relation(schema, [(1.0,), (NAN,), (3.0,)], backend="column")
        le = Comparison(AttrRef(None, "x"), CompareOp.LE, Const(2.0))
        assert list(le.mask(rel.store, schema)) == [1, 0, 0]
        # Non-numeric constant against a typed buffer: everything fails,
        # exactly like per-row evaluate (TypeError absorbed pair by pair).
        weird = Comparison(AttrRef(None, "x"), CompareOp.LE, Const("zzz"))
        assert list(weird.mask(rel.store, schema)) == [0, 0, 0]


# ---------------------------------------------------------------------------
# Cross-backend conformance matrix
#
# The ``backend`` fixture is parametrized over list_backends() in
# conftest.py, so every identity below runs automatically on each registered
# backend (including ones registered after this test was written), with the
# column backend as the reference side.
# ---------------------------------------------------------------------------

_BEAS_CACHE = {}


def _beas_for(social_workload, backend: str) -> Beas:
    """One BEAS instance per backend over the shared social workload."""
    if backend not in _BEAS_CACHE:
        _BEAS_CACHE[backend] = Beas(
            to_backend(social_workload.database, backend),
            constraints=social_workload.constraints,
            families=social_workload.families,
        )
    return _BEAS_CACHE[backend]


class TestBackendConformanceMatrix:
    def test_matrix_covers_sharded_variants(self):
        # The matrix must include the column reference and the sharded
        # backend at 1, 4 (default) and 7 shards.
        names = set(list_backends())
        assert {"column", "sharded", "sharded1", "sharded7"} <= names
        assert backend_class("sharded").shard_count == 4
        assert backend_class("sharded1").shard_count == 1
        assert backend_class("sharded7").shard_count == 7

    def test_basic_operations(self, schema, backend):
        base = Relation(schema, MIXED_ROWS, backend="column")
        other = Relation(schema, MIXED_ROWS, backend=backend)
        assert_identical(base.project(["cat"]), other.project(["cat"]))
        assert_identical(
            base.project(["cat", "x"], distinct=False),
            other.project(["cat", "x"], distinct=False),
        )
        assert_identical(base.distinct(), other.distinct())
        assert_identical(base.sorted(), other.sorted())
        for comparison in PREDICATES:
            assert_identical(base.select(comparison), other.select(comparison))
        base_groups = base.group_by(["cat"])
        other_groups = other.group_by(["cat"])
        assert list(base_groups) == list(other_groups)
        for key in base_groups:
            assert [identity_key(r) for r in base_groups[key]] == [
                identity_key(r) for r in other_groups[key]
            ]

    def test_vectorized_masks_identical(self, schema, backend):
        base = Relation(schema, MIXED_ROWS, backend="column")
        other = Relation(schema, MIXED_ROWS, backend=backend)
        for comparison in PREDICATES:
            assert comparison.mask(other.store, schema) == comparison.mask(
                base.store, schema
            )
        conj = Conjunction.of(PREDICATES[:3])
        assert conj.mask(other.store, schema) == conj.mask(base.store, schema)

    def test_exact_evaluation_identical(self, social_db, backend):
        queries = social.example_queries()
        db_other = to_backend(social_db, backend)
        for sql in queries:
            node = parse_query(sql)
            assert_identical(
                evaluate_exact(node, social_db), evaluate_exact(node, db_other)
            )

    def test_relaxed_selection_and_join_identical(self, social_db, backend):
        db_other = to_backend(social_db, backend)
        sql = (
            "select h.price from poi as h, friend as f, person as p "
            "where f.pid = 3 and f.fid = p.pid and p.city = h.city "
            "and h.type = 'hotel' and h.price <= 120"
        )
        node = parse_query(sql)
        relaxation = {"h.price": 15.0, "p.city": 0.0, "h.city": 0.0}
        row_result = Evaluator(
            social_db.schema, DatabaseProvider(social_db), relaxation=relaxation
        ).evaluate(node)
        other_result = Evaluator(
            db_other.schema, DatabaseProvider(db_other), relaxation=relaxation
        ).evaluate(node)
        assert_identical(row_result, other_result)

    def test_full_beas_answer_identical(self, social_workload, backend):
        beas_column = _beas_for(social_workload, "column")
        beas_other = _beas_for(social_workload, backend)
        for sql in social.example_queries():
            for alpha in (0.005, 0.05):
                column_answer = beas_column.answer(sql, alpha)
                other_answer = beas_other.answer(sql, alpha)
                assert_identical(column_answer.rows, other_answer.rows)
                assert column_answer.eta == pytest.approx(other_answer.eta)
                assert column_answer.tuples_accessed == other_answer.tuples_accessed


# ---------------------------------------------------------------------------
# Gather/take primitive: cross-backend conformance
# ---------------------------------------------------------------------------

# Index patterns the gather contract must honour: out-of-order, duplicated,
# empty, reversed, and (on partitioned backends) shard-crossing stride reads.
GATHER_PATTERNS = [
    [],
    [0],
    [5, 2, 4, 0],
    [1, 1, 3, 1, 1],
    [5, 4, 3, 2, 1, 0],
    [0, 5, 1, 4, 2, 3, 0, 5],
    [2] * 7,
]


class TestGatherConformance:
    """``Store.take`` / ``Store.gather_column`` across every backend.

    Plain Python indexing of the input rows is the reference; every
    backend — including the sharded variants, whose gathers split per shard
    and stitch back — must return bit-identical values in the requested
    order.
    """

    def test_take_matches_list_reference(self, backend):
        store = backend_class(backend).from_rows(4, MIXED_ROWS)
        for indices in GATHER_PATTERNS:
            expected = [MIXED_ROWS[index] for index in indices]
            got = store.take(indices).row_list()
            assert [identity_key(r) for r in got] == [
                identity_key(r) for r in expected
            ], (backend, indices)
            # A gathered store stays fully functional (derives, appends).
            taken = store.take(indices)
            assert len(taken) == len(indices)
            taken.append((9, "z", 0.5, 7))
            assert len(taken) == len(indices) + 1

    def test_gather_column_matches_list_reference(self, backend):
        store = backend_class(backend).from_rows(4, MIXED_ROWS)
        for indices in GATHER_PATTERNS:
            for position in range(4):
                expected = [MIXED_ROWS[index][position] for index in indices]
                got = list(store.gather_column(position, indices))
                assert [identity_key((v,)) for v in got] == [
                    identity_key((v,)) for v in expected
                ], (backend, position, indices)

    def test_cross_shard_gather(self, backend):
        # Wide stride pattern over a larger store so that every shard of
        # every sharded variant contributes to (and interleaves within) one
        # gather call.
        rows = [(i, f"s{i % 5}", float(i) / 3.0, i * 7) for i in range(101)]
        store = backend_class(backend).from_rows(4, rows)
        indices = list(range(100, -1, -3)) + list(range(0, 101, 7)) + [50] * 5
        assert store.take(indices).row_list() == [rows[index] for index in indices]
        for position in range(4):
            assert list(store.gather_column(position, indices)) == [
                rows[index][position] for index in indices
            ]

    def test_gathered_relation_through_operators(self, schema, backend):
        # A gather result must behave like any store: run a selection and a
        # projection over it and compare against the column reference.
        indices = [4, 1, 3, 3, 0]
        base = Relation(schema, MIXED_ROWS, backend="column")
        other = Relation(schema, MIXED_ROWS, backend=backend)
        base_taken = Relation(schema, store=base.store.take(indices))
        other_taken = Relation(schema, store=other.store.take(indices))
        assert_identical(base_taken, other_taken)
        assert_identical(
            base_taken.project(["cat", "x"], distinct=False),
            other_taken.project(["cat", "x"], distinct=False),
        )
        for comparison in PREDICATES[:2]:
            assert_identical(base_taken.select(comparison), other_taken.select(comparison))


class TestGatherBuilders:
    """The gather-based output builders joins/products materialize through."""

    @pytest.mark.parametrize("backend_name", ["column", "sharded7"])
    def test_gather_pairs_equals_tuple_concatenation(self, backend_name):
        cls = backend_class(backend_name)
        left = cls.from_rows(4, MIXED_ROWS)
        right = cls.from_rows(4, list(reversed(MIXED_ROWS)))
        left_indices = [0, 0, 3, 5, 2]
        right_indices = [1, 4, 2, 0, 2]
        out = gather_pairs(left, left_indices, right, right_indices)
        expected = [
            MIXED_ROWS[i] + list(reversed(MIXED_ROWS))[j]
            for i, j in zip(left_indices, right_indices)
        ]
        assert [identity_key(r) for r in out.row_list()] == [
            identity_key(r) for r in expected
        ]
        assert out.width == 8
        assert isinstance(out, ColumnStore)  # every operator output is columnar
        # Empty pair lists build a valid empty store.
        empty = gather_pairs(left, [], right, [])
        assert len(empty) == 0 and empty.width == 8

    def test_gather_columns_reorders_and_mixes_sources(self):
        column = ColumnStore.from_rows(4, MIXED_ROWS)
        sharded = ShardedStore.configured(3).from_rows(4, MIXED_ROWS)
        out = gather_columns(
            [(column, 2, [0, 1, 2]), (sharded, 0, [2, 1, 0]), (column, 1, [3, 3, 3])]
        )
        assert out.width == 3
        assert [identity_key(r) for r in out.row_list()] == [
            identity_key(r)
            for r in [
                (MIXED_ROWS[0][2], MIXED_ROWS[2][0], MIXED_ROWS[3][1]),
                (MIXED_ROWS[1][2], MIXED_ROWS[1][0], MIXED_ROWS[3][1]),
                (MIXED_ROWS[2][2], MIXED_ROWS[0][0], MIXED_ROWS[3][1]),
            ]
        ]

    @pytest.mark.parametrize("backend_name", ["column", "sharded"])
    def test_vstack_gather_stacks_parts_in_order(self, backend_name):
        cls = backend_class(backend_name)
        first = cls.from_rows(4, MIXED_ROWS)
        second = cls.from_rows(4, list(reversed(MIXED_ROWS)))
        out = vstack_gather([(first, [5, 0]), (second, [1]), (first, [])])
        expected = [MIXED_ROWS[5], MIXED_ROWS[0], list(reversed(MIXED_ROWS))[1]]
        assert [identity_key(r) for r in out.row_list()] == [
            identity_key(r) for r in expected
        ]

    def test_vstack_gather_keeps_typed_buffers(self):
        from array import array

        first = ColumnStore.from_rows(2, [(1.0, 1), (2.0, 2)])
        second = ColumnStore.from_rows(2, [(3.0, 3)])
        out = vstack_gather([(first, [1, 0]), (second, [0])])
        assert isinstance(out, ColumnStore)
        assert isinstance(out.column(0), array) and out.column(0).typecode == "d"
        assert isinstance(out.column(1), array) and out.column(1).typecode == "q"
        assert out.row_list() == [(2.0, 2), (1.0, 1), (3.0, 3)]

    def test_sharded_gather_keeps_typed_buffers(self):
        from array import array

        cls = ShardedStore.configured(4)
        store = cls.from_rows(2, [(float(i), i) for i in range(40)])
        indices = [37, 2, 2, 19, 0, 31]
        floats = store.gather_column(0, indices)
        ints = store.gather_column(1, indices)
        assert isinstance(floats, array) and floats.typecode == "d"
        assert isinstance(ints, array) and ints.typecode == "q"
        assert list(floats) == [37.0, 2.0, 2.0, 19.0, 0.0, 31.0]
        assert list(ints) == [37, 2, 2, 19, 0, 31]
        # Join-shaped gather output of two sharded inputs keeps typed kinds.
        out = gather_pairs(store, indices, store, list(reversed(indices)))
        assert isinstance(out, ColumnStore)
        assert out._kinds == ["float", "int", "float", "int"]  # noqa: SLF001
        # Mixed-kind shards (one shard demoted to object) fall back to lists
        # without losing any value's type.
        mixed = cls.from_rows(1, [(i,) for i in range(10)] + [("s",)])
        gathered = mixed.gather_column(0, [10, 3, 0])
        assert list(gathered) == ["s", 3, 0]

    @pytest.mark.parametrize("shards", [1, 4, 7])
    def test_sharded_gathers_give_the_column_twins_buffers(self, shards):
        """gather_pairs / gather_columns over a sharded input build the very
        buffers (typecode and values) they build over its column twin."""
        from array import array

        def buffers(store):
            return [
                (col.typecode if isinstance(col, array) else None, [identity_key((v,)) for v in col])
                for col in store.columns()
            ]

        rows = [tuple(float(i * j) if j % 2 else f"s{i}-{j}" for j in range(6)) + (i,) for i in range(60)]
        rows[2] = rows[2][:1] + (None,) + rows[2][2:]  # demotes one float column to objects
        rows[7] = rows[7][:3] + (NAN,) + rows[7][4:]
        cls = ShardedStore.configured(shards)
        left, right = cls.from_rows(7, rows), cls.from_rows(7, rows[::-1])
        twins = ColumnStore.from_rows(7, rows), ColumnStore.from_rows(7, rows[::-1])
        for left_indices, right_indices in (
            ([59, 0, 0, 17, 42, 3], [1, 1, 58, 30, 7, 7]),
            ([2, 5], [0, 9]),
            ([], []),
        ):
            out = gather_pairs(left, left_indices, right, right_indices)
            expected = gather_pairs(twins[0], left_indices, twins[1], right_indices)
            assert buffers(out) == buffers(expected)
            sources = [(left, 6, left_indices), (right, 1, right_indices), (left, 0, right_indices)]
            twin_sources = [(twins[0], 6, left_indices), (twins[1], 1, right_indices), (twins[0], 0, right_indices)]
            assert buffers(gather_columns(sources)) == buffers(gather_columns(twin_sources))
        assert buffers(out) == [(None, [])] * 14
