"""Property-based partitioning invariants for the sharded backend (hypothesis).

Two families of invariants:

* **Partition → concatenate round trips**: splitting rows across shards and
  reading them back (``row_list`` / ``column`` / ``key_tuples``) preserves
  row order, multiplicity, values and value types — for every partitioner
  and shard count, including ``None``, NaN, mixed int/float columns, bools
  and ints beyond 64 bits.
* **Sharded search equals unsharded search**: a KD-tree over a sharded
  relation and the distance kernels built over a sharded store
  (:meth:`RadiusMatcher.from_store
  <repro.relational.kernels.RadiusMatcher.from_store>`,
  :meth:`NearestNeighbors.from_store
  <repro.relational.kernels.NearestNeighbors.from_store>`) answer exactly
  like the same tree or kernels over an unsharded store and the naive
  nested loops.

Separate from ``test_store.py`` so the matrix tests there still run in
environments without the optional ``hypothesis`` extra.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")  # optional [test] extra

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Relation
from repro.relational.distance import NUMERIC, TRIVIAL
from repro.relational.kdtree import KDTree
from repro.relational.kernels import (
    NearestNeighbors,
    RadiusMatcher,
    naive_min_distance,
    naive_radius_matches,
)
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.store import ColumnStore, RowStore, ShardedStore

from conftest import identity_key

CATS = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
NUMBERS = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.integers(-(10**20), 10**20),
    st.floats(allow_infinity=False, allow_nan=True),
    st.booleans(),
)
ROWS = st.lists(st.tuples(st.integers(0, 5), CATS, NUMBERS, NUMBERS), max_size=40)
PARTITIONERS = st.sampled_from(["hash", "round_robin", "range"])
SHARD_COUNTS = st.integers(1, 7)

POINT_ROWS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.one_of(st.none(), st.floats(-50, 50), st.floats(allow_nan=True, allow_infinity=False), st.integers(-50, 50)),
        st.one_of(st.none(), st.floats(-50, 50), st.integers(-50, 50)),
    ),
    max_size=40,
)

SEARCH_SCHEMA = RelationSchema(
    "pts", [Attribute("id", TRIVIAL), Attribute("x", NUMERIC), Attribute("y", NUMERIC)]
)


def _sharded(rows, shards, partitioner):
    cls = ShardedStore.configured(shards, partitioner)
    return cls.from_rows(4, rows)


@settings(max_examples=80, deadline=None)
@given(rows=ROWS, shards=SHARD_COUNTS, partitioner=PARTITIONERS)
def test_partition_concatenate_round_trip(rows, shards, partitioner):
    """Splitting across shards and reading back preserves order and types."""
    reference = RowStore.from_rows(4, rows)
    store = _sharded(rows, shards, partitioner)
    assert len(store) == len(rows)
    expected = [identity_key(r) for r in reference.row_list()]
    assert [identity_key(r) for r in store.row_list()] == expected
    assert [identity_key(r) for r in store.iter_rows()] == expected
    for position in range(4):
        assert [identity_key((v,)) for v in store.column(position)] == [
            identity_key((v,)) for v in reference.column(position)
        ]
    assert [identity_key(k) for k in store.key_tuples([2, 0])] == [
        identity_key(k) for k in reference.key_tuples([2, 0])
    ]
    # Multiplicity: the shards partition the multiset of rows exactly.
    shard_union = sorted(
        identity_key(r) for shard in store.shards for r in shard.iter_rows()
    )
    assert shard_union == sorted(expected)


@settings(max_examples=60, deadline=None)
@given(
    rows=ROWS,
    shards=SHARD_COUNTS,
    partitioner=PARTITIONERS,
    mask_seed=st.integers(0, 2**30),
)
def test_selection_round_trip_preserves_order(rows, shards, partitioner, mask_seed):
    """select_mask / take / head keep the filtered global order on every shard layout."""
    import random

    rng = random.Random(mask_seed)
    mask = bytearray(rng.randrange(2) for _ in rows)
    reference = RowStore.from_rows(4, rows)
    store = _sharded(rows, shards, partitioner)
    assert [identity_key(r) for r in store.select_mask(mask).row_list()] == [
        identity_key(r) for r in reference.select_mask(mask).row_list()
    ]
    if rows:
        indices = [rng.randrange(len(rows)) for _ in range(min(10, len(rows)))]
        assert [identity_key(r) for r in store.take(indices).row_list()] == [
            identity_key(r) for r in reference.take(indices).row_list()
        ]
    head = rng.randrange(len(rows) + 2)
    assert [identity_key(r) for r in store.head(head).row_list()] == [
        identity_key(r) for r in reference.head(head).row_list()
    ]


@settings(max_examples=50, deadline=None)
@given(
    rows=POINT_ROWS,
    query=st.tuples(st.integers(0, 3), st.floats(-60, 60), st.floats(-60, 60)),
    radii=st.tuples(st.floats(0, 2), st.floats(0, 30), st.floats(0, 30)),
    shards=SHARD_COUNTS,
    partitioner=PARTITIONERS,
)
def test_sharded_tree_radius_and_nearest_equal_single_tree(rows, query, radii, shards, partitioner):
    """A KD-tree over a sharded relation == one tree over a row store (and == naive)."""
    single = Relation(SEARCH_SCHEMA, rows, backend="row")
    cls = ShardedStore.configured(shards, partitioner)
    sharded = Relation(SEARCH_SCHEMA, store=cls.from_rows(3, [tuple(r) for r in rows]))

    tree = KDTree(single, max_leaf_size=2)
    sharded_tree = KDTree(sharded, max_leaf_size=2)

    assert sorted(sharded_tree.within_radius_indices(query, list(radii))) == sorted(
        tree.within_radius_indices(query, list(radii))
    )
    merged = sorted(identity_key(r) for r in sharded_tree.within_radius(query, list(radii)))
    alone = sorted(identity_key(r) for r in tree.within_radius(query, list(radii)))
    assert merged == alone

    assert sharded_tree.nearest_distance(query) == tree.nearest_distance(query)
    distances = [a.distance for a in SEARCH_SCHEMA.attributes]
    assert sharded_tree.nearest_distance(query) == naive_min_distance(query, rows, distances)


@settings(max_examples=50, deadline=None)
@given(
    rows=POINT_ROWS,
    query=st.tuples(st.integers(0, 3), st.floats(-60, 60), st.floats(-60, 60)),
    slack=st.floats(0, 10),
    shards=SHARD_COUNTS,
    partitioner=PARTITIONERS,
)
def test_sharded_kernels_equal_naive(rows, query, slack, shards, partitioner):
    """Sharded matcher/NN answers == the unsharded kernels == the nested loops."""
    positions = [0, 1]
    distances = [TRIVIAL, NUMERIC]
    thresholds = [0.0, slack]
    cls = ShardedStore.configured(shards, partitioner)
    store = cls.from_rows(3, [tuple(r) for r in rows])
    column = ColumnStore.from_rows(3, [tuple(r) for r in rows])

    matcher = RadiusMatcher.from_store(store, positions, distances, thresholds)
    unsharded = RadiusMatcher.from_store(column, positions, distances, thresholds)
    assert len(matcher) == len(rows)
    expected = naive_radius_matches(query, rows, positions, distances, thresholds)
    assert matcher.matches(query) == unsharded.matches(query) == expected
    assert matcher.any_match(query) == unsharded.any_match(query) == bool(expected)

    neighbors = NearestNeighbors.from_store(store, SEARCH_SCHEMA.attributes)
    assert len(neighbors) == len(rows)
    all_distances = [a.distance for a in SEARCH_SCHEMA.attributes]
    expected_min = naive_min_distance(query, rows, all_distances)
    assert neighbors.min_distance(query) == expected_min
    assert NearestNeighbors.from_store(column, SEARCH_SCHEMA.attributes).min_distance(query) == expected_min
