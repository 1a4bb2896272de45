"""Property-based partitioning invariants for the sharded backend (hypothesis).

Two families of invariants:

* **Partition → concatenate round trips**: cutting rows into contiguous
  shard ranges (bulk, then appends) and reading them back (``row_list`` /
  ``column`` / ``key_tuples``) preserves row order, multiplicity, values and
  value types — for every shard count, including ``None``, NaN, mixed
  int/float columns, bools and ints beyond 64 bits.
* **Sharded search equals unsharded search**: the distance kernels built
  over a sharded store (:meth:`RadiusMatcher.from_store
  <repro.relational.kernels.RadiusMatcher.from_store>`,
  :meth:`NearestNeighbors.from_store
  <repro.relational.kernels.NearestNeighbors.from_store>`) answer exactly
  like the same kernels over an unsharded store and the naive nested loops.

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
from repro.relational.kernels import (
    NearestNeighbors,
    RadiusMatcher,
    naive_min_distance,
)
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.store import ColumnStore, ShardedStore

from conftest import identity_key
from eval_oracle import naive_radius_matches

CATS = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
NUMBERS = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.integers(-(10**20), 10**20),
    st.floats(allow_infinity=False, allow_nan=True),
    st.booleans(),
)
ROWS = st.lists(st.tuples(st.integers(0, 5), CATS, NUMBERS, NUMBERS), max_size=40)
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


def _sharded(rows, shards, appends=0):
    """The last ``appends`` rows appended one by one after a bulk build of the rest."""
    bulk = len(rows) - min(appends, len(rows))
    store = ShardedStore.configured(shards).from_rows(4, rows[:bulk])
    for row in rows[bulk:]:
        store.append(row)
    return store


@settings(max_examples=80, deadline=None)
@given(rows=ROWS, shards=SHARD_COUNTS, appends=st.integers(0, 10))
def test_partition_concatenate_round_trip(rows, shards, appends):
    """Splitting across shards and reading back preserves order and types."""
    store = _sharded(rows, shards, appends)
    assert len(store) == len(rows)
    expected = [identity_key(r) for r in rows]
    assert [identity_key(r) for r in store.row_list()] == expected
    assert [identity_key(r) for r in store.iter_rows()] == expected
    for position in range(4):
        assert [identity_key((v,)) for v in store.column(position)] == [
            identity_key((row[position],)) for row in rows
        ]
    assert [identity_key(k) for k in store.key_tuples([2, 0])] == [
        identity_key((row[2], row[0])) for row in rows
    ]
    # Contiguity: the shards, one after another, are the rows in order; the
    # bulk-built rows sit in equal ranges and the appended ones in the last.
    shard_concat = [identity_key(r) for shard in store.shards for r in shard.iter_rows()]
    assert shard_concat == expected
    bulk = len(rows) - min(appends, len(rows))
    chunk = max(1, -(-bulk // shards))
    sizes = [len(shard) for shard in store.shards]
    assert sizes[:-1] == [max(0, min(chunk, bulk - k * chunk)) for k in range(shards - 1)]
    assert sizes[-1] == len(rows) - sum(sizes[:-1])


@settings(max_examples=60, deadline=None)
@given(
    rows=ROWS,
    shards=SHARD_COUNTS,
    mask_seed=st.integers(0, 2**30),
)
def test_selection_round_trip_preserves_order(rows, shards, mask_seed):
    """select_mask / take / head keep the filtered global order on every shard layout."""
    import random

    rng = random.Random(mask_seed)
    mask = bytearray(rng.randrange(2) for _ in rows)
    store = _sharded(rows, shards)
    assert [identity_key(r) for r in store.select_mask(mask).row_list()] == [
        identity_key(r) for r, keep in zip(rows, mask) if keep
    ]
    if rows:
        indices = [rng.randrange(len(rows)) for _ in range(min(10, len(rows)))]
        assert [identity_key(r) for r in store.take(indices).row_list()] == [
            identity_key(rows[index]) for index in indices
        ]
    head = rng.randrange(len(rows) + 2)
    assert [identity_key(r) for r in store.head(head).row_list()] == [
        identity_key(r) for r in rows[:head]
    ]


@settings(max_examples=50, deadline=None)
@given(
    rows=POINT_ROWS,
    query=st.tuples(st.integers(0, 3), st.floats(-60, 60), st.floats(-60, 60)),
    radii=st.tuples(st.floats(0, 2), st.floats(0, 30), st.floats(0, 30)),
    shards=SHARD_COUNTS,
)
def test_sharded_band_radius_and_nearest_equal_single_store(rows, query, radii, shards):
    """Both kernels over a sharded store == over a column store (and == naive):
    answers are global row positions whatever the shard layout."""
    column = Relation(SEARCH_SCHEMA, rows, backend="column").store
    cls = ShardedStore.configured(shards)
    sharded = cls.from_rows(3, [tuple(r) for r in rows])
    positions = [0, 1, 2]
    distances = [a.distance for a in SEARCH_SCHEMA.attributes]
    radii = list(radii)

    expected = naive_radius_matches(query, rows, positions, distances, radii)
    for store in (sharded, column):
        matcher = RadiusMatcher.from_store(store, positions, distances, radii)
        assert matcher.matches(query) == expected
        assert matcher.any_match(query) == bool(expected)

    expected_min = naive_min_distance(query, rows, distances)
    for store in (sharded, column):
        neighbors = NearestNeighbors.from_store(store, SEARCH_SCHEMA.attributes)
        assert neighbors.min_distance(query) == expected_min


@settings(max_examples=50, deadline=None)
@given(
    rows=POINT_ROWS,
    query=st.tuples(st.integers(0, 3), st.floats(-60, 60), st.floats(-60, 60)),
    slack=st.floats(0, 10),
    shards=SHARD_COUNTS,
)
def test_sharded_kernels_equal_naive(rows, query, slack, shards):
    """Sharded matcher/NN answers == the unsharded kernels == the nested loops."""
    positions = [0, 1]
    distances = [TRIVIAL, NUMERIC]
    thresholds = [0.0, slack]
    cls = ShardedStore.configured(shards)
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
