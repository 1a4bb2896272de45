"""Unit and property-based tests for the KD-tree used by access-template indexes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.distance import CATEGORICAL, NUMERIC
from repro.relational.kdtree import KDTree
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema


def make_relation(rows):
    schema = RelationSchema(
        "pts", [Attribute("x", NUMERIC), Attribute("y", NUMERIC), Attribute("tag", CATEGORICAL)]
    )
    return Relation(schema, rows)


@pytest.fixture()
def tree():
    rng = random.Random(3)
    rows = [(rng.uniform(0, 100), rng.uniform(0, 10), f"t{i % 4}") for i in range(128)]
    return KDTree(make_relation(rows))


class TestConstruction:
    def test_empty_relation(self):
        tree = KDTree(make_relation([]))
        assert tree.root is None
        assert tree.level_nodes(3) == []
        assert tree.height == -1
        assert tree.node_count() == 0

    def test_single_row(self):
        tree = KDTree(make_relation([(1.0, 2.0, "a")]))
        assert tree.height == 0
        assert tree.exact_level() == 0
        assert tree.representatives(0) == [((1.0, 2.0, "a"), 1)]

    def test_constant_rows_do_not_split(self):
        tree = KDTree(make_relation([(1.0, 2.0, "a")] * 10))
        assert tree.root.is_leaf
        assert tree.representatives(5) == [((1.0, 2.0, "a"), 10)]


class TestLevels:
    def test_level_zero_is_single_representative(self, tree):
        reps = tree.representatives(0)
        assert len(reps) == 1
        assert reps[0][1] == 128

    def test_level_sizes_bounded_by_powers_of_two(self, tree):
        for level in range(0, 8):
            assert len(tree.level_nodes(level)) <= 2**level

    def test_levels_partition_rows(self, tree):
        for level in (0, 2, 4, 6):
            total = sum(count for _, count in tree.representatives(level))
            assert total == 128

    def test_exact_level_has_singleton_nodes(self, tree):
        level = tree.exact_level()
        assert all(node.size == 1 for node in tree.level_nodes(level))

    def test_node_count_bounded(self, tree):
        # A binary tree over n rows has at most 2n - 1 nodes.
        assert tree.node_count() <= 2 * 128 - 1


class TestResolution:
    def test_resolution_monotone_in_level(self, tree):
        previous = None
        for level in range(0, tree.exact_level() + 1, 2):
            resolution = tree.resolution(level)
            worst = max(resolution.values())
            if previous is not None:
                assert worst <= previous + 1e-9
            previous = worst

    def test_resolution_zero_at_exact_level(self, tree):
        resolution = tree.resolution(tree.exact_level())
        assert max(resolution.values()) == 0.0

    def test_resolution_covers_all_rows(self, tree):
        """Every tuple is within the level resolution of its node representative."""
        for level in (1, 3, 5):
            resolution = tree.resolution(level)
            for node in tree.level_nodes(level):
                rep = node.representative
                for row in node.rows:
                    for position, attribute in enumerate(tree.schema.attributes):
                        d = attribute.distance(rep[position], row[position])
                        assert d <= resolution[attribute.name] + 1e-9


class TestSearch:
    def test_within_radius_empty_tree(self):
        tree = KDTree(make_relation([]))
        assert tree.within_radius((1.0, 2.0, "a"), [1.0, 1.0, 1.0]) == []
        assert tree.nearest_distance((1.0, 2.0, "a")) == float("inf")

    def test_within_radius_includes_boundary(self, tree):
        """A row exactly at the radius on every attribute is a match."""
        anchor = tree.relation.rows[0]
        matches = tree.within_radius(anchor, [0.0, 0.0, 0.0])
        assert anchor in matches
        for row in matches:
            assert row[0] == anchor[0] and row[1] == anchor[1] and row[2] == anchor[2]

    def test_within_radius_matches_linear_scan(self, tree):
        radii = [5.0, 1.0, 0.5]
        query = (50.0, 5.0, "t1")
        expected = [
            row
            for row in tree.relation.rows
            if all(
                attribute.distance(q, v) <= r
                for q, v, attribute, r in zip(query, row, tree.schema.attributes, radii)
            )
        ]
        assert sorted(tree.within_radius(query, radii)) == sorted(expected)

    def test_nearest_distance_matches_linear_scan(self, tree):
        distances = [a.distance for a in tree.schema.attributes]
        for query in [(0.0, 0.0, "t0"), (55.5, 3.3, "t2"), (200.0, -5.0, "zzz")]:
            expected = min(
                max(d(q, v) for q, v, d in zip(query, row, distances))
                for row in tree.relation.rows
            )
            assert tree.nearest_distance(query) == expected

    def test_nearest_distance_zero_on_member(self, tree):
        assert tree.nearest_distance(tree.relation.rows[17]) == 0.0


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(0, 1000, allow_nan=False),
            st.floats(0, 50, allow_nan=False),
            st.sampled_from(["a", "b", "c"]),
        ),
        min_size=1,
        max_size=80,
    ),
    level=st.integers(0, 8),
)
def test_property_level_frontier_covers_relation(rows, level):
    """Access-template invariant: at every level, every tuple is represented
    within the computed resolution, and the frontier has at most 2^level nodes."""
    tree = KDTree(make_relation(rows))
    frontier = tree.level_nodes(level)
    assert len(frontier) <= 2**level or len(frontier) == 0
    resolution = tree.resolution(level)
    covered = 0
    for node in frontier:
        rep = node.representative
        for row in node.rows:
            covered += 1
            for position, attribute in enumerate(tree.schema.attributes):
                assert attribute.distance(rep[position], row[position]) <= resolution[attribute.name] + 1e-9
    assert covered == len(rows)


class TestIndexQueries:
    """Index-returning search variants (consumed by the distance kernels)."""

    def test_within_radius_indices_match_rows(self, tree):
        rng = random.Random(11)
        master = tree.relation.store.row_list()
        for _ in range(20):
            query = (rng.uniform(0, 100), rng.uniform(0, 10), f"t{rng.randrange(4)}")
            radii = [rng.uniform(0, 20), rng.uniform(0, 3), 0.5]
            indices = tree.within_radius_indices(query, radii)
            # Same traversal: the row view is exactly the gathered indices.
            assert tree.within_radius(query, radii) == [master[i] for i in indices]
            # Indices are storage-order positions and hold the predicate.
            distances = [a.distance for a in tree.schema.attributes]
            expected = [
                i
                for i, row in enumerate(master)
                if all(d(q, v) <= r for q, v, d, r in zip(query, row, distances, radii))
            ]
            assert sorted(indices) == expected

    def test_within_radius_indices_empty_tree(self):
        tree = KDTree(make_relation([]))
        assert tree.within_radius_indices((0.0, 0.0, "t0"), [1.0, 1.0, 1.0]) == []

    def test_sharded_tree_indices_are_global(self):
        """A tree over a sharded relation answers in global row positions,
        exactly like a tree over the same rows in one store."""
        rng = random.Random(5)
        rows = [(rng.uniform(0, 50), rng.uniform(0, 10), f"t{i % 3}") for i in range(90)]
        schema = make_relation([]).schema
        sharded = KDTree(Relation(schema, rows, backend="sharded"), max_leaf_size=2)
        reference = KDTree(Relation(schema, rows), max_leaf_size=2)
        for _ in range(10):
            query = (rng.uniform(0, 50), rng.uniform(0, 10), f"t{rng.randrange(3)}")
            radii = [rng.uniform(0, 10), rng.uniform(0, 2), 0.5]
            assert sorted(sharded.within_radius_indices(query, radii)) == sorted(
                reference.within_radius_indices(query, radii)
            )
