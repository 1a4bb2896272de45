"""Unit and property-based tests for the K-D levels of the flat template index.

The distance kernels' search is tested in ``test_kernels.py``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.index import TemplateIndex
from repro.relational.distance import CATEGORICAL, NUMERIC
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema


def make_relation(rows):
    schema = RelationSchema(
        "pts", [Attribute("x", NUMERIC), Attribute("y", NUMERIC), Attribute("tag", CATEGORICAL)]
    )
    return Relation(schema, rows)


@pytest.fixture()
def points():
    rng = random.Random(3)
    return make_relation([(rng.uniform(0, 100), rng.uniform(0, 10), f"t{i % 4}") for i in range(128)])


def flat_index(relation):
    """The canonical template family over ``relation``: one tree, ``X = ∅``."""
    return TemplateIndex(relation, (), relation.schema.attribute_names)


def frontier(index, level):
    return index.frontier(index._groups[()], level)


def node_rows(index, relation, node):
    return [relation.rows[row] for row in index._perm[index._start[node] : index._end[node]]]


@pytest.fixture()
def index(points):
    return flat_index(points)


class TestConstruction:
    def test_empty_relation(self):
        index = flat_index(make_relation([]))
        assert index.keys() == [] and index.fetch((), 3) == []
        assert index.max_level == 0
        assert index.entry_count == 0

    def test_single_row(self):
        index = flat_index(make_relation([(1.0, 2.0, "a")]))
        assert index.max_level == 0
        assert index.fetch((), 0) == [((1.0, 2.0, "a"), 1.0)]

    def test_constant_rows_do_not_split(self):
        index = flat_index(make_relation([(1.0, 2.0, "a")] * 10))
        assert index.entry_count == 1
        assert index.fetch((), 5) == [((1.0, 2.0, "a"), 10.0)]


class TestLevels:
    def test_level_zero_is_single_representative(self, index):
        reps = index.fetch((), 0)
        assert len(reps) == 1
        assert reps[0][1] == 128

    def test_level_sizes_bounded_by_powers_of_two(self, index):
        for level in range(0, 8):
            assert len(frontier(index, level)) <= 2**level

    def test_levels_partition_rows(self, index):
        for level in (0, 2, 4, 6):
            total = sum(count for _, count in index.fetch((), level))
            assert total == 128

    def test_exact_level_has_singleton_nodes(self, index):
        assert all(count == 1 for _, count in index.fetch((), index.max_level))

    def test_node_count_bounded(self, index):
        # A binary tree over n rows has at most 2n - 1 nodes.
        assert index.entry_count <= 2 * 128 - 1


class TestResolution:
    def test_resolution_monotone_in_level(self, index):
        previous = None
        for level in range(0, index.max_level + 1, 2):
            resolution = index.resolution(level)
            worst = max(resolution.values())
            if previous is not None:
                assert worst <= previous + 1e-9
            previous = worst

    def test_resolution_zero_at_exact_level(self, index):
        resolution = index.resolution(index.max_level)
        assert max(resolution.values()) == 0.0

    def test_resolution_covers_all_rows(self, index, points):
        """Every tuple is within the level resolution of its node representative."""
        for level in (1, 3, 5):
            resolution = index.resolution(level)
            for node in frontier(index, level):
                rep = points.rows[index._rep[node]]
                for row in node_rows(index, points, node):
                    for position, attribute in enumerate(points.schema.attributes):
                        d = attribute.distance(rep[position], row[position])
                        assert d <= resolution[attribute.name] + 1e-9


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
    relation = make_relation(rows)
    index = flat_index(relation)
    nodes = frontier(index, level)
    assert len(nodes) <= 2**level or len(nodes) == 0
    resolution = index.resolution(level)
    covered = 0
    for node in nodes:
        rep = relation.rows[index._rep[node]]
        for row in node_rows(index, relation, node):
            covered += 1
            for position, attribute in enumerate(relation.schema.attributes):
                assert attribute.distance(rep[position], row[position]) <= resolution[attribute.name] + 1e-9
    assert covered == len(rows)
