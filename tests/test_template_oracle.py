"""The flat template index under ``src/`` against the per-group trees of ``template_oracle.py``.

``TemplateIndex`` builds every tree of a family by partitioning one
permutation in place and reads its resolutions off per-node summaries; the
oracle builds a ``Relation`` and a tree of node objects per ``X``-value and
scans every level tuple by tuple.  They must agree exactly, in order: the
levels, ``repr`` of every level's resolutions, every group's frontier (values
of the same types, the same counts), the entry count, and every fetch — on
the four workloads at smoke size (each on the backend the benchmark gives
it) and on generated relations with ties, ``None``, NaN, mixed
int/float/bool values and every kind of distance.
"""

from __future__ import annotations

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import AccessSchemaBuilder, TemplateIndex
from repro.access.builder import FamilySpec
from repro.experiments import build_beas
from repro.relational.database import Database
from repro.relational.distance import (
    CATEGORICAL,
    DistanceFunction,
    NUMERIC,
    STRING_PREFIX,
    TRIVIAL,
    numeric_scaled,
)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.workloads import airca, social, tfacc, tpch

from template_oracle import OracleTemplateIndex, check_conformance

MISSING = ("no such X-value",)


def _squared(x, y):
    return (float(x) - float(y)) ** 2


def _repr_length(x, y):
    return float(abs(len(repr(x)) - len(repr(y))))


SQUARED = DistanceFunction("squared", _squared, numeric=True)
REPR_LENGTH = DistanceFunction("repr-length", _repr_length)


def typed(values):
    return [(type(value).__name__, repr(value)) for value in values]


def fetched_rows(rows):
    return [(typed(row), repr(count)) for row, count in rows]


def fetched_columns(fetched):
    columns, counts = fetched
    return [(type(c).__name__, getattr(c, "typecode", None), typed(c)) for c in columns], repr(counts)


def assert_same_index(index, oracle, where):
    assert index.max_level == oracle.max_level, where
    assert repr(index.keys()) == repr(oracle.keys()), where
    assert index.entry_count == oracle.entry_count, where
    for level in index.levels():
        assert repr(index.resolution(level)) == repr(oracle.resolution(level)), f"{where} at level {level}"
    # Each side is asked with its own key objects: a NaN X-value finds only itself.
    keys, oracle_keys = index.keys() + [MISSING], oracle.keys() + [MISSING]
    for level in index.levels() + [index.max_level + 2, -1]:
        for key, oracle_key in zip(keys, oracle_keys):
            assert fetched_rows(index.fetch(key, level)) == fetched_rows(oracle.fetch(oracle_key, level)), (
                f"{where}: {key!r} at level {level}"
            )
        assert fetched_columns(index.fetch_columns(keys, level)) == fetched_columns(
            oracle.fetch_columns(oracle_keys, level)
        ), f"{where} at level {level}"


SMOKE = {
    "tpch": (lambda: tpch.generate(scale=1, seed=5), "column"),
    "airca": (lambda: airca.generate(flights=800, airports=30, seed=5), "column"),
    "tfacc": (lambda: tfacc.generate(accidents=500, stops=200, seed=5), "sharded"),
    "social": (lambda: social.generate(persons=150, pois=600, cities=10, max_friends=5, seed=5), "mmap"),
}


def smoke_families(name):
    """A smoke workload's database, on the backend the benchmark gives it, and its declared families."""
    generate, backend = SMOKE[name]
    workload = generate()
    database = workload.database
    for relation_name in database.relation_names:
        database.set_relation(relation_name, database.relation(relation_name).with_backend(backend))
    return database, build_beas(workload).access_schema.families


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_every_family_of_a_workload_matches_the_oracle(name, store_dir):
    database, families = smoke_families(name)
    assert any(family.x for family in families), f"{name}: no family with a tree per X-value"
    for family in families:
        relation = database.relation(family.relation)
        oracle = OracleTemplateIndex(relation, family.x, family.y)
        assert_same_index(family.index, oracle, f"{name}/{family!r}")


def layout_digest(families):
    """sha256 of every family's permutation, levels, resolutions and every group's frontiers."""
    digest = hashlib.sha256()
    for family in families:
        index = family.index
        digest.update(repr((family.relation, family.x, family.y, index.max_level, list(index._perm))).encode())
        for level in index.levels():
            digest.update(repr(index.resolution(level)).encode())
            for key in index.keys():
                digest.update(repr(fetched_rows(index.fetch(key, level))).encode())
    return digest.hexdigest()


# Taken on the recursive builder the level-by-level one replaced: any change
# to a tree (a split, a median, a representative, a node's depth) moves these.
LAYOUT_DIGESTS = {
    "airca": "b99e0fbfb651dbe8b59e8748f7a03e6c7a3cf7910ca32aed09b089f8c0a94eeb",
    "social": "2d27286f8987597a43068b0c2f70190dc7cbc8023f9b5e8eff01d0a7c5711622",
    "tfacc": "e73090db1e3c1a6581a89b31e66ebefa5b64bef6a466ac2dbd7f46f572c758af",
    "tpch": "1a409cb09b917fa802908915286b3512c27694098b5b9c1856fcca0295c776db",
}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_every_family_of_a_workload_keeps_its_layout(name, store_dir):
    _, families = smoke_families(name)
    assert layout_digest(families) == LAYOUT_DIGESTS[name]


def distances(finite):
    """Per kind of distance, its function and a strategy for the values of its column."""
    numbers = st.one_of(
        st.integers(-3, 3),
        st.sampled_from([0.5, 1.0, 2.0, -0.0, 2.5, 1e6, 2**63] + ([] if finite else [math.inf])),
        st.floats(-50, 50, allow_nan=False, width=32),
        st.booleans(),
    )
    nan = st.nothing() if finite else st.just(math.nan)
    anything = st.one_of(numbers, st.none(), nan, st.sampled_from(["a", "ab", "abc", "b", "ba", ""]))
    return {
        "numeric": (NUMERIC, st.one_of(numbers, st.none(), nan)),
        "scaled": (numeric_scaled(7), st.one_of(numbers, nan)),
        "squared": (SQUARED, st.one_of(st.integers(-3, 3), st.floats(-50, 50, allow_nan=False), st.booleans())),
        "trivial": (TRIVIAL, anything),
        "categorical": (CATEGORICAL, anything),
        "prefix": (STRING_PREFIX, anything),
        "repr-length": (REPR_LENGTH, anything),
    }


@st.composite
def relations(draw, finite=False):
    kinds = distances(finite)
    chosen = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=2, max_size=4))
    attributes = [Attribute(f"a{i}", kinds[kind][0]) for i, kind in enumerate(chosen)]
    cells = []
    for kind in chosen:
        values = kinds[kind][1]
        # A small pool per column, so columns carry ties.
        pool = draw(st.lists(values, min_size=1, max_size=6))
        cells.append(st.one_of(st.sampled_from(pool), values))
    rows = draw(st.lists(st.tuples(*cells), min_size=1, max_size=40))
    # NaN is unequal even to itself, so a ``set`` tells NaN objects apart by
    # identity alone: every cell gets its own, as a read of a typed column does.
    rows = [tuple(float("nan") if v != v else v for v in row) for row in rows]
    return Relation(RelationSchema("r", attributes), rows, backend="column")


@settings(max_examples=150, deadline=None)
@given(relation=relations(), grouped=st.booleans(), max_level=st.sampled_from([None, 0, 1, 3]))
def test_generated_relations_match_the_oracle(relation, grouped, max_level):
    names = relation.schema.attribute_names
    x, y = (names[:1], names[1:]) if grouped else ((), names)
    index = TemplateIndex(relation, x, y, max_level=max_level)
    assert_same_index(index, OracleTemplateIndex(relation, x, y, max_level=max_level), repr(relation.rows))


@settings(max_examples=60, deadline=None)
@given(relation=relations(finite=True), grouped=st.booleans())
def test_every_level_of_a_generated_family_conforms(relation, grouped):
    names = relation.schema.attribute_names
    x, y = (names[:1], names[1:]) if grouped else ((), names)
    database = Database.from_relations([relation])
    schema = AccessSchemaBuilder(database).build(families=[FamilySpec("r", x, y)], include_canonical=False)
    (family,) = schema.families
    assert check_conformance(schema, database, sample_levels=family.index.levels())


def _infinite_mostly(rng):
    """Over half +inf, so a root's representative and highest value are both +inf."""
    draw = rng.random()
    if draw < 0.55:
        return math.inf
    return -math.inf if draw < 0.58 else rng.choice([-0.0, 0.0, 1.0, -1.5, 2.25])


def adversarial_relation(rows=2000, seed=40):
    """A deterministic relation whose every depth holds many multi-row nodes,
    with a column for each path of the level-by-level build.  The numeric
    ranges are narrow, so counts, sizes and ranges each win splits, and ties
    straddle the medians."""
    rng = random.Random(seed)
    big = 2**53
    attributes = [
        Attribute("g", TRIVIAL),  # the X of the grouped family: five groups
        Attribute("nan", NUMERIC),  # a typed float column with NaN: unranked
        Attribute("cat", CATEGORICAL),
        Attribute("addr", STRING_PREFIX),
        Attribute("key", TRIVIAL),  # all distinct
        Attribute("q", NUMERIC),
        Attribute("big", numeric_scaled(3)),  # machine ints beyond 2**53, whose floats round
        Attribute("mixed", NUMERIC),  # ints beyond 2**53 beside floats: ranked, untyped
        Attribute("inf", numeric_scaled(5)),  # a typed float column with ±inf, -0.0 and 0.0
        Attribute("zero", NUMERIC),  # a finite typed float column with -0.0 and 0.0
        Attribute("none", NUMERIC),  # numbers and None
        Attribute("sq", SQUARED),
    ]
    keys = list(range(rows))
    rng.shuffle(keys)
    data = []
    for key in keys:
        data.append(
            (
                rng.randrange(5),
                math.nan if rng.random() < 0.03 else float(rng.randrange(9)),
                rng.choice(["red", "green", "blue", "cyan", "grey", "teal"]),
                rng.choice("abc") + rng.choice("abcdefgh") + str(rng.randrange(25)),
                key,
                rng.randrange(41),
                big + rng.randrange(7),
                rng.choice([big + rng.randrange(-3, 4), float(big + 2 * rng.randrange(-2, 3)), 0.5]),
                _infinite_mostly(rng),
                rng.choice([-0.0, 0.0, 2.5, -1.0, 0.75]),
                None if rng.random() < 0.1 else rng.randrange(6),
                rng.uniform(0, 3),
            )
        )
    return Relation(RelationSchema("adversarial", attributes), data, backend="column")


ADVERSARIAL = adversarial_relation()


@pytest.mark.parametrize("keyed", [True, False])
@pytest.mark.parametrize("grouped", [False, True])
@pytest.mark.parametrize("max_level", [None, 0, 3])
def test_a_large_adversarial_relation_matches_the_oracle(keyed, grouped, max_level):
    # Without the all-distinct key, whose spread is the node's size, counts
    # lose to narrow ranges and are left untaken.
    relation = ADVERSARIAL
    names = [name for name in relation.schema.attribute_names if keyed or name != "key"]
    x, y = (names[:1], names[1:]) if grouped else ((), names)
    index = TemplateIndex(relation, x, y, max_level=max_level)
    where = f"adversarial {'grouped' if grouped else 'whole'}, key {keyed}, at max_level {max_level}"
    assert_same_index(index, OracleTemplateIndex(relation, x, y, max_level=max_level), where)
