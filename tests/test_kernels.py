"""Differential tests: distance kernels vs. the naive nested-loop paths.

The kernel subsystem (:mod:`repro.relational.kernels`) promises *exact*
equivalence with the quadratic scans it replaced.  These tests hold it to
that promise on randomised inputs — including values lying exactly on the
slack/resolution boundary (integer grids make ``distance == slack`` common)
and awkward values (None, NaN, mixed int/float) — at three levels:

* kernel primitives vs. the exported naive references,
* the sorted-band radius / nearest-neighbour search on hypothesis inputs
  vs. brute force,
* the rewired consumers (relaxed join, BEAS difference guard, RC coverage
  and relevance) vs. local reimplementations of their old nested loops.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accuracy.rc import (
    RelevanceCandidate,
    RelevanceIndex,
    max_coverage_distance,
    relevance_distance,
)
from repro.algebra.ast import Difference, Scan
from repro.algebra.evaluator import Evaluator, Frame, JoinStep, MappingProvider
from repro.relational.distance import (
    CATEGORICAL,
    DistanceFunction,
    INFINITY,
    NUMERIC,
    STRING_PREFIX,
    TRIVIAL,
    numeric_scaled,
    tuple_distance,
)
from repro.relational.kernels import (
    NearestNeighbors,
    RadiusMatcher,
    _canonical,
    classify_key,
    naive_min_distance,
)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema

from eval_oracle import naive_radius_matches

SCALED = numeric_scaled(2.5)


# ---------------------------------------------------------------------------
# Kernel primitives vs. naive references
# ---------------------------------------------------------------------------

def _mixed_row(rng):
    return (
        rng.choice([None, 0, 1, 2, 1.0, 2.0, "x"]),
        rng.choice([None, 0, 1, 2, 3, 4, 2.0, float("nan")]),
        rng.choice(["a", "b", "c"]),
        rng.choice(["ab", "ac", "b", "abc"]),
    )


POSITIONS = [0, 1, 2, 3]
DISTANCES = [TRIVIAL, NUMERIC, CATEGORICAL, STRING_PREFIX]


@pytest.mark.parametrize("seed", range(8))
def test_radius_matcher_matches_naive_on_mixed_columns(seed):
    rng = random.Random(seed)
    rows = [_mixed_row(rng) for _ in range(rng.randint(0, 120))]
    thresholds = [
        rng.choice([0.0, 1.0, INFINITY]),
        rng.choice([0.0, 1.0, 2.0, INFINITY]),  # integer grid: ties at == slack
        rng.choice([0.0, 0.5, 1.0, 2.0]),
        rng.choice([0.0, 0.5, 1.0, 2.0, INFINITY]),
    ]
    matcher = RadiusMatcher(rows, POSITIONS, DISTANCES, thresholds)
    for _ in range(60):
        query = _mixed_row(rng)
        expected = naive_radius_matches(query, rows, POSITIONS, DISTANCES, thresholds)
        assert matcher.matches(query) == expected
        assert matcher.any_match(query) == bool(expected)


@pytest.mark.parametrize("band_keys", [2, 3, 4])
@pytest.mark.parametrize("seed", range(4))
def test_radius_matcher_multi_band_matches_naive(seed, band_keys):
    """Several slack numeric keys per bucket: one sorted band on the first,
    the others checked once per distinct band sub-tuple.  Integer grids put
    ties exactly at the slack; the later keys hold the ==-equal 1 / 1.0 /
    True and a numeric string."""
    rng = random.Random(seed)
    positions = list(range(1 + band_keys))
    distances = [TRIVIAL, NUMERIC, SCALED, NUMERIC, SCALED][: 1 + band_keys]

    def row():
        return (
            rng.choice([0, 1]),  # two large buckets
            rng.choice([None, float("nan"), rng.randint(0, 30)]),
            rng.uniform(0, 20) if rng.random() > 0.1 else None,
            rng.choice([None, float("nan"), 1, 1.0, True, "5", rng.randint(0, 12)]),
            rng.choice([None, 2, 2.0, True, 2.5 * rng.randint(0, 8)]),
        )[: 1 + band_keys]

    pool = [row() for _ in range(150)]
    # Duplicated band sub-tuples, in the same bucket and in the other one.
    rows = pool + [(rng.choice([0, 1]),) + rng.choice(pool)[1:] for _ in range(100)]
    thresholds = [
        rng.choice([0.0, 5.0]),
        rng.choice([2.0, 5.0]),
        rng.choice([1.0, 3.0]),
        rng.choice([1.0, 2.0, 3.0]),
        rng.choice([1.0, 2.0]),
    ][: 1 + band_keys]
    matcher = RadiusMatcher(rows, positions, distances, thresholds)
    for _ in range(50):
        query = row() if rng.random() > 0.3 else rng.choice(rows)
        expected = naive_radius_matches(query, rows, positions, distances, thresholds)
        assert matcher.matches(query) == expected
        assert matcher.any_match(query) == bool(expected)


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.integers(0, 8), min_size=0, max_size=60),
    queries=st.lists(st.integers(0, 8), min_size=1, max_size=10),
    slack=st.integers(0, 3),
)
def test_banded_key_ties_at_exact_slack_boundary(values, queries, slack):
    """Integer values and integer slack: |x - y| == slack pairs must match."""
    rows = [(v,) for v in values]
    matcher = RadiusMatcher(rows, [0], [NUMERIC], [float(slack)])
    for q in queries:
        expected = naive_radius_matches((q,), rows, [0], [NUMERIC], [float(slack)])
        assert matcher.matches((q,)) == expected


def test_zero_slack_numeric_key_matches_float_coercible_values():
    """Regression: absolute_difference coerces via float(), so "5" is at
    distance 0 from 5 and must share a hash bucket with it."""
    rows = [("5",), (5,), (7,), (None,), (10**20,), (10**20 + 1,)]
    matcher = RadiusMatcher(rows, [0], [NUMERIC], [0.0])
    for query in [(5,), (5.0,), ("5",), (None,), (10**20,)]:
        assert matcher.matches(query) == naive_radius_matches(
            query, rows, [0], [NUMERIC], [0.0]
        )


def test_infinite_zero_slack_numeric_key_never_matches():
    """Regression: ``absolute_difference(inf, inf)`` is NaN, so an infinity
    is within zero slack of nothing, itself included; it must not share a
    hash bucket with an equal infinity (plain list or typed float buffer)."""
    inf = float("inf")
    rows = [(inf,), (-inf,), (5.0,), (inf,)]
    schema = RelationSchema("r", [Attribute("v", NUMERIC)])
    typed = RadiusMatcher.from_store(
        Relation(schema, rows, backend="column").store, [0], [NUMERIC], [0.0]
    )
    for matcher in (RadiusMatcher(rows, [0], [NUMERIC], [0.0]), typed):
        for query in [(inf,), (-inf,), (5,)]:
            assert matcher.matches(query) == naive_radius_matches(
                query, rows, [0], [NUMERIC], [0.0]
            )


def test_uncoercible_numeric_key_falls_back_to_nested_loop():
    rows = [("abc",), (5,)]
    matcher = RadiusMatcher(rows, [0], [NUMERIC], [0.0])
    assert matcher._naive  # float("abc") defeats hashing at build time
    assert matcher.matches((None,)) == naive_radius_matches(
        (None,), rows, [0], [NUMERIC], [0.0]
    )


def test_overflowing_int_key_falls_back_instead_of_crashing():
    # float(10**400) raises OverflowError; construction must survive and
    # queries that never touch the row must behave like the nested loop.
    rows = [(10**400,), (5,)]
    matcher = RadiusMatcher(rows, [0], [NUMERIC], [0.0])
    assert matcher.matches((None,)) == naive_radius_matches(
        (None,), rows, [0], [NUMERIC], [0.0]
    )


def test_unhashable_query_value_scans_instead_of_crashing():
    rows = [(1,), (2,)]
    matcher = RadiusMatcher(rows, [0], [TRIVIAL], [0.0])
    assert matcher.matches(([1, 2],)) == []  # naive: trivial distance is +inf
    neighbors = NearestNeighbors(rows, [Attribute("id", TRIVIAL)])
    assert neighbors.min_distance(([1, 2],)) == INFINITY


def test_nan_join_key_never_matches():
    """Documented deviation: NaN distances never match (the legacy relaxed
    join's ``not (d > slack)`` test cross-joined NaN keys with everything)."""
    nan = float("nan")
    rows = [(nan,), (1.0,)]
    matcher = RadiusMatcher(rows, [0], [NUMERIC], [0.5])
    assert matcher.matches((1.0,)) == [1]
    assert matcher.matches((nan,)) == []
    # The exported naive reference shares the <= convention.
    assert naive_radius_matches((1.0,), rows, [0], [NUMERIC], [0.5]) == [1]


def test_unhashable_values_fall_back_to_nested_loop():
    rows = [([1, 2],), ([3],), (None,)]
    matcher = RadiusMatcher(rows, [0], [TRIVIAL], [0.0])
    assert matcher.matches(([1, 2],)) == naive_radius_matches(
        ([1, 2],), rows, [0], [TRIVIAL], [0.0]
    )
    assert matcher.matches((None,)) == [2]


def test_classify_key_kinds():
    assert classify_key(TRIVIAL, 0.0) == "exact"
    assert classify_key(TRIVIAL, 7.5) == "exact"
    assert classify_key(TRIVIAL, INFINITY) == "drop"
    assert classify_key(CATEGORICAL, 0.5) == "exact"
    assert classify_key(CATEGORICAL, 1.0) == "drop"
    assert classify_key(NUMERIC, 0.0) == "exact"
    assert classify_key(NUMERIC, 2.0) == "band"
    assert classify_key(NUMERIC, INFINITY) == "check"
    assert classify_key(STRING_PREFIX, 0.5) == "exact"
    assert classify_key(STRING_PREFIX, 2.0) == "check"
    assert classify_key(NUMERIC, -1.0) == "check"


def _numeric_row(rng):
    return (
        rng.choice([0, 1, 2]),
        rng.choice([None, float("nan"), "5", True, 1.0, rng.randint(0, 20), rng.uniform(0, 20)]),
        rng.choice([None, 2.5 * rng.randint(0, 8), rng.uniform(0, 20)]),
        rng.choice(["a", "b"]),
    )


def _non_numeric_row(rng):
    row = _mixed_row(rng)
    return (row[0],) + row[2:]


# Attribute layouts of the nearest-neighbour differential: the band attribute
# (the first numeric non-trivial one) holding None, NaN and numeric strings;
# a second numeric attribute; and no numeric attribute at all.
NN_LAYOUTS = {
    "mixed": ([TRIVIAL, NUMERIC, CATEGORICAL, STRING_PREFIX], _mixed_row),
    "two_numeric": ([TRIVIAL, NUMERIC, SCALED, CATEGORICAL], _numeric_row),
    "no_numeric": ([TRIVIAL, CATEGORICAL, STRING_PREFIX], _non_numeric_row),
}


@pytest.mark.parametrize("layout", sorted(NN_LAYOUTS))
@pytest.mark.parametrize("seed", range(6))
def test_nearest_neighbors_matches_naive(seed, layout):
    rng = random.Random(seed)
    distances, make_row = NN_LAYOUTS[layout]
    attributes = [Attribute(f"a{i}", d) for i, d in enumerate(distances)]
    rows = [make_row(rng) for _ in range(rng.randint(0, 150))]
    neighbors = NearestNeighbors(rows, attributes)
    for _ in range(60):
        query = make_row(rng) if rng.random() > 0.2 or not rows else rng.choice(rows)
        assert neighbors.min_distance(query) == naive_min_distance(query, rows, distances)


def test_nearest_neighbors_dedups_by_canonical_form_not_equality():
    """Regression: ``1`` and ``1.0`` are ``==`` but differ under the
    string-prefix distance (``str()`` forms '1' vs '1.0').  A bucket's
    sub-tuple dedup by ``dict.fromkeys`` (plain ``==``) dropped the closer
    representative and inflated the minimum distance."""
    attributes = [Attribute("s", STRING_PREFIX)]
    # 21 canonically-distinct values including the ==-equal pair.
    rows = [(1,), (1.0,)] + [(100 + i,) for i in range(19)]
    neighbors = NearestNeighbors(rows, attributes)
    distances = [a.distance for a in attributes]
    for query in [(1.0,), (1,), ("1.0",)]:
        assert neighbors.min_distance(query) == naive_min_distance(query, rows, distances)


# ---------------------------------------------------------------------------
# Sorted-band search vs. brute force
# ---------------------------------------------------------------------------

def _points_relation(rows):
    schema = RelationSchema(
        "pts", [Attribute("x", NUMERIC), Attribute("y", SCALED), Attribute("tag", CATEGORICAL)]
    )
    return Relation(schema, rows)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 40),
            st.floats(0, 25, allow_nan=False),
            st.sampled_from(["a", "b"]),
        ),
        min_size=0,
        max_size=80,
    ),
    query=st.tuples(
        st.integers(0, 40), st.floats(0, 25, allow_nan=False), st.sampled_from(["a", "b", "c"])
    ),
    radii=st.tuples(st.integers(0, 6), st.floats(0, 3), st.floats(0, 1.5)),
)
# Nothing indexed.
@example(rows=[], query=(1, 2.0, "a"), radii=(1, 1.0, 1.0))
# A row exactly at the radius on every attribute matches.
@example(rows=[(3, 2.5, "a"), (9, 2.5, "a")], query=(5, 0.0, "a"), radii=(2, 1.0, 0.0))
# A member of the set, at radius 0 and at nearest distance 0.
@example(rows=[(7, 3.5, "b"), (8, 1.0, "a"), (7, 3.5, "b")], query=(7, 3.5, "b"), radii=(0, 0.0, 0.0))
def test_band_search_matches_brute_force(rows, query, radii):
    relation = _points_relation(rows)
    attributes = relation.schema.attributes
    distances = [a.distance for a in attributes]
    radii = [float(r) for r in radii]
    positions = [0, 1, 2]

    matcher = RadiusMatcher.from_store(relation.store, positions, distances, radii)
    expected_within = naive_radius_matches(query, rows, positions, distances, radii)
    assert matcher.matches(query) == expected_within
    assert matcher.any_match(query) == bool(expected_within)

    neighbors = NearestNeighbors.from_store(relation.store, attributes)
    assert neighbors.min_distance(query) == naive_min_distance(query, rows, distances)


# ---------------------------------------------------------------------------
# Rewired consumers vs. their old nested loops
# ---------------------------------------------------------------------------

def _frame(name, attrs, rows, rng):
    schema = RelationSchema(name, attrs)
    return Frame(schema, rows, [round(rng.uniform(0.5, 3.0), 3) for _ in rows])


def _naive_relaxed_join(left, right, positions_left, positions_right, distances, slack):
    """The evaluator's pre-kernel nested-loop relaxed join, verbatim."""
    rows, weights = [], []
    for i, lrow in enumerate(left.rows):
        for j, rrow in enumerate(right.rows):
            ok = True
            for pl, pr, dist, s in zip(positions_left, positions_right, distances, slack):
                if dist(lrow[pl], rrow[pr]) > s:
                    ok = False
                    break
            if ok:
                rows.append(lrow + rrow)
                weights.append(left.weights[i] * right.weights[j])
    return rows, weights


@pytest.mark.parametrize("seed", range(5))
def test_relaxed_join_identical_to_nested_loop(seed):
    rng = random.Random(seed)
    left_attrs = (Attribute("l.id", TRIVIAL), Attribute("l.v", NUMERIC), Attribute("l.p", NUMERIC))
    right_attrs = (Attribute("r.id", TRIVIAL), Attribute("r.v", NUMERIC))

    def lrow():
        return (rng.randint(0, 3), rng.randint(0, 12), rng.uniform(0, 5))

    def rrow():
        return (rng.randint(0, 3), rng.randint(0, 12))

    left = _frame("L", left_attrs, [lrow() for _ in range(rng.randint(0, 60))], rng)
    right = _frame("R", right_attrs, [rrow() for _ in range(rng.randint(0, 60))], rng)

    relaxation = {"l.v": 1.0, "r.v": 1.0}  # slack 2.0 on integer values: boundary ties
    step = JoinStep.compile(left.schema, right.schema, ["l.id", "l.v"], ["r.id", "r.v"], relaxation)
    joined = step.run(left, right)

    slack = [0.0, 2.0]
    distances = [TRIVIAL, NUMERIC]
    expected_rows, expected_weights = _naive_relaxed_join(
        left, right, [0, 1], [0, 1], distances, slack
    )
    assert joined.rows == expected_rows
    assert joined.weights == expected_weights


def _naive_difference_guard(left, right, distances, thresholds):
    """The executor's pre-kernel nested-loop difference guard, verbatim."""
    rows, weights = [], []
    for row, weight in zip(left.rows, left.weights):
        excluded = False
        for other in right.rows:
            if all(
                dist(a, b) <= threshold
                for a, b, dist, threshold in zip(row, other, distances, thresholds)
            ):
                excluded = True
                break
        if not excluded:
            rows.append(row)
            weights.append(weight)
    return rows, weights


@pytest.mark.parametrize("seed", range(5))
def test_beas_difference_guard_identical_to_nested_loop(seed):
    rng = random.Random(seed)
    db_schema = DatabaseSchema(
        [
            RelationSchema("R1", [Attribute("id", TRIVIAL), Attribute("v", NUMERIC)]),
            RelationSchema("R2", [Attribute("id", TRIVIAL), Attribute("v", NUMERIC)]),
        ]
    )

    def row():
        return (rng.randint(0, 4), rng.randint(0, 10))

    left = _frame(
        "a", (Attribute("a.id", TRIVIAL), Attribute("a.v", NUMERIC)),
        [row() for _ in range(rng.randint(0, 50))], rng,
    )
    right = _frame(
        "b", (Attribute("b.id", TRIVIAL), Attribute("b.v", NUMERIC)),
        [row() for _ in range(rng.randint(0, 50))], rng,
    )

    relaxation = {"b.v": 2.0}  # non-zero resolution on R2: the guard path runs
    evaluator = Evaluator(
        db_schema,
        MappingProvider({"a": left, "b": right}),
        relaxation=relaxation,
    )
    node = Difference(Scan("R1", "a"), Scan("R2", "b"))
    result = evaluator.evaluate_frame(node)

    thresholds = [0.0, 2.0]
    distances = [TRIVIAL, NUMERIC]
    expected_rows, expected_weights = _naive_difference_guard(
        left, right, distances, thresholds
    )
    assert result.rows == expected_rows
    assert result.weights == expected_weights


# ---------------------------------------------------------------------------
# RC coverage / relevance vs. per-row min-scans
# ---------------------------------------------------------------------------

RC_SCHEMA = RelationSchema(
    "out", [Attribute("id", TRIVIAL), Attribute("v", NUMERIC), Attribute("c", CATEGORICAL)]
)


def _rc_row(rng):
    return (rng.randint(0, 3), rng.choice([0, 1, 2, 3, 2.0, None]), rng.choice(["a", "b"]))


# Not 0 on equal values, so the coverage sweep may skip no row under it.
SELF_DISTANT = DistanceFunction("self-distant", lambda x, y: 0.5 if x == y else 1.0)

# The nearest-neighbour layouts plus: the RC schema; ``1`` / ``1.0`` under
# string-prefix (``1 == 1.0``, but they are 2 apart); and two inputs
# that must probe every row, a distance that is not 0 on equal values and an
# unhashable value.  No layout of the last two can reach +inf, so every row
# really is probed.
COVERAGE_LAYOUTS = {
    **NN_LAYOUTS,
    "rc": ([a.distance for a in RC_SCHEMA.attributes], _rc_row),
    "prefix_numbers": (
        [TRIVIAL, STRING_PREFIX, STRING_PREFIX],
        lambda rng: (rng.randint(0, 1), rng.choice([1, 1.0]), rng.choice([1, 1.0])),
    ),
    "self_distant": ([SELF_DISTANT, CATEGORICAL], lambda rng: (rng.randint(0, 2), rng.choice("ab"))),
    "unhashable": (
        [CATEGORICAL, SCALED],
        lambda rng: (rng.choice(["a", ["a"], ("b", ["c"])]), rng.randint(0, 5)),
    ),
}
PROBE_EVERY_ROW = ("self_distant", "unhashable")


@pytest.mark.parametrize("queries_backend", ["column", "sharded"])
@pytest.mark.parametrize("layout", sorted(COVERAGE_LAYOUTS))
@pytest.mark.parametrize("seed", range(5))
def test_max_coverage_distance_identical_to_per_row_scan(seed, layout, queries_backend, monkeypatch):
    rng = random.Random(seed)
    distances, make_row = COVERAGE_LAYOUTS[layout]
    schema = RelationSchema("out", [Attribute(f"a{i}", d) for i, d in enumerate(distances)])

    def row():
        # ±inf under NUMERIC, where an infinity is at distance NaN from itself.
        values = make_row(rng)
        return tuple(
            rng.choice([v, v, v, INFINITY, -INFINITY]) if d is NUMERIC else v
            for d, v in zip(distances, values)
        )

    approx_rows = [row() for _ in range(rng.randint(0, 60))]
    # A share of the exact rows are copies of approximate ones: twins.
    exact_rows = [
        rng.choice(approx_rows) if approx_rows and rng.random() < 0.4 else row()
        for _ in range(rng.randint(0, 60))
    ]
    # ``queries`` may be sharded; ``indexed`` is a flat column store.
    exact = Relation(schema, exact_rows, backend=queries_backend)
    approx = Relation(schema, approx_rows)

    probes = [0]
    min_distance = NearestNeighbors.min_distance

    def counted_probe(self, values):
        probes[0] += 1
        return min_distance(self, values)

    with monkeypatch.context() as patch:
        patch.setattr(NearestNeighbors, "min_distance", counted_probe)
        result = max_coverage_distance(exact, approx, schema)

    if len(exact) == 0:
        expected = 0.0
    elif len(approx) == 0:
        expected = INFINITY
    else:
        expected = max(
            min(tuple_distance(s, t, distances) for s in approx.rows) for t in exact.rows
        )
    assert result == expected
    if result == INFINITY:
        return  # the sweep stops at the first row at +inf
    if layout in PROBE_EVERY_ROW:
        assert probes[0] == len(exact)
    else:

        def key(values):
            return tuple(_canonical(d, v) for d, v in zip(distances, values))

        twins = set(map(key, approx_rows))
        assert probes[0] == sum(key(t) not in twins for t in exact_rows)


@pytest.mark.parametrize("seed", range(5))
def test_relevance_index_identical_to_relevance_distance(seed):
    rng = random.Random(seed)
    candidates = [
        RelevanceCandidate(values=_rc_row(rng), requirement=rng.choice([0.0, 1.0, 2.5]))
        for _ in range(rng.randint(0, 80))
    ]
    index = RelevanceIndex(candidates, RC_SCHEMA)
    for _ in range(40):
        query = _rc_row(rng)
        assert index.distance(query) == relevance_distance(query, candidates, RC_SCHEMA)


def test_relevance_index_empty_candidates_is_infinite():
    index = RelevanceIndex([], RC_SCHEMA)
    assert index.distance((1, 2, "a")) == INFINITY
    assert relevance_distance((1, 2, "a"), [], RC_SCHEMA) == INFINITY
