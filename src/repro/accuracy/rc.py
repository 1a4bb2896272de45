"""The RC (relevance / coverage) accuracy measure (Section 3).

Given a query ``Q``, a dataset ``D`` and a set ``S`` of approximate answers:

* **coverage** — for every exact answer ``t ∈ Q(D)``, the distance to the
  closest approximate answer: ``δ_cov(Q, S, t) = min_{s∈S} d(s, t)``;
  ``F_cov = 1 / (1 + max_t δ_cov)``.
* **relevance** — for every approximate answer ``s ∈ S``, how relevant it is
  under query relaxation:
  ``δ_rel(Q, D, s) = min_{r≥0} max(r, min_{t∈Q^r(D)} d(s, t))``;
  ``F_rel = 1 / (1 + max_s δ_rel)``.
* ``accuracy(S, Q, D) = min(F_rel, F_cov)``.

Edge cases follow the paper: ``F_cov = 1`` when ``Q(D) = ∅``; ``F_cov = 0``
(hence accuracy 0) when ``S = ∅`` but ``Q(D) ≠ ∅``.

Aggregate queries (Section 3.2) adjust the distances: group-by semantics
forbids duplicate group keys in ``S`` (relevance +∞ otherwise); for
``sum``/``count``/``avg`` relevance is computed on the group-key projection
``π_X(Q')`` only, while coverage compares both the group key and the
aggregate value (``d_agg``).

Relevance is evaluated through the per-tuple reformulation implemented in
:mod:`repro.algebra.relax`: the candidate set is the query with its relaxable
selections dropped, each candidate ``t`` carrying its minimum admitting
relaxation ``r(t)``, so ``δ_rel(s) = min_t max(r(t), d(s, t))``.

Both coverage and relevance are nearest-neighbour minimisations, so the hot
loops run through the distance kernels in :mod:`repro.relational.kernels`
(:class:`~repro.relational.kernels.NearestNeighbors`, and
:class:`RelevanceIndex` below) instead of scanning every answer pair;
per the kernels' exact-equivalence contract the distances — and hence every
RC score — are identical to the naive per-row min-scans
(:func:`coverage_distance`, :func:`relevance_distance`), which remain the
reference implementations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..algebra.ast import Difference, GroupBy, Project, QueryNode, Union, resolve_attribute
from ..algebra.evaluator import DatabaseProvider, Evaluator
from ..algebra.predicates import AttrRef
from ..algebra.relax import RelaxationOracle, relaxed_query
from ..algebra.spc import maximal_induced_query, to_spc
from ..errors import QueryError
from ..relational.database import Database
from ..relational.distance import INFINITY, tuple_distance
from ..relational.kernels import NearestNeighbors, max_min_distance, naive_min_distance
from ..relational.relation import Relation, Row
from ..relational.schema import RelationSchema


@dataclass(frozen=True)
class RCResult:
    """Outcome of an RC-measure evaluation."""

    relevance: float
    coverage: float
    accuracy: float
    max_relevance_distance: float
    max_coverage_distance: float

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"RC(accuracy={self.accuracy:.3f}, F_rel={self.relevance:.3f}, "
            f"F_cov={self.coverage:.3f})"
        )


@dataclass(frozen=True)
class RelevanceCandidate:
    """One candidate tuple for relevance: its output values and required relaxation."""

    values: Row
    requirement: float


def _ratio(distance: float) -> float:
    """``1 / (1 + d)`` with the convention that an infinite distance gives 0."""
    if distance == INFINITY:
        return 0.0
    return 1.0 / (1.0 + distance)


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------

def coverage_distance(
    exact_row: Row, approx_rows: Sequence[Row], schema: RelationSchema
) -> float:
    """``δ_cov`` of one exact answer w.r.t. the approximate answer set.

    Single-query reference implementation (a linear scan); the all-answers
    sweep :func:`max_coverage_distance` indexes ``approx`` once instead.
    """
    if not approx_rows:
        return INFINITY
    distances = [a.distance for a in schema.attributes]
    return naive_min_distance(exact_row, approx_rows, distances)


def max_coverage_distance(
    exact: Relation, approx: Relation, schema: RelationSchema
) -> float:
    """``max_t δ_cov(Q, S, t)`` over all exact answers.

    ``approx`` is indexed once and queried per exact answer
    (:func:`~repro.relational.kernels.max_min_distance`); distances are
    identical to calling :func:`coverage_distance` per row.
    """
    return max_min_distance(exact.store, approx.store, schema.attributes)


# ---------------------------------------------------------------------------
# Relevance candidates
# ---------------------------------------------------------------------------

def _spc_candidates(
    node: QueryNode,
    database: Database,
    output_refs: Sequence[AttrRef],
    relaxation_allowed: bool,
) -> List[RelevanceCandidate]:
    """Candidates for an SPC query: evaluate it without relaxable selections.

    The candidate query keeps the join structure and hard (trivial-distance)
    selections but drops relaxable selections and the final projection, so
    the relaxation requirement of every candidate can be computed from the
    full attribute values.
    """
    spc = to_spc(node)
    unprojected = to_spc(node)
    unprojected.output = ()
    base_ast = unprojected.to_ast()

    if relaxation_allowed:
        candidate_ast, dropped = relaxed_query(base_ast, database.schema)
    else:
        candidate_ast, dropped = base_ast, []

    evaluator = Evaluator(database.schema, DatabaseProvider(database))
    frame = evaluator.evaluate_frame(candidate_ast)
    oracle = RelaxationOracle(frame.schema, dropped)

    resolved = [resolve_attribute(frame.schema, ref) for ref in spc.output_or_all(database.schema)]
    if output_refs:
        resolved = [resolve_attribute(frame.schema, ref) for ref in output_refs]
    positions = frame.schema.positions(resolved)

    candidates: List[RelevanceCandidate] = []
    seen: Dict[Tuple[Row, float], None] = {}
    # Output values are extracted column-wise; full rows are only consulted
    # for the relaxation requirement, streamed (not cached on the frame).
    for row, values in zip(frame.store.iter_rows(), frame.key_tuples(positions)):
        requirement = oracle.requirement(row)
        if requirement == INFINITY:
            continue
        key = (values, requirement)
        if key in seen:
            continue
        seen[key] = None
        candidates.append(RelevanceCandidate(values=values, requirement=requirement))
    return candidates


def relevance_candidates(
    node: QueryNode,
    database: Database,
    output_refs: Sequence[AttrRef] = (),
    relaxation_allowed: bool = True,
) -> List[RelevanceCandidate]:
    """Relevance candidates of a (non-aggregate) RA query.

    * SPC queries: evaluated without relaxable selections (see above).
    * ``Q1 ∪ Q2``: the union of both sides' candidates.
    * ``Q1 − Q2``: the candidates of the *maximal induced* query ``Q̂`` (the
      positive side); relaxing a query never makes the negated side grow, so
      this is the sound candidate set and matches how the accuracy bound is
      derived for set difference (Section 6).
    """
    if isinstance(node, Union):
        left = relevance_candidates(node.left, database, output_refs, relaxation_allowed)
        right = relevance_candidates(node.right, database, output_refs, relaxation_allowed)
        return left + right
    if isinstance(node, Difference):
        induced = maximal_induced_query(node)
        return relevance_candidates(induced, database, output_refs, relaxation_allowed)
    if isinstance(node, GroupBy):
        raise QueryError("aggregate queries are handled by rc_accuracy directly")
    return _spc_candidates(node, database, output_refs, relaxation_allowed)


def relevance_distance(
    approx_row: Row,
    candidates: Sequence[RelevanceCandidate],
    schema: RelationSchema,
) -> float:
    """``δ_rel`` of one approximate answer given precomputed candidates.

    Single-query reference implementation (a linear scan); loops over many
    approximate answers should build a :class:`RelevanceIndex` once instead.
    """
    if not candidates:
        return INFINITY
    distances = [a.distance for a in schema.attributes]
    best = INFINITY
    for candidate in candidates:
        d = tuple_distance(approx_row, candidate.values, distances)
        score = max(candidate.requirement, d)
        if score < best:
            best = score
        if best == 0.0:
            break
    return best


class RelevanceIndex:
    """``δ_rel`` queries over a fixed candidate set, kernel-accelerated.

    Candidates are grouped by their relaxation requirement ``r(t)``; within a
    group ``min_t max(r, d(s, t)) = max(r, min_t d(s, t))``, so each group
    reduces to one nearest-neighbour query
    (:class:`~repro.relational.kernels.NearestNeighbors`).  Groups are
    visited in ascending requirement order and the sweep stops once the
    requirement alone can no longer improve the best score, mirroring the
    naive scan's early exit.  Distances are identical to
    :func:`relevance_distance` over the same candidates.
    """

    def __init__(
        self, candidates: Sequence[RelevanceCandidate], schema: RelationSchema
    ) -> None:
        self.schema = schema
        groups: Dict[float, List[Row]] = {}
        for candidate in candidates:
            groups.setdefault(candidate.requirement, []).append(candidate.values)
        self._requirements = sorted(groups)
        self._groups = groups
        self._neighbors: Dict[float, NearestNeighbors] = {}

    def distance(self, approx_row: Row) -> float:
        """``δ_rel`` of one approximate answer (equal to the naive scan)."""
        best = INFINITY
        for requirement in self._requirements:
            if requirement >= best:
                break
            neighbors = self._neighbors.get(requirement)
            if neighbors is None:
                neighbors = NearestNeighbors(
                    self._groups[requirement], self.schema.attributes
                )
                self._neighbors[requirement] = neighbors
            score = max(requirement, neighbors.min_distance(approx_row))
            if score < best:
                best = score
            if best == 0.0:
                break
        return best


# ---------------------------------------------------------------------------
# Full RC measure
# ---------------------------------------------------------------------------

def rc_accuracy(
    query: QueryNode,
    database: Database,
    approx: Relation,
    exact: Optional[Relation] = None,
    relaxation_allowed: bool = True,
) -> RCResult:
    """Compute the RC measure of approximate answers ``approx`` to ``query``."""
    from ..algebra.evaluator import evaluate_exact  # local import to avoid cycle

    if exact is None:
        exact = evaluate_exact(query, database)

    output_schema = query.output_schema(database.schema)

    if isinstance(query, GroupBy):
        return _rc_aggregate(query, database, approx, exact, output_schema, relaxation_allowed)

    cov_dist = max_coverage_distance(exact, approx, output_schema)

    if len(approx) == 0:
        rel_dist = 0.0
    else:
        candidates = _relevance_candidate_cache(query, database, relaxation_allowed)
        index = RelevanceIndex(candidates, output_schema)
        rel_dist = 0.0
        # Like the coverage sweep, relevance is an order-insensitive max, so
        # a sharded answer set is swept shard by shard over its own buffers.
        for source in approx.store.shard_views():
            for row in source.iter_rows():
                d = index.distance(row)
                if d > rel_dist:
                    rel_dist = d
                if rel_dist == INFINITY:
                    break
            if rel_dist == INFINITY:
                break

    return _result(rel_dist, cov_dist, exact, approx)


def _relevance_candidate_cache(
    query: QueryNode, database: Database, relaxation_allowed: bool
) -> List[RelevanceCandidate]:
    output_refs: Tuple[AttrRef, ...] = ()
    if isinstance(query, Project):
        output_refs = query.columns
    return relevance_candidates(query, database, output_refs, relaxation_allowed)


def _rc_aggregate(
    query: GroupBy,
    database: Database,
    approx: Relation,
    exact: Relation,
    output_schema: RelationSchema,
    relaxation_allowed: bool,
) -> RCResult:
    """RC measure for ``gpBy(Q', X, agg(V))`` queries (Section 3.2)."""
    # Coverage: output-schema tuple distance covers both cases — for min/max
    # it is δ_cov of Q' restricted to (X, V); for sum/count/avg it is
    # d_agg(s, t) = max(max_{A∈X} dis_A, |t[V] - s[V]|).
    cov_dist = max_coverage_distance(exact, approx, output_schema)

    if len(approx) == 0:
        rel_dist = 0.0
        return _result(rel_dist, cov_dist, exact, approx)

    group_positions = list(range(len(query.group_columns)))
    # Group-by semantics: duplicate group keys in S make those answers
    # irrelevant (+∞).  Keys are extracted column-wise from the backend.
    key_counts = Counter(approx.store.key_tuples(group_positions))
    duplicate_keys = {key for key, count in key_counts.items() if count > 1}

    needs_counts = query.aggregate.needs_counts
    if needs_counts:
        candidate_refs = query.group_columns
        compare_schema = output_schema.project(
            output_schema.attribute_names[: len(query.group_columns)], name="γ_keys"
        ) if query.group_columns else None
    else:
        candidate_refs = tuple(query.group_columns) + (query.agg_column,)
        compare_schema = output_schema

    candidates = relevance_candidates(
        query.child, database, candidate_refs, relaxation_allowed
    )
    index = RelevanceIndex(
        candidates, compare_schema if needs_counts and compare_schema else output_schema
    )

    rel_dist = 0.0
    # Shard-view sweep (order-insensitive max, like coverage): rows and
    # group keys are read from each partition's own column buffers.
    for source in approx.store.shard_views():
        for row, key in zip(source.iter_rows(), source.key_tuples(group_positions)):
            if key in duplicate_keys:
                rel_dist = INFINITY
                break
            if needs_counts:
                if compare_schema is None:
                    # No group-by columns (global aggregate): any answer is
                    # relevant as long as the child query has candidates.
                    d = 0.0 if candidates else INFINITY
                else:
                    d = index.distance(key)
            else:
                d = index.distance(row)
            if d > rel_dist:
                rel_dist = d
            if rel_dist == INFINITY:
                break
        if rel_dist == INFINITY:
            break

    return _result(rel_dist, cov_dist, exact, approx)


def _result(rel_dist: float, cov_dist: float, exact: Relation, approx: Relation) -> RCResult:
    coverage = 1.0 if len(exact) == 0 else _ratio(cov_dist)
    if len(approx) == 0 and len(exact) > 0:
        coverage = 0.0
    relevance = _ratio(rel_dist)
    accuracy = min(relevance, coverage)
    return RCResult(
        relevance=relevance,
        coverage=coverage,
        accuracy=accuracy,
        max_relevance_distance=rel_dist,
        max_coverage_distance=cov_dist,
    )
