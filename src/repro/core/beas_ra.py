"""BEAS_RA — the resource-bounded approximation scheme for RA queries (Section 6).

RA adds union and set difference to SPC.  Plan generation builds fetching
plans for every maximal SPC sub-query (shared pipeline in
:mod:`repro.core.planner`); the executor enforces set-difference semantics
with the maximal-induced-query guard (Theorem 6(5)).

The extra step specific to BEAS_RA (Fig. 5, lines 4–7) is the *post-execution*
refinement of the accuracy bound: the lower-bound function ``L`` alone cannot
account for approximate ``Q1`` answers that the set-difference guard removed,
so the algorithm also executes the maximal induced query ``Q̂`` over the same
fetched data and corrects the coverage bound by the empirical distance ``d'``
between the two answer sets:

    η' = 1 / (1 + max(d_rel, d' + d̂_cov)).

``Q(D) ⊆ Q̂(D)`` is covered by ``ξ̂_α(D)`` within ``d̂_cov``, and ``ξ̂_α(D)``
is covered by ``ξ_α(D)`` within ``d'``, so by the triangle inequality
``Q(D)`` is covered by ``ξ_α(D)`` within ``d' + d̂_cov``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..access.schema import AccessSchema
from ..algebra.ast import QueryNode
from ..algebra.spc import maximal_induced_query
from ..errors import QueryError
from ..relational.database import Database
from ..relational.distance import INFINITY
from ..relational.kernels import max_min_distance
from ..relational.relation import Relation
from ..relational.schema import DatabaseSchema
from .lower_bound import distance_bounds
from .plan import BoundedPlan
from .planner import generate_plan

if TYPE_CHECKING:  # the executor compiles a ``Refinement``
    from .executor import PlanExecutor


def plan_ra(
    query: QueryNode,
    db_schema: DatabaseSchema,
    access_schema: AccessSchema,
    budget: int,
) -> BoundedPlan:
    """Generate an α-bounded plan and (pre-execution) bound for an RA query."""
    if query.has_aggregate():
        raise QueryError("BEAS_RA does not handle aggregates; use BEAS_agg")
    return generate_plan(query, db_schema, access_schema, budget)


class Refinement:
    """What ``η′`` derives from the query and the fetch resolutions alone.

    ``Q̂`` (:func:`~repro.algebra.spc.maximal_induced_query`), the bounds
    ``d_rel`` of ``Q`` and ``d̂_cov`` of ``Q̂`` under the resolutions the
    data is fetched with, and the attributes ``d′`` is measured over.  It
    depends on the plan, never on the data, so it is compiled with the plan
    (:class:`~repro.core.executor.CompiledPlan`).
    """

    def __init__(self, query: QueryNode, resolutions: Mapping[str, float], db_schema: DatabaseSchema) -> None:
        self.induced_query = maximal_induced_query(query)
        self.d_rel, _ = distance_bounds(query, resolutions, db_schema)
        _, self.induced_cov = distance_bounds(self.induced_query, resolutions, db_schema)
        self.answer_attributes = query.output_schema(db_schema).attributes


def refine_bound_with_induced(
    plan: BoundedPlan,
    executor: PlanExecutor,
    database: Database,
    answers: Relation,
) -> float:
    """Compute the corrected bound ``η'`` after executing the plan (Fig. 5, lines 4–7).

    Args:
        plan: the executed bounded plan.
        executor: the executor that already fetched the plan's data (reused to
            evaluate the maximal induced query without extra data access).
        database: the queried database (no tuples are read).
        answers: the approximate answers ``S = ξ_α(D)``.

    Returns the refined bound; queries without set difference keep ``plan.eta``.
    """
    refinement = executor.compiled.refinement
    if refinement is None:
        return plan.eta
    induced_answers = executor.evaluate(refinement.induced_query)

    # d′ = max over induced answers of the distance to the nearest answer: the
    # same one-sided Hausdorff sweep as RC coverage, so it runs through the
    # same nearest-neighbour kernel.  An induced answer with a canonically
    # equal answer (a twin) is at distance 0, so only those without one, the
    # rows the set-difference guard removed, are probed.
    d_prime = max_min_distance(induced_answers.store, answers.store, refinement.answer_attributes)
    if d_prime == INFINITY:
        return 0.0
    return 1.0 / (1.0 + max(refinement.d_rel, d_prime + refinement.induced_cov))
