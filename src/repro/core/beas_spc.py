"""BEAS_SPC — the resource-bounded approximation scheme for SPC queries (Section 5).

Given an SPC query ``Q``, an access schema ``A ⊇ A_t`` and a budget
``B = α·|D|``, :func:`plan_spc` generates an α-bounded plan ``ξ_α = (ξ_F, ξ_E)``
and a deterministic accuracy lower bound ``η`` such that (Theorem 5):

1. ``F_rel(ξ_α(D), Q, D) ≥ η`` and ``F_cov(ξ_α(D), Q, D) ≥ η``;
2. ``η`` is never below the paper's query-independent floor
   ``1/(1 + max_ψ d̄_{ψ,k*})``, ``k* = ⌊log2(B/||Q||)⌋ - 1``.  Under ``A_t``
   that floor is 0 whenever a whole-relation family carries a ``TRIVIAL``
   attribute (one differing value puts its resolution at +∞), which is every
   smoke-corpus position measured, so there it guarantees nothing;
3. larger budgets never yield smaller ``η`` (monotonicity in α).

Plan generation is the pipeline of :mod:`repro.core.planner`: tableau →
chase → fetching plan → chAT, all without accessing ``D``.
"""

from __future__ import annotations

from ..access.schema import AccessSchema
from ..algebra.ast import QueryNode
from ..errors import QueryError
from ..relational.schema import DatabaseSchema
from .plan import BoundedPlan
from .planner import generate_plan


def plan_spc(
    query: QueryNode,
    db_schema: DatabaseSchema,
    access_schema: AccessSchema,
    budget: int,
) -> BoundedPlan:
    """Generate an α-bounded plan and accuracy bound for an SPC query."""
    if not query.is_spc():
        raise QueryError(
            "BEAS_SPC only accepts SPC queries (σ, π, ×, ρ over base relations); "
            "use BEAS_RA or BEAS_agg for queries with ∪, − or group-by"
        )
    return generate_plan(query, db_schema, access_schema, budget)
