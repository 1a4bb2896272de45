"""Bounded evaluability and exact-answer resource ratios.

A query is *boundedly evaluable* under an access schema ``A`` (the setting of
the earlier bounded-evaluation line of work the paper builds on) when it has
a query plan using access constraints only — such a plan computes exact
answers and accesses an amount of data decided by ``A`` and ``Q``,
independent of ``|D|``.

BEAS subsumes this: when the chase can cover every atom exactly with
constraints within the budget, the generated plan is a bounded-evaluation
plan and BEAS returns exact answers.  This module also computes, for Exp-3
(Fig 6(j)), the smallest resource ratio ``α_exact`` at which the plan for a
query becomes exact: the smallest ratio whose budget covers the tariff of the
plan with every template driven to its exact level.
"""

from __future__ import annotations

import math
from typing import Optional

from ..access.schema import AccessSchema
from ..algebra.ast import QueryNode
from ..relational.database import Database
from ..relational.schema import DatabaseSchema
from .plan import BoundedPlan
from .planner import generate_plan


def is_boundedly_evaluable(
    query: QueryNode,
    db_schema: DatabaseSchema,
    access_schema: AccessSchema,
    budget: Optional[int] = None,
) -> bool:
    """Whether the generated plan for ``query`` uses access constraints only.

    ``budget`` defaults to an effectively unconstrained value so the check
    reflects the query/schema structure rather than a particular α.
    """
    budget = budget if budget is not None else 10**9
    plan = generate_plan(query, db_schema, access_schema, budget)
    return plan.boundedly_evaluable


def exact_plan(
    query: QueryNode,
    db_schema: DatabaseSchema,
    access_schema: AccessSchema,
    budget: Optional[int] = None,
) -> BoundedPlan:
    """The plan for ``query`` with every template accessor forced to its exact level.

    The resulting plan fetches values with resolution 0 everywhere, i.e. it
    computes exact answers; its tariff is the cost of exactness.
    """
    budget = budget if budget is not None else 10**12
    plan = generate_plan(query, db_schema, access_schema, budget)
    for step in plan.fetch_plan:
        if step.accessor.family is not None:
            step.accessor.level = step.accessor.family.max_level
    plan.eta = 1.0
    return plan


def alpha_exact(
    query: QueryNode,
    database: Database,
    access_schema: AccessSchema,
) -> float:
    """The smallest resource ratio at which BEAS answers ``query`` exactly.

    The smallest ``α`` whose budget ``⌊α·|D|⌋`` (:meth:`Database.budget_for`)
    covers the tariff ``T`` of the exact plan.  ``T/|D|`` itself is not
    enough: the product can round down, and the budget it floors to is then
    ``T - 1``, one tuple short of the exact plan.  Boundedly evaluable
    queries give very small ratios that shrink as ``|D|`` grows (the tariff
    is independent of ``|D|``), which is the trend Fig 6(j) reports.
    """
    plan = exact_plan(query, database.schema, access_schema)
    total = max(1, database.total_tuples)
    tariff = max(1, plan.tariff)
    # The tariff is a worst-case product of cardinality bounds and can exceed
    # |D|.  The engine has no scan plan, so no α ≤ 1 affords such a plan; the
    # ratio is capped at 1 all the same (ROADMAP item 21).
    if tariff >= total:
        return 1.0
    alpha = tariff / total
    while database.budget_for(alpha) < tariff:
        alpha = math.nextafter(alpha, 1.0)
    return alpha
