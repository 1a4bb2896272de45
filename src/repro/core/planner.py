"""Shared plan-generation pipeline used by BEAS_SPC / BEAS_RA / BEAS_agg.

All three approximation schemes follow the same two steps (Sections 5–7):

1. For every maximal SPC sub-query, build its tableau, chase it under the
   access schema within the budget, and derive the fetching plan; the plans
   are concatenated (with distinct step names) into the fetching plan of the
   whole query.  Each sub-query's atoms carry aliases of their own
   (:func:`~repro.algebra.spc.scope_aliases` renames those a set operation's
   later branch reuses), so an atom's constants, attributes and frame step
   are recorded once, by the sub-query that owns it.
2. Run chAT to upgrade the plan's access templates greedily while keeping the
   tariff within ``B = α·|D|``, and derive the accuracy lower bound ``η``
   from the resolutions of the accessors finally chosen.

The result is a :class:`~repro.core.plan.BoundedPlan` holding everything the
executor needs.  Plan generation never touches the database instance — it
only reads the access schema's constants and resolutions — mirroring the
paper's requirement that ``Γ_A`` computes ``ξ_α`` without accessing ``D``.
"""

from __future__ import annotations

from typing import Dict, List

from ..access.schema import AccessSchema
from ..algebra.ast import GroupBy, Project, QueryNode, Select, check_difference_types
from ..algebra.predicates import AttrRef
from ..algebra.spc import max_spc_subqueries, scope_aliases, to_spc
from ..algebra.tableau import build_tableau
from ..errors import PlanError, QueryError
from ..relational.schema import DatabaseSchema
from .chase import Chaser
from .chat import choose_access_templates
from .fetch_plan import atom_constants, fetch_plan_from_chase, needed_attributes
from .plan import BoundedPlan, FetchPlan


def _referenced_attributes(query: QueryNode) -> List[AttrRef]:
    """Every attribute reference appearing anywhere in the query.

    Used to make sure each SPC sub-query's fetching plan also covers
    attributes that only *outer* operators need — e.g. the aggregate column
    of a group-by sitting above the SPC block, or the projection columns of a
    query whose top-level operator is a union or difference.
    """
    refs: List[AttrRef] = []
    for node in query.walk():
        if isinstance(node, Select):
            refs.extend(node.condition.attributes())
        elif isinstance(node, Project):
            refs.extend(node.columns)
        elif isinstance(node, GroupBy):
            refs.extend(node.group_columns)
            refs.append(node.agg_column)
    return refs


def generate_plan(
    query: QueryNode,
    db_schema: DatabaseSchema,
    access_schema: AccessSchema,
    budget: int,
) -> BoundedPlan:
    """Generate an α-bounded plan (fetching plan + bound η) for any RA_aggr query."""
    if budget <= 0:
        raise PlanError(f"budget must be positive, got {budget}")
    check_difference_types(query, db_schema)  # no plan at any budget

    query = scope_aliases(query)
    subqueries = max_spc_subqueries(query)
    if not subqueries:
        raise QueryError("query contains no SPC sub-queries to plan for")

    combined = FetchPlan()
    constants: Dict[str, Dict[str, object]] = {}
    needed: Dict[str, List[str]] = {}
    remaining = budget

    global_refs = _referenced_attributes(query)

    for index, subquery in enumerate(subqueries, start=1):
        spc = to_spc(subquery)
        # Extend the sub-query's output with any attribute the full query
        # references on this sub-query's atoms, so the chase covers (and the
        # fetching plan retrieves) everything downstream operators touch.
        for ref in global_refs:
            if ref.alias in spc.atoms and ref not in spc.output:
                spc.output += (ref,)
        tableau = build_tableau(spc, db_schema)
        prefix = "T" if len(subqueries) == 1 else f"S{index}_T"
        chaser = Chaser(tableau, access_schema, max(1, remaining), name_prefix=prefix)
        sub_plan = fetch_plan_from_chase(tableau, chaser.run())
        combined.steps.extend(sub_plan.steps)
        combined.frames.update(sub_plan.frames)
        remaining = max(1, budget - combined.tariff())
        constants.update(atom_constants(tableau))
        needed.update(needed_attributes(tableau))

    eta = choose_access_templates(combined, query, budget, db_schema)

    return BoundedPlan(
        query=query,
        fetch_plan=combined,
        budget=budget,
        eta=eta,
        constants=constants,
        needed_attributes=needed,
    )
