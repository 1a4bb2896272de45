"""Procedure chAT — choosing access templates under a budget (Fig. 3).

Starting from a fetching plan whose template accessors sit at level 0, chAT
repeatedly upgrades the template whose next level yields the largest
improvement of the accuracy lower bound ``L`` while keeping the plan's tariff
within the budget ``B = α·|D|``.  Upgrading a step doubles its own ``N`` and
therefore also the input bounds of every step downstream of it, so the tariff
is re-derived from the whole plan for every candidate upgrade rather than
locally.

The procedure terminates when no template can be upgraded without exceeding
the budget (or all templates are at their maximum level), and returns the
lower bound ``η`` of the final plan.

**Cost.**  Everything that depends on the query or on the plan's shape — not
on the levels chAT varies — is derived once per call: the attribute set ``L``
ranges over (:func:`~repro.core.lower_bound.bound_attributes`, the only AST
walk), which of those attributes each step fetches, and which earlier steps
feed each step (:meth:`~repro.core.plan.FetchPlan.producers`).  ``L`` is a
maximum over attributes of a maximum over the steps fetching them, i.e. a
maximum over steps of each step's own worst resolution, so the state chAT
carries is one float per step, and a candidate upgrade replaces exactly one
of them.  With ``S`` steps, an iteration prices at most ``S`` candidates at
``O(S)`` integer multiplications (tariff) plus ``O(S)`` float comparisons
(bound) each; a step's worst resolution at a level is looked up once and
kept.  There are at most ``Σ max_level`` iterations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..algebra.ast import QueryNode
from ..relational.schema import DatabaseSchema
from .lower_bound import bound_attributes, bound_of
from .plan import FetchPlan, size_bounds


def choose_access_templates(
    plan: FetchPlan,
    query: QueryNode,
    budget: int,
    db_schema: DatabaseSchema,
) -> float:
    """Run chAT on ``plan`` in place and return the resulting bound ``η``.

    Greedy ascent: in each iteration pick the fetch step whose next template
    level gives the largest increase of ``L`` among those that keep
    ``tariff(ξ_F) <= budget``; ties are broken by the smaller resulting
    tariff (cheaper upgrades first) and then by plan order.
    """
    steps = plan.steps
    attributes = bound_attributes(query, db_schema)
    # Per step, the fetched attributes L depends on.  Constraints and X
    # attributes are fetched exactly, so only a template's Y side can matter.
    bounded_by: List[Tuple[str, ...]] = [
        ()
        if step.accessor.is_constraint
        else tuple(
            attribute
            for attribute in step.accessor.y
            if attributes is None or f"{step.alias}.{attribute}" in attributes
        )
        for step in steps
    ]
    known: List[Dict[int, float]] = [{} for _ in steps]

    def worst_at(index: int, level: int) -> float:
        """Worst resolution among the step's bound-relevant attributes at ``level``."""
        value = known[index].get(level)
        if value is None:
            accessor = steps[index].accessor
            value = max((accessor.resolution_of(a, level) for a in bounded_by[index]), default=0.0)
            known[index][level] = value
        return value

    producers = plan.producers()
    ns = [step.accessor.n for step in steps]
    worst = [worst_at(index, step.accessor.level) for index, step in enumerate(steps)]
    eta = bound_of(max(worst, default=0.0))

    while True:
        best: Optional[Tuple[float, int, int]] = None  # (-gain, tariff, index)
        for index, step in enumerate(steps):
            accessor = step.accessor
            if not accessor.can_upgrade():
                continue
            current_n, ns[index] = ns[index], accessor.n_at(accessor.level + 1)
            new_tariff = sum(size_bounds(producers, ns))
            ns[index] = current_n
            if new_tariff > budget:
                continue
            current_worst, worst[index] = worst[index], worst_at(index, accessor.level + 1)
            gain = bound_of(max(worst)) - eta
            worst[index] = current_worst
            key = (-gain, new_tariff, index)
            if best is None or key < best:
                best = key
        if best is None:
            break
        index = best[2]
        accessor = steps[index].accessor
        accessor.level += 1
        ns[index] = accessor.n
        worst[index] = worst_at(index, accessor.level)
        eta = bound_of(max(worst))

    return eta
