"""Test-only oracle: chAT and ``L`` written the straightforward way.

Every candidate upgrade re-prices the whole plan from its sources,
rebuilds the whole resolution map and re-walks the AST.  Nothing here calls
``repro.core.chat``, ``repro.core.lower_bound`` or ``FetchPlan.tariff`` /
``resolution_map``, so ``tests/test_chat_oracle.py`` can hold the incremental
implementation under ``src/`` to it: same levels, same tariff, same η.
"""

from repro.algebra.aggregates import AggregateFunction
from repro.algebra.ast import Difference, GroupBy, Select, Union, resolve_attribute


def tariff(plan):
    sizes, total = {}, 0
    for step in plan.steps:
        inputs = 1
        for name in {source.step for source in step.sources if source.kind != "const"}:
            inputs *= max(1, sizes.get(name, 1))
        sizes[step.name] = inputs * step.accessor.n
        total += sizes[step.name]
    return total


def resolutions(plan):
    worst = {}
    for step in plan.steps:
        accessor = step.accessor
        for attribute in accessor.x + accessor.y:
            exact = accessor.constraint or attribute in accessor.family.x
            value = 0.0 if exact else float(accessor.family.resolution(accessor.level).get(attribute, 0.0))
            key = f"{step.alias}.{attribute}"
            worst[key] = max(worst.get(key, 0.0), value)
    return worst


def worst_distance(node, fetched, schema):
    if isinstance(node, (Union, Difference)):
        return max(worst_distance(node.left, fetched, schema), worst_distance(node.right, fetched, schema))
    body = node.child if isinstance(node, GroupBy) else node
    names = set()
    for current in body.walk():
        if isinstance(current, Select):
            below = current.child.output_schema(schema)
            names.update(resolve_attribute(below, ref) for ref in current.condition.attributes())
    if isinstance(node, GroupBy):
        counted = node.aggregate is AggregateFunction.COUNT
        refs = node.group_columns + (() if counted else (node.agg_column,))
        names.update(resolve_attribute(body.output_schema(schema), ref) for ref in refs)
    else:
        names.update(node.output_schema(schema).attribute_names)
    return max((float(fetched.get(name, 0.0)) for name in names), default=0.0)


def lower_bound(plan, query, schema):
    return 1.0 / (1.0 + worst_distance(query, resolutions(plan), schema))


def chat(plan, query, budget, schema):
    """Greedy ascent on ``plan`` in place; returns η."""
    eta = lower_bound(plan, query, schema)
    while True:
        best = None  # (-gain, tariff, index)
        for index, step in enumerate(plan.steps):
            if not step.accessor.can_upgrade():
                continue
            step.accessor.level += 1
            price = tariff(plan)
            key = (-(lower_bound(plan, query, schema) - eta), price, index)
            step.accessor.level -= 1
            if price <= budget and (best is None or key < best):
                best = key
        if best is None:
            return eta
        plan.steps[best[2]].accessor.level += 1
        eta = lower_bound(plan, query, schema)
