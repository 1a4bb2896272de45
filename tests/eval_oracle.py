"""Test-only oracle: plan and exact evaluation written out row by row.

No ``Evaluator`` and no compiled operator: every sub-query is evaluated where
it is named — the set-difference guard evaluates ``Q2`` and then ``Q̂2``, the
η′ refinement evaluates ``Q̂`` from scratch — every atom carries all of its
columns through every join until the final projection, selections test one
row at a time with the row-level predicates, joins and the guard are nested
scans over :func:`repro.relational.kernels.pair_within`, and η′ is
``refine_oracle``'s nested scan.  :func:`naive_radius_matches`, the same
nested scan, is the reference for ``RadiusMatcher.matches``.  Only the data
comes from ``src``: the base relations, and for a bounded answer the
per-atom frames ``PlanExecutor.fetch`` leaves (``tests/test_index_oracle.py``
holds the fetch to its own oracle).  ``tests/test_eval_oracle.py`` holds
``repro.algebra.evaluator`` and ``repro.core.executor`` to it: same rows in
the same order, same weights, same ``repr(η)``.

What it shares with ``src`` is the semantics it spells out: the join order
(the smallest atom first, then along the first equality predicate that
connects, a product with the smallest remaining atom where none does), a
root SPC query without an output list keeping its columns in that order, and
the guard's Section 6 rule.
"""

from repro.algebra.ast import Difference, GroupBy, Product, Project, Rename, Select, Union
from repro.algebra.evaluator import _relaxed_attr_attr, _relaxed_attr_const
from repro.algebra.predicates import AttrRef, resolve_position
from repro.algebra.spc import maximal_induced_query, to_spc
from repro.core.executor import PlanExecutor
from repro.relational.database import AccessMeter
from repro.relational.distance import INFINITY
from repro.relational.kernels import pair_within
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema

import refine_oracle


class Table:
    """Rows under a schema, with per-row weights (what ``Frame`` is to ``src``)."""

    def __init__(self, name, attributes, rows, weights):
        self.schema = RelationSchema(name, attributes)
        self.rows = rows
        self.weights = weights

    def __len__(self):
        return len(self.rows)

    def position(self, ref):
        return resolve_position(self.schema, ref)

    def name(self, ref):
        return self.schema.attribute_names[self.position(ref)]

    def to_relation(self, distinct):
        relation = Relation(self.schema, self.rows)
        return relation.distinct() if distinct else relation


def naive_radius_matches(values, rows, positions, distances, thresholds):
    """The indices of the ``rows`` within every per-key threshold of ``values``, in row order."""
    return [index for index, row in enumerate(rows) if pair_within(values, row, positions, distances, thresholds)]


def _kept(table, kept):
    """The rows of ``table`` at ``kept``, with their weights."""
    rows, weights = [table.rows[i] for i in kept], [table.weights[i] for i in kept]
    return Table(table.schema.name, table.schema.attributes, rows, weights)


class _Oracle:
    def __init__(self, db_schema, scan, relaxation):
        self.db_schema = db_schema
        self.scan = scan  # (alias, relation) -> Table of the atom's rows
        self.relaxation = relaxation

    def slack(self, *names):
        slack = sum(self.relaxation.get(name, 0.0) for name in names)
        return 0.0 if slack == INFINITY else slack

    # -- predicates, one row at a time ------------------------------------------
    def row_test(self, table, comparison):
        """``comparison`` over ``table``'s rows, relaxed by the slack of the attributes it names."""
        comparison = comparison.normalized()
        op, names = comparison.op, table.schema.attribute_names
        if comparison.is_attr_const:
            (ref,) = comparison.attributes()
            position, constant = table.position(ref), comparison.constant()
            slack = self.slack(names[position])
            if slack <= 0:
                return lambda row: op.evaluate(row[position], constant)
            distance = table.schema.attributes[position].distance
            return lambda row: _relaxed_attr_const(row[position], op, constant, slack, distance)
        left, right = (table.position(ref) for ref in comparison.attributes())
        slack = self.slack(names[left], names[right])
        if slack <= 0:
            return lambda row: op.evaluate(row[left], row[right])
        distance = table.schema.attributes[left].distance
        return lambda row: _relaxed_attr_attr(row[left], row[right], op, slack, distance)

    def filtered(self, table, comparisons):
        tests = [self.row_test(table, comparison) for comparison in comparisons]
        return _kept(table, [i for i, row in enumerate(table.rows) if all(test(row) for test in tests)])

    # -- operators ----------------------------------------------------------------
    def evaluate(self, node, root=True):
        if node.is_spc():
            return self.spc(node, root)
        if isinstance(node, Union):
            left, right = self.evaluate(node.left, False), self.evaluate(node.right, False)
            rows, weights, seen = [], [], set()
            for table in (left, right):
                for row, weight in zip(table.rows, table.weights):
                    if row not in seen:
                        seen.add(row)
                        rows.append(row)
                        weights.append(weight)
            return Table(left.schema.name, left.schema.attributes, rows, weights)
        if isinstance(node, Difference):
            return self.difference(node)
        if isinstance(node, GroupBy):
            return self.group_by(node)
        if isinstance(node, Project):
            child = self.evaluate(node.child, False)
            positions = [child.position(ref) for ref in node.columns]
            attributes = [child.schema.attributes[p] for p in positions]
            return Table("π", attributes, [tuple(row[p] for p in positions) for row in child.rows], child.weights)
        if isinstance(node, Select):
            return self.filtered(self.evaluate(node.child, False), node.condition)
        if isinstance(node, Rename):
            child = self.evaluate(node.child, False)
            schema = node.output_schema(self.db_schema)
            return Table(schema.name, schema.attributes, child.rows, child.weights)
        if isinstance(node, Product):
            return self.join(self.evaluate(node.left, False), self.evaluate(node.right, False), [], [], "×")
        raise AssertionError(f"unsupported node {node!r}")

    def join(self, left, right, keys_left, keys_right, name="⋈"):
        """Every ``(left row, right row)`` pair within the keys' slack, left-major."""
        positions_left = [left.schema.position(key) for key in keys_left]
        positions_right = [right.schema.position(key) for key in keys_right]
        slack = [self.slack(kl, kr) for kl, kr in zip(keys_left, keys_right)]
        rows, weights = [], []
        if any(slack):
            distances = [left.schema.attribute(key).distance for key in keys_left]
            for lrow, lweight in zip(left.rows, left.weights):
                values = [lrow[p] for p in positions_left]
                for rrow, rweight in zip(right.rows, right.weights):
                    if pair_within(values, rrow, positions_right, distances, slack):
                        rows.append(lrow + rrow)
                        weights.append(lweight * rweight)
        else:
            # Strict keys match as dictionary keys do (``1 == 1.0``; a NaN
            # read from a typed column never equals itself).
            buckets = {}
            for j, rrow in enumerate(right.rows):
                buckets.setdefault(tuple(rrow[p] for p in positions_right), []).append(j)
            for lrow, lweight in zip(left.rows, left.weights):
                key = tuple(lrow[p] for p in positions_left)
                for j in buckets.get(key, []) if positions_left else range(len(right)):
                    rows.append(lrow + right.rows[j])
                    weights.append(lweight * right.weights[j])
        return Table(name, left.schema.attributes + right.schema.attributes, rows, weights)

    def spc(self, node, root):
        query = to_spc(node)
        atoms = {}
        for alias, relation in query.atoms.items():
            table = self.scan(alias, relation)
            local = []
            for comparison in query.condition:
                comparison = comparison.normalized()
                if comparison.is_attr_const:
                    (ref,) = comparison.attributes()
                    if ref.alias == alias or (ref.alias is None and f"{alias}.{ref.attribute}" in table.schema):
                        local.append(comparison)
            atoms[alias] = self.filtered(table, local)

        equalities = [c for c in query.join_predicates() if c.op.is_equality]
        remaining = dict(atoms)
        first = min(remaining, key=lambda alias: len(remaining[alias]))
        current, joined = remaining.pop(first), [first]
        while remaining:
            following = None
            for comparison in equalities:
                left, right = comparison.attributes()
                if left.alias in joined and right.alias in remaining:
                    following = right.alias
                elif right.alias in joined and left.alias in remaining:
                    following = left.alias
                if following is not None:
                    break
            if following is None:
                following = min(remaining, key=lambda alias: len(remaining[alias]))
            other = remaining.pop(following)
            keys_left, keys_right = [], []
            for comparison in equalities:
                left, right = comparison.attributes()
                if left.alias in joined and right.alias == following:
                    keys_left.append(current.name(left))
                    keys_right.append(other.name(right))
                elif right.alias in joined and left.alias == following:
                    keys_left.append(current.name(right))
                    keys_right.append(other.name(left))
            current = self.join(current, other, keys_left, keys_right, "⋈" if keys_left else "×")
            joined.append(following)

        current = self.filtered(current, [c for c in query.condition if c.is_attr_attr])
        output = query.output
        if not output and not root and len(atoms) > 1:
            # An operand's columns follow the order of the query's atoms, not the join order.
            output = tuple(AttrRef.parse(name) for table in atoms.values() for name in table.schema.attribute_names)
        if not output:
            return current
        positions = [current.position(ref) for ref in output]
        attributes = [current.schema.attributes[p] for p in positions]
        return Table("π", attributes, [tuple(row[p] for p in positions) for row in current.rows], current.weights)

    def difference(self, node):
        left, right = self.evaluate(node.left, False), self.evaluate(node.right, False)
        if all(self.relaxation.get(name, 0.0) == 0.0 for name in right.schema.attribute_names):
            removed = set(right.rows)
            kept = [i for i, row in enumerate(left.rows) if row not in removed]
        else:
            induced = self.evaluate(maximal_induced_query(node.right), False)
            thresholds = [self.relaxation.get(name, 0.0) for name in induced.schema.attribute_names]
            distances = [attribute.distance for attribute in left.schema.attributes]
            positions = list(range(len(distances)))
            kept = [
                i
                for i, row in enumerate(left.rows)
                if not any(pair_within(row, other, positions, distances, thresholds) for other in induced.rows)
            ]
        return _kept(left, kept)

    def group_by(self, node):
        child = self.evaluate(node.child, False)
        group = [child.position(ref) for ref in node.group_columns]
        value = child.position(node.agg_column)
        groups = {}
        for row, weight in zip(child.rows, child.weights):
            groups.setdefault(tuple(row[p] for p in group), []).append((row[value], weight))
        rows = [key + (node.aggregate.apply_weighted(pairs),) for key, pairs in groups.items()]
        schema = node.output_schema(self.db_schema)
        return Table(schema.name, schema.attributes, rows, [1.0] * len(rows))


def _database_scan(database):
    def scan(alias, relation):
        base = database.relation(relation)
        attributes = [Attribute(f"{alias}.{a.name}", a.distance) for a in base.schema.attributes]
        return Table(alias, attributes, list(base.rows), [1.0] * len(base))

    return scan


def _fetched_scan(atom_frames, needed):
    """An atom's fetched rows, narrowed to the attributes the plan needs of it, in relation order."""

    def scan(alias, relation):
        frame = atom_frames[alias]
        names = frame.schema.attribute_names
        wanted = needed.get(alias, ())
        keep = [p for p, name in enumerate(names) if name.split(".", 1)[1] in wanted] or range(len(names))
        attributes = [frame.schema.attributes[p] for p in keep]
        return Table(alias, attributes, [tuple(row[p] for p in keep) for row in frame.rows], list(frame.weights))

    return scan


def exact_frame(node, database):
    """The table (bag, with weights) of ``node`` over the whole database."""
    return _Oracle(database.schema, _database_scan(database), {}).evaluate(node)


class _FetchedData:
    """What ``refine_oracle`` needs of an executor: the fetched data's resolutions and an evaluation over it."""

    def __init__(self, database, plan, budget):
        executor = PlanExecutor(database, plan, AccessMeter(budget=budget))
        executor.fetch()
        self.resolutions = executor.resolutions
        self.accessed = executor.meter.accessed
        scan = _fetched_scan(executor._atom_frames, plan.needed_attributes)
        self.oracle = _Oracle(database.schema, scan, self.resolutions)

    def evaluate(self, query):
        return self.oracle.evaluate(query).to_relation(distinct=not isinstance(query, GroupBy))


def answer(beas, ast, alpha):
    """``(rows, η, tuples accessed, table)`` of the bounded answer (no table when the budget refuses the plan)."""
    database = beas.database
    budget = database.budget_for(alpha)
    plan = beas._plan_ast(ast, budget)
    if plan.tariff > budget:
        return Relation(ast.output_schema(database.schema)), 0.0, 0, None
    fetched = _FetchedData(database, plan, budget)
    table = fetched.oracle.evaluate(ast)
    rows = table.to_relation(distinct=not isinstance(ast, GroupBy))
    eta = refine_oracle.refine_bound_with_induced(plan, fetched, database, rows)
    return rows, eta, fetched.accessed, table
