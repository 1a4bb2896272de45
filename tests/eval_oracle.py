"""Test-only oracle: plan and exact evaluation the straightforward way.

Every sub-query is evaluated where it is named — the set-difference guard
evaluates ``Q2`` and then ``Q̂2``, the η′ refinement evaluates ``Q̂`` from
scratch — and every atom carries all of its columns through every join until
the final projection.  No frame is remembered and no column is dropped, so
``tests/test_eval_oracle.py`` can hold ``repro.core.executor`` (one frame per
distinct sub-query per answer) and ``Evaluator._eval_spc`` (joins carry live
columns only) to it: same rows in the same order, same weights, same
``repr(η)``.
"""

from repro.algebra.ast import GroupBy, Scan
from repro.algebra.evaluator import DatabaseProvider, Evaluator, MappingProvider
from repro.algebra.predicates import Conjunction
from repro.algebra.spc import maximal_induced_query
from repro.core.beas_ra import refine_bound_with_induced
from repro.core.executor import PlanExecutor
from repro.relational.database import AccessMeter
from repro.relational.kernels import RadiusMatcher
from repro.relational.relation import Relation


class OracleEvaluator(Evaluator):
    """``Evaluator`` with the SPC evaluation that carries every column."""

    def _eval_spc(self, query):
        frames = {}
        for alias, relation_name in query.atoms.items():
            frame = self._scan_frame(Scan(relation_name, alias))
            local = self._local_condition(query, alias, frame.schema)
            if local:
                frame = self._filter(frame, local)
            frames[alias] = frame
        joined = self._join_all(frames, query)
        residual = [c for c in query.condition if c.is_attr_attr]
        if residual:
            joined = self._filter(joined, Conjunction.of(residual))
        if query.output:
            joined = self._project_frame(joined, query.output)
        return joined


class OracleBeasEvaluator(OracleEvaluator):
    """The set-difference guard of ``Evaluator``, every operand evaluated on the spot."""

    def _eval_difference(self, node):
        left = self._eval(node.left)
        right_exact = self._eval(node.right)
        positions = list(range(len(left.schema)))
        if all(self.relaxation.get(name, 0.0) == 0.0 for name in right_exact.schema.attribute_names):
            return self._strict_difference(left, right_exact)
        right = self._eval(maximal_induced_query(node.right))
        thresholds = [self.relaxation.get(name, 0.0) for name in right.schema.attribute_names]
        distances = [attribute.distance for attribute in left.schema.attributes]
        guard = RadiusMatcher.from_store(right.store, list(range(len(distances))), distances, thresholds)
        hits = guard.any_match_many(list(left.store.key_tuples(positions)))
        return self._kept_frame(left, [index for index, hit in enumerate(hits) if not hit])


def exact_frame(node, database):
    """The frame (bag, with weights) of ``node`` over the whole database."""
    return OracleEvaluator(database.schema, DatabaseProvider(database)).evaluate_frame(node)


class _FetchedData:
    """What ``refine_bound_with_induced`` needs of an executor, evaluated by the oracle."""

    def __init__(self, database, plan, budget):
        self.executor = PlanExecutor(database, plan, AccessMeter(budget=budget))
        self.executor.fetch()
        self.resolutions = self.executor.resolutions
        self.accessed = self.executor.meter.accessed
        self._database, self._plan = database, plan

    def evaluator(self):
        return OracleBeasEvaluator(
            self._database.schema,
            MappingProvider(self.executor._atom_frames),
            relaxation=self.resolutions,
            needed_attributes=self._plan.needed_attributes,
        )

    def evaluate(self, query):
        return self.evaluator().evaluate(query)


def answer(beas, ast, alpha):
    """``(rows, η, tuples accessed, frame)`` of the bounded answer (no frame when the budget refuses the plan)."""
    database = beas.database
    budget = database.budget_for(alpha)
    plan = beas._plan_ast(ast, budget)
    if plan.tariff > budget:
        return Relation(ast.output_schema(database.schema)), 0.0, 0, None
    fetched = _FetchedData(database, plan, budget)
    frame = fetched.evaluator().evaluate_frame(ast)
    rows = frame.to_relation(distinct=not isinstance(ast, GroupBy))
    eta = plan.eta
    if ast.has_difference():
        eta = refine_bound_with_induced(plan, fetched, database, rows)
    return rows, eta, fetched.accessed, frame
