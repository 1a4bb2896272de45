"""Execution of bounded plans against a database (the ``ξ_E`` side of BEAS).

The :class:`PlanExecutor` runs a :class:`~repro.core.plan.BoundedPlan` in two
stages:

1. **Fetch** — execute the fetching plan step by step.  Each step derives its
   ``X``-values from constants and from the output columns of earlier steps,
   then fetches through the step's access-constraint or access-template index,
   charging every retrieved tuple to the access meter (so α-boundedness is
   enforced and measurable, not merely promised).
2. **Evaluate** — run the query's own operators over the fetched per-atom
   relations with selections *relaxed* by the resolutions of the templates
   used (Section 5), set difference guarded through the maximal induced query
   and a distance filter so that no tuple of ``Q2(D)`` can survive
   (Section 6, Theorem 6(5)), and aggregates computed over representative
   weights (Section 7).
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..algebra.ast import Difference, QueryNode
from ..algebra.evaluator import Evaluator, Frame, MappingProvider
from ..algebra.spc import maximal_induced_query
from ..errors import PlanError
from ..relational.database import AccessMeter, Database
from ..relational.kernels import RadiusMatcher
from ..relational.relation import Relation
from ..relational.schema import Attribute, RelationSchema
from ..relational.store import Store, gather_columns
from .plan import BoundedPlan, FetchStep


class BeasEvaluator(Evaluator):
    """Evaluator with the BEAS set-difference guard.

    For ``Q = Q1 − Q2`` where ``Q2``'s data was fetched through access
    templates (non-zero resolution), plain set difference over approximate
    answers cannot guarantee Theorem 6(5) (``t ∈ Q2(D) ⇒ t ∉ ξ_α(D)``): a
    tuple of ``Q2(D)`` might not literally appear among the fetched
    approximations.  The guard therefore removes every ``Q1``-answer within
    the fetch resolution of *some* answer to the maximal induced query
    ``Q̂2`` — any real ``Q2`` answer is represented within that distance, so
    it is guaranteed to be filtered out.

    The within-resolution existence test runs through
    :class:`repro.relational.kernels.RadiusMatcher` (hash buckets and one
    sorted band with per-candidate checks instead of scanning every
    ``Q̂2`` answer per ``Q1`` answer), which indexes a shard-backed frame
    through its key columns like any store.  The set of surviving rows is
    identical to the nested-loop scan on every backend.

    ``frames`` (optional) memoises the frame of every sub-query evaluated:
    the guard evaluates ``Q2`` and then ``Q̂2`` — the same tree unless ``Q2``
    nests a difference — and the η′ refinement evaluates ``Q1`` again.
    Frames are never mutated, so one may go to two consumers.
    """

    def __init__(self, *args, frames: Optional[Dict[QueryNode, Frame]] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._frames = frames

    def _eval(self, node: QueryNode) -> Frame:
        frames = self._frames
        if frames is None:
            return super()._eval(node)
        frame = frames.get(node)
        if frame is None:
            frame = frames[node] = super()._eval(node)
        return frame

    def _eval_difference(self, node: Difference) -> Frame:
        left = self._eval(node.left)
        right_exact = self._eval(node.right)
        positions = list(range(len(left.schema)))
        thresholds_exact = [
            self.relaxation.get(name, 0.0) for name in right_exact.schema.attribute_names
        ]
        if all(t == 0.0 for t in thresholds_exact):
            return self._strict_difference(left, right_exact)

        induced = maximal_induced_query(node.right)
        right = self._eval(induced)
        thresholds = [
            self.relaxation.get(name, 0.0) for name in right.schema.attribute_names
        ]
        distances = [attribute.distance for attribute in left.schema.attributes]
        guard = RadiusMatcher.from_store(
            right.store, list(range(len(distances))), distances, thresholds
        )
        # Survivors are collected as indices (rows assembled column-wise for
        # the guard probes) and gathered out of the backend in one take.
        # The probes go through the guard's batch API, in the caller.
        hits = guard.any_match_many(list(left.store.key_tuples(positions)))
        keep = [index for index, hit in enumerate(hits) if not hit]
        return self._kept_frame(left, keep)


class PlanExecutor:
    """Executes a bounded plan: fetches data, then evaluates queries over it."""

    def __init__(
        self,
        database: Database,
        plan: BoundedPlan,
        meter: Optional[AccessMeter] = None,
    ) -> None:
        self.database = database
        self.plan = plan
        self.meter = meter
        self._step_frames: Dict[str, Frame] = {}
        self._atom_frames: Optional[Dict[str, Frame]] = None
        #: Per qualified attribute, the resolution the data was fetched with
        #: (set by :meth:`fetch`); every evaluation over the fetched data
        #: relaxes by these, whatever happens to the plan's levels later.
        self.resolutions: Dict[str, float] = {}
        #: Evaluated sub-query → frame, shared by every :meth:`evaluate` of
        #: this answer (one set of fetched frames, one relaxation map).  Only
        #: a set difference names a sub-query twice; no other tree is hashed.
        self._frames: Optional[Dict[QueryNode, Frame]] = {} if plan.query.has_difference() else None

    # -- stage 1: fetching --------------------------------------------------------
    def fetch(self) -> Dict[str, Frame]:
        """Run the fetching plan; returns the per-step result frames."""
        for step in self.plan.fetch_plan:
            self._step_frames[step.name] = self._run_step(step)
        self._atom_frames = self._build_atom_frames()
        self.resolutions = self.plan.resolution_map()
        return self._step_frames

    def _step_schema(self, step: FetchStep) -> RelationSchema:
        base = self.database.schema.relation(step.relation)
        attrs = [
            Attribute(f"{step.alias}.{name}", base.attribute(name).distance)
            for name in step.accessor.x + step.accessor.y
        ]
        return RelationSchema(step.name, attrs)

    def _input_values(self, step: FetchStep) -> List[Tuple[object, ...]]:
        """All distinct ``X``-value combinations fed to the step's accessor.

        A constant supplies its attribute unless a producing step's column
        does; the distinct values of each producing step (read column-wise,
        in first-seen order) are combined as a product, first step slowest.
        """
        constants: Dict[str, object] = {}
        by_step: Dict[str, List[Tuple[str, str]]] = {}
        for source in step.sources:
            if source.kind == "const":
                constants[source.attribute] = source.value
            else:
                by_step.setdefault(source.step, []).append((source.attribute, source.column))

        x_order = step.accessor.x
        # Where each X attribute is read from: (producing group, place in its tuples).
        origin: Dict[str, Tuple[int, int]] = {}
        groups: List[List[Tuple[object, ...]]] = []
        for step_name, pairs in by_step.items():
            frame = self._step_frames.get(step_name)
            if frame is None:
                raise PlanError(f"fetch step {step.name} reads from {step_name} before it ran")
            positions = [frame.schema.position(column) for _, column in pairs]
            supplied = tuple(attribute for attribute, _ in pairs)
            origin.update((attribute, (len(groups), place)) for place, attribute in enumerate(supplied))
            groups.append(list(dict.fromkeys(frame.key_tuples(positions))))
        if not groups:
            return [tuple(constants[a] for a in x_order)]
        if len(groups) == 1 and supplied == x_order:
            return groups[0]

        combinations = list(itertools.product(*groups))
        if not combinations:
            return []
        parts = list(zip(*combinations))
        columns = [
            map(itemgetter(origin[a][1]), parts[origin[a][0]])
            if a in origin
            else itertools.repeat(constants[a], len(combinations))
            for a in x_order
        ]
        return list(dict.fromkeys(zip(*columns)))

    def _run_step(self, step: FetchStep) -> Frame:
        """Fetch one step's tuples into a frame.

        The accessor emits the whole step — every ``X``-value's sample —
        column-wise (one value list per ``X ∪ Y`` attribute plus the
        weights), and the frame is bulk-built from those columns on the
        base relation's in-memory twin
        (:meth:`~repro.relational.store.Store.in_memory_class`): a row store
        for a row-backed relation, a :class:`ColumnStore
        <repro.relational.store.ColumnStore>` for column, mmap and sharded
        ones.  Frames are scratch data read in the caller, so they neither
        map a file nor keep a shard layout.
        """
        schema = self._step_schema(step)
        columns, weights = step.accessor.fetch_columns(self._input_values(step), self.meter)
        # Use the base relation's store *class* directly rather than looking
        # its backend name up in the registry — a relation may be backed by
        # an unregistered store (e.g. an unregistered ShardedStore.configured
        # variant adopted via Relation(schema, store=...)).
        store_cls = type(self.database.relation(step.relation).store).in_memory_class()
        return Frame(schema, weights=weights, store=store_cls.from_columns(len(schema), columns))

    # -- stage 2: per-atom frames ----------------------------------------------------
    def _build_atom_frames(self) -> Dict[str, Frame]:
        frames: Dict[str, Frame] = {}
        for alias in self.plan.fetch_plan.aliases():
            frames[alias] = self._atom_frame(alias)
        return frames

    def _atom_frame(self, alias: str) -> Frame:
        steps = self.plan.fetch_plan.steps_for(alias)
        if not steps:
            raise PlanError(f"no fetch steps for query atom {alias!r}")
        needed = set(self.plan.needed_attributes.get(alias, ()))
        constants = self.plan.constants.get(alias, {})

        # Prefer a single step that already spans every needed attribute (the
        # chase arranges for one); fall back to a natural join of the atom's
        # steps otherwise.
        spanning = [
            step
            for step in steps
            if needed - set(constants) <= set(step.accessor.x + step.accessor.y)
        ]
        if spanning:
            frame = self._step_frames[spanning[-1].name]
        else:
            frame = self._step_frames[steps[0].name]
            for step in steps[1:]:
                frame = self._natural_join(frame, self._step_frames[step.name])

        # Re-materialise constant attributes the fetches did not need to read.
        missing = [
            attribute
            for attribute in needed
            if f"{alias}.{attribute}" not in frame.schema
        ]
        if missing:
            base = self.database.schema.relation(
                self.plan.fetch_plan.steps_for(alias)[0].relation
            )
            extra_attrs = []
            extra_values = []
            for attribute in missing:
                if attribute not in constants:
                    raise PlanError(
                        f"attribute {alias}.{attribute} is needed by the query but was "
                        f"neither fetched nor fixed to a constant"
                    )
                extra_attrs.append(
                    Attribute(f"{alias}.{attribute}", base.attribute(attribute).distance)
                )
                extra_values.append(constants[attribute])
            schema = RelationSchema(alias, frame.schema.attributes + tuple(extra_attrs))
            # Constant columns are appended column-wise on the frame's own
            # backend — the fetched buffers are reused, no row is rebuilt.
            columns = list(frame.store.columns()) + [
                [value] * len(frame) for value in extra_values
            ]
            store = type(frame.store).from_columns(len(schema), columns)
            frame = Frame(schema, weights=list(frame.weights), store=store)
        return frame

    @staticmethod
    def _natural_join(left: Frame, right: Frame) -> Frame:
        common = [name for name in left.schema.attribute_names if name in right.schema]
        right_only = [name for name in right.schema.attribute_names if name not in left.schema]
        out_schema = RelationSchema(
            left.schema.name,
            left.schema.attributes
            + tuple(right.schema.attribute(name) for name in right_only),
        )
        left_indices: List[int] = []
        right_indices: List[int] = []
        if not common:
            # Cross product, with the same empty/singleton fast paths as
            # Evaluator._product (no quadratic index lists for trivial sides).
            size_left, size_right = len(left), len(right)
            if size_left and size_right:
                if size_right == 1:
                    left_indices = list(range(size_left))
                    right_indices = [0] * size_left
                elif size_left == 1:
                    left_indices = [0] * size_right
                    right_indices = list(range(size_right))
                else:
                    left_indices = [
                        i for i in range(size_left) for _ in range(size_right)
                    ]
                    right_indices = list(range(size_right)) * size_left
        else:
            # Join keys are read column-wise; matches are index pairs.
            left_positions = left.schema.positions(common)
            right_positions = right.schema.positions(common)
            buckets: Dict[Tuple[object, ...], List[int]] = {}
            for index, key in enumerate(right.key_tuples(right_positions)):
                buckets.setdefault(key, []).append(index)
            for index, key in enumerate(left.key_tuples(left_positions)):
                hits = buckets.get(key)
                if hits:
                    left_indices.extend([index] * len(hits))
                    right_indices.extend(hits)
        weights = [
            left.weights[i] * right.weights[j]
            for i, j in zip(left_indices, right_indices)
        ]
        # Output columns: all of the left side, then the right side's carried
        # columns, each gathered at its side's matched indices.
        sources: List[Tuple[Store, int, Sequence[int]]] = [
            (left.store, position, left_indices) for position in range(len(left.schema))
        ]
        sources += [
            (right.store, right.schema.position(name), right_indices)
            for name in right_only
        ]
        store = gather_columns(sources)
        return Frame(out_schema, weights=weights, store=store)

    # -- stage 3: evaluation ------------------------------------------------------------
    def evaluate(self, query: Optional[QueryNode] = None) -> Relation:
        """Evaluate ``query`` (default: the plan's query) over the fetched data."""
        return self._evaluator().evaluate(query if query is not None else self.plan.query)

    def _evaluator(self) -> BeasEvaluator:
        """An evaluator over the fetched data (fetching first if needed)."""
        if self._atom_frames is None:
            self.fetch()
        return BeasEvaluator(
            self.database.schema,
            MappingProvider(self._atom_frames),
            relaxation=self.resolutions,
            needed_attributes=self.plan.needed_attributes,
            frames=self._frames,
        )

    def execute(self) -> Relation:
        """Fetch (if needed) and evaluate the plan's query."""
        return self.evaluate(self.plan.query)


def execute_plan(
    database: Database, plan: BoundedPlan, meter: Optional[AccessMeter] = None
) -> Relation:
    """Convenience wrapper: execute a bounded plan end to end."""
    return PlanExecutor(database, plan, meter).execute()
