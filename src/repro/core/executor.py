"""Execution of bounded plans against a database (the ``ξ_E`` side of BEAS).

The :class:`PlanExecutor` runs a :class:`~repro.core.plan.BoundedPlan` in two
stages:

1. **Fetch** — execute the fetching plan step by step.  Each step derives its
   ``X``-values from constants and from the output columns of earlier steps,
   then fetches through the step's access-constraint or access-template index,
   charging every retrieved tuple to the access meter (so α-boundedness is
   enforced and measurable, not merely promised).  Each query atom's relation
   is then the frame of one of its steps — the last whose ``X ∪ Y`` spans the
   atom's non-constant cells — with its constant cells appended as columns.
2. **Evaluate** — hand those per-atom frames to the
   :class:`~repro.algebra.evaluator.Evaluator` with the plan's resolutions as
   its relaxation.  Every operator lives there: selections and joins relaxed
   by the resolutions of the templates used (Section 5), the set-difference
   guard (Section 6, Theorem 6(5)) and aggregates over representative weights
   (Section 7).  The executor holds no operator code.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from ..algebra.ast import QueryNode
from ..algebra.evaluator import Evaluator, Frame, MappingProvider
from ..errors import PlanError
from ..relational.database import AccessMeter, Database
from ..relational.relation import Relation
from ..relational.schema import Attribute, RelationSchema
from ..relational.store import ColumnStore
from .plan import BoundedPlan, FetchStep


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
        weights), and the frame is bulk-built from those columns as a
        :class:`~repro.relational.store.ColumnStore`, whatever the base
        relation's backend.  Frames are scratch data read in the caller, so
        they neither map a file nor keep a shard layout.
        """
        schema = self._step_schema(step)
        columns, weights = step.accessor.fetch_columns(self._input_values(step), self.meter)
        return Frame(schema, weights=weights, store=ColumnStore.from_columns(len(schema), columns))

    # -- stage 2: per-atom frames ----------------------------------------------------
    def _build_atom_frames(self) -> Dict[str, Frame]:
        frames: Dict[str, Frame] = {}
        for alias in self.plan.fetch_plan.aliases():
            frames[alias] = self._atom_frame(alias)
        return frames

    def _atom_frame(self, alias: str) -> Frame:
        steps = self.plan.fetch_plan.steps_for(alias)
        needed = self.plan.needed_attributes.get(alias, ())
        constants = self.plan.constants.get(alias, {})

        # The atom's relation is one step's frame, never a join of several:
        # two projections of a relation joined on a non-key attribute are not
        # the relation.  The chase guarantees such a step (phase 2 of
        # ``Chaser.run`` applies one whenever no step of the atom spans its
        # non-constant cells); the last one fetched is used.
        fetched = set(needed) - set(constants)
        spanning = [step for step in steps if fetched <= set(step.accessor.x + step.accessor.y)]
        if not spanning:
            raise PlanError(f"no fetch step of query atom {alias!r} spans {sorted(fetched)}")
        frame = self._step_frames[spanning[-1].name]

        # Re-materialise the constant cells the spanning step did not read.
        missing = [attribute for attribute in needed if f"{alias}.{attribute}" not in frame.schema]
        if not missing:
            return frame
        base = self.database.schema.relation(steps[0].relation)
        extra = tuple(
            Attribute(f"{alias}.{attribute}", base.attribute(attribute).distance) for attribute in missing
        )
        schema = RelationSchema(alias, frame.schema.attributes + extra)
        # Constant columns are appended column-wise on the frame's own
        # backend — the fetched buffers are reused, no row is rebuilt.
        columns = list(frame.store.columns()) + [[constants[attribute]] * len(frame) for attribute in missing]
        store = type(frame.store).from_columns(len(schema), columns)
        return Frame(schema, weights=frame.weights, store=store)

    # -- stage 3: evaluation ------------------------------------------------------------
    def evaluate(self, query: Optional[QueryNode] = None) -> Relation:
        """Evaluate ``query`` (default: the plan's query) over the fetched data."""
        return self._evaluator().evaluate(query if query is not None else self.plan.query)

    def _evaluator(self) -> Evaluator:
        """An evaluator over the fetched data (fetching first if needed)."""
        if self._atom_frames is None:
            self.fetch()
        return Evaluator(
            self.database.schema,
            MappingProvider(self._atom_frames),
            relaxation=self.resolutions,
            needed_attributes=self.plan.needed_attributes,
            frames=self._frames,
        )

    def execute(self) -> Relation:
        """Fetch (if needed) and evaluate the plan's query."""
        return self.evaluate(self.plan.query)

