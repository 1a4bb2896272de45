"""Execution of bounded plans against a database (the ``ξ_E`` side of BEAS).

A plan is a function of the query, the access schema and ``⌊α·|D|⌋``, so
everything an answer derives from the plan alone is derived once, by
:class:`CompiledPlan`: each fetch step's schema and where its ``X``-values come
from, the layout of each query atom's frame, the resolutions the data is
fetched with, the query compiled by the
:class:`~repro.algebra.evaluator.Evaluator` against them, and — for a query
with set difference — the η′ refinement's induced query with its distance
bounds (:class:`~repro.core.beas_ra.Refinement`).  :class:`~repro.core.framework.Beas` keeps the compiled form beside
the memoized plan, so a warm answer only fetches and runs.

The :class:`PlanExecutor` compiles the plan (unless handed its compiled form)
and runs it in two stages:

1. **Fetch** — execute the fetching plan step by step.  Each step derives its
   ``X``-values from constants and from the output columns of earlier steps,
   then fetches through the step's access-constraint or access-template index,
   charging every retrieved tuple to the access meter (so α-boundedness is
   enforced and measurable, not merely promised).  Each query atom's relation
   is then the frame of the step the chase named for it
   (:attr:`~repro.core.plan.FetchPlan.frames`) laid out as the atom's scans
   read it, with its constant cells filled in as columns.
2. **Evaluate** — run the compiled query over those per-atom frames.  Every
   operator lives in the evaluator: selections and joins relaxed by the
   resolutions of the templates used (Section 5), the set-difference guard
   (Section 6, Theorem 6(5)) and aggregates over representative weights
   (Section 7).  The executor holds no operator code.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from ..algebra.ast import GroupBy, QueryNode
from ..algebra.evaluator import Evaluator, Frame, Frames, MappingProvider
from ..algebra.spc import classify
from ..errors import EvaluationError, PlanError
from ..relational.database import AccessMeter, Database
from ..relational.relation import Relation
from ..relational.schema import Attribute, DatabaseSchema, RelationSchema
from ..relational.store import ColumnStore
from .beas_ra import Refinement
from .plan import BoundedPlan, FetchStep


class _Inputs:
    """Where one fetch step's ``X``-values come from.

    A constant supplies its attribute unless a producing step's column does;
    ``groups`` lists each producing step with the positions of the columns
    it supplies, and ``origin`` maps an ``X`` attribute to ``(group, place)``.
    """

    __slots__ = ("x", "constants", "groups", "origin", "whole")

    def __init__(self, step: FetchStep, schema_of: Callable[[str], Optional[RelationSchema]]) -> None:
        self.x = step.accessor.x
        self.constants: Dict[str, object] = {}
        by_step: Dict[str, List[Tuple[str, str]]] = {}
        for source in step.sources:
            if source.kind == "const":
                self.constants[source.attribute] = source.value
            else:
                by_step.setdefault(source.step, []).append((source.attribute, source.column))
        self.groups: List[Tuple[str, List[int]]] = []
        self.origin: Dict[str, Tuple[int, int]] = {}
        supplied: Tuple[str, ...] = ()
        for step_name, pairs in by_step.items():
            schema = schema_of(step_name)
            if schema is None:
                raise PlanError(f"fetch step {step.name} reads from {step_name} before it ran")
            supplied = tuple(attribute for attribute, _ in pairs)
            self.origin.update((attribute, (len(self.groups), place)) for place, attribute in enumerate(supplied))
            self.groups.append((step_name, [schema.position(column) for _, column in pairs]))
        #: One producing step supplies exactly ``X``, in order: its key tuples are the values.
        self.whole = len(self.groups) == 1 and supplied == self.x


class _AtomLayout:
    """How one query atom's frame is laid out from its frame step's frame.

    ``schema`` is the scan schema the compiled query reads the atom under;
    ``picks[i]`` is the step-frame position of its ``i``-th column, or
    ``None`` where the constant ``constants[i]`` fills it.  ``picks`` is
    ``None`` when the step frame already has the scan's layout.
    """

    __slots__ = ("step", "schema", "picks", "constants")

    def __init__(
        self,
        step: str,
        schema: RelationSchema,
        picks: Optional[List[Optional[int]]],
        constants: List[object],
    ) -> None:
        self.step = step
        self.schema = schema
        self.picks = picks
        self.constants = constants


class CompiledPlan:
    """Everything an answer derives from a :class:`BoundedPlan` alone.

    Holds schemas, positions, bound mask programs and numbers — never a
    frame, a fetched column or a result — so it can live beside the plan
    in the plan memo for as long as the plan does.
    """

    def __init__(self, db_schema: DatabaseSchema, plan: BoundedPlan) -> None:
        query = plan.query
        #: Per qualified attribute, the resolution the data is fetched with.
        self.resolutions = plan.resolution_map()
        # Step columns reuse the query's own attribute objects where it has them.
        known = {
            attribute.name: attribute
            for scan in query.scans()
            for attribute in scan.output_schema(db_schema).attributes
        }
        self.step_schemas = {step.name: _step_schema(db_schema, step, known) for step in plan.fetch_plan}
        self.inputs = {step.name: _Inputs(step, self.step_schemas.get) for step in plan.fetch_plan}

        evaluator = Evaluator(db_schema, relaxation=self.resolutions, needed_attributes=plan.needed_attributes)
        self.root = evaluator.compile(query)
        self.distinct = not isinstance(query, GroupBy)
        self.query_class = classify(query)
        #: The η′ refinement of a query with set difference; ``Q̂`` is compiled
        #: with ``Q``, so the two share the frames of their common sub-queries.
        self.refinement: Optional[Refinement] = None
        if query.has_difference():
            self.refinement = Refinement(query, self.resolutions, db_schema)
            self.induced = evaluator.compile(self.refinement.induced_query)
        self.slots = evaluator.slots
        self.atoms = {alias: self._layout(plan, alias, evaluator.scan_schemas) for alias in plan.fetch_plan.frames}

    def _layout(
        self, plan: BoundedPlan, alias: str, scan_schemas: Dict[Tuple[str, str], RelationSchema]
    ) -> _AtomLayout:
        # The atom's relation is one step's frame, never a join of several:
        # two projections of a relation joined on a non-key attribute are not
        # the relation.  The chase names that step (``FetchPlan.frames``) and
        # its phase 2 guarantees it spans the atom's non-constant cells.
        step = plan.fetch_plan.step(plan.fetch_plan.frames[alias])
        scan_schema = scan_schemas[(step.relation, alias)]
        constants = plan.constants.get(alias, {})
        fetched_schema = self.step_schemas[step.name]

        # The constant cells the frame step did not read are filled in.
        picks: List[Optional[int]] = []
        values: List[object] = []
        for name in scan_schema.attribute_names:
            attribute = name.split(".", 1)[1]
            if name in fetched_schema:
                picks.append(fetched_schema.position(name))
                values.append(None)
            elif attribute in constants:
                picks.append(None)
                values.append(constants[attribute])
            else:
                raise EvaluationError(f"fetched data for atom {alias!r} is missing attribute {name!r}")
        if picks == list(range(len(fetched_schema))):
            return _AtomLayout(step.name, scan_schema, None, [])
        return _AtomLayout(step.name, scan_schema, picks, values)


def _step_schema(db_schema: DatabaseSchema, step: FetchStep, known: Dict[str, Attribute]) -> RelationSchema:
    base = db_schema.relation(step.relation)
    attrs = []
    for name in step.accessor.x + step.accessor.y:
        qualified = f"{step.alias}.{name}"
        attribute = known.get(qualified)
        if attribute is None or attribute.distance is not base.attribute(name).distance:
            attribute = Attribute(qualified, base.attribute(name).distance)
        attrs.append(attribute)
    return RelationSchema(step.name, attrs)


class PlanExecutor:
    """Executes a bounded plan: fetches data, then evaluates queries over it.

    ``compiled`` is the plan's :class:`CompiledPlan` when the caller keeps
    one; otherwise the first :meth:`evaluate` (or :meth:`fetch`) compiles it.
    """

    def __init__(
        self,
        database: Database,
        plan: BoundedPlan,
        meter: Optional[AccessMeter] = None,
        compiled: Optional[CompiledPlan] = None,
    ) -> None:
        self.database = database
        self.plan = plan
        self.meter = meter
        self._program = compiled
        self._step_frames: Dict[str, Frame] = {}
        self._atom_frames: Optional[Dict[str, Frame]] = None
        #: Per qualified attribute, the resolution the data was fetched with
        #: (set by :meth:`fetch`).
        self.resolutions: Dict[str, float] = {}
        #: This answer's frame of every shared operator, by slot: one set of
        #: fetched frames, one relaxation map, so every :meth:`evaluate` of
        #: the answer reads a sub-query evaluated once.
        self._frames: Frames = []

    @property
    def compiled(self) -> CompiledPlan:
        """The plan's compiled form (compiled on first use)."""
        if self._program is None:
            self._program = CompiledPlan(self.database.schema, self.plan)
        return self._program

    # -- stage 1: fetching --------------------------------------------------------
    def fetch(self) -> Dict[str, Frame]:
        """Run the fetching plan; returns the per-step result frames."""
        program = self.compiled
        for step in self.plan.fetch_plan:
            self._step_frames[step.name] = self._run_step(step)
        self._atom_frames = {alias: self._atom_frame(layout) for alias, layout in program.atoms.items()}
        self.resolutions = program.resolutions
        self._frames = [None] * program.slots
        return self._step_frames

    def _input_values(self, step: FetchStep) -> List[Tuple[object, ...]]:
        """All distinct ``X``-value combinations fed to the step's accessor.

        The distinct values of each producing step (read column-wise, in
        first-seen order) are combined as a product, first step slowest.
        """
        inputs = self.compiled.inputs[step.name]
        groups: List[List[Tuple[object, ...]]] = []
        for step_name, positions in inputs.groups:
            frame = self._step_frames.get(step_name)
            if frame is None:
                raise PlanError(f"fetch step {step.name} reads from {step_name} before it ran")
            groups.append(list(dict.fromkeys(frame.key_tuples(positions))))
        if not groups:
            return [tuple(inputs.constants[a] for a in inputs.x)]
        if inputs.whole:
            return groups[0]

        combinations = list(itertools.product(*groups))
        if not combinations:
            return []
        parts = list(zip(*combinations))
        origin = inputs.origin
        columns = [
            map(itemgetter(origin[a][1]), parts[origin[a][0]])
            if a in origin
            else itertools.repeat(inputs.constants[a], len(combinations))
            for a in inputs.x
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
        schema = self.compiled.step_schemas[step.name]
        columns, weights = step.accessor.fetch_columns(self._input_values(step), self.meter)
        return Frame(schema, weights=weights, store=ColumnStore.from_columns(len(schema), columns))

    def _atom_frame(self, layout: _AtomLayout) -> Frame:
        """One atom's frame: its frame step's columns as the atom's scans read them."""
        frame = self._step_frames[layout.step]
        if layout.picks is None:
            return Frame(layout.schema, weights=frame.weights, store=frame.store)
        if not any(pick is None for pick in layout.picks):
            return Frame(layout.schema, weights=frame.weights, store=frame.store.project(layout.picks))
        # Constant columns are filled in column-wise beside the fetched ones:
        # no row is rebuilt.
        size = len(frame)
        columns = [
            frame.store.column(pick) if pick is not None else [value] * size
            for pick, value in zip(layout.picks, layout.constants)
        ]
        store = type(frame.store).from_columns(len(layout.schema), columns)
        return Frame(layout.schema, weights=frame.weights, store=store)

    # -- stage 2: evaluation ------------------------------------------------------------
    def evaluate(self, query: Optional[QueryNode] = None) -> Relation:
        """Evaluate ``query`` (default: the plan's query) over the fetched data.

        Compiles the plan first if nothing has yet.
        """
        query = query if query is not None else self.plan.query
        return self._frame(query).to_relation(distinct=not isinstance(query, GroupBy))

    def _frame(self, query: QueryNode) -> Frame:
        """The frame of ``query`` over the fetched data (fetching first if needed).

        The plan's query and its induced query run compiled; any other query
        is compiled for this call.
        """
        program = self.compiled
        if self._atom_frames is None:
            self.fetch()
        provider = MappingProvider(self._atom_frames)
        if query is self.plan.query:
            return program.root.frame(provider, self._frames)
        if program.refinement is not None and query is program.refinement.induced_query:
            return program.induced.frame(provider, self._frames)
        evaluator = Evaluator(self.database.schema, provider, self.resolutions, self.plan.needed_attributes)
        return evaluator.evaluate_frame(query)

    def execute(self) -> Relation:
        """Fetch (if needed) and evaluate the plan's query."""
        return self.evaluate(self.plan.query)
