"""Evaluation of RA / RA_aggr queries over relation instances: compile once, then run.

One evaluator serves every caller:

* **Exact evaluation** — computing ground-truth answers ``Q(D)`` for the RC /
  MAC / F-measure computations and for the exact baseline.  Scans read base
  relations (optionally charging an access meter), and the relaxation is
  empty.
* **Plan evaluation** — the BEAS executor evaluates the *evaluation plan*
  ``ξ_E`` over the data fetched by the fetching plan ``ξ_F``.  It supplies a
  :class:`MappingProvider` mapping each scan alias to its fetched
  (approximate) tuples, a per-attribute *relaxation* map describing how much
  selection and join conditions must be loosened to compensate for
  access-template resolutions (Section 5, "evaluation plan"), and per-tuple
  weights so that ``sum``/``count``/``avg`` can account for collapsed
  duplicates (Section 7).

**Compile, then run.**  :meth:`Evaluator.compile` walks the frozen AST once
and turns each node into an :class:`Operator` holding everything the node
derives from the AST, the database schema and the relaxation: its output
schema, each atom's scan schema and live columns, the bound mask programs of
its selections, the positions of projected, grouped and aggregated columns,
and the set-difference guard's thresholds.  Running an operator only touches
data: it reads frames from the provider, masks, gathers, joins and probes the
distance kernels.  The executor compiles once per memoized plan
(:class:`~repro.core.executor.CompiledPlan`); exact evaluation, RC and the
baselines compile on each call.  Equal sub-queries compile to one operator,
and a run keeps a shared operator's frame in its slot of a per-run list, so
the guard's ``Q̂2`` and the η′ refinement's ``Q̂`` reuse frames already
evaluated.  The one thing the data decides is the join order (smallest frame
first); an SPC operator compiles the positions of each order the first time
it is taken.

Set difference always runs the BEAS guard (Section 6, Theorem 6(5)): a
``Q1`` answer is removed when it lies within the relaxation of some answer to
``Q2``'s maximal induced query.  Under an empty relaxation — exact
evaluation, and the baselines' — the guard is the exact set difference.

**Columnar end to end.**  Selections run as fused chunked mask programs
(:class:`~repro.algebra.predicates.MaskProgram`), joins and products collect
matched *index pairs* and materialize outputs by per-column gather
(:func:`repro.relational.store.gather_pairs`), union/difference keep
survivor *indices* and gather them (:func:`~repro.relational.store.vstack_gather`
/ :meth:`~repro.relational.store.Store.take`), and group-by emits its output
column-by-column — no intermediate Python row tuples are built anywhere in
the pipeline: every operator output is a
:class:`~repro.relational.store.ColumnStore`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import mul
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..errors import EvaluationError
from ..relational.database import AccessMeter, Database
from ..relational.distance import INFINITY
from ..relational.kernels import RadiusMatcher
from ..relational.relation import Relation, Row
from ..relational.schema import DatabaseSchema, RelationSchema
from ..relational.store import ColumnStore, Store, _gather, gather_pairs, vstack_gather
from .ast import (
    Difference,
    GroupBy,
    Product,
    Project,
    QueryNode,
    Rename,
    Scan,
    Select,
    Union,
    condition_on,
    resolve_attribute,
)
from .predicates import (
    AttrRef,
    ChunkBinder,
    ChunkMasker,
    CompareOp,
    Comparison,
    Conjunction,
    MaskProgram,
    chunk_window,
    may_name,
    resolve_name,
    resolve_position,
)
from .spc import SPCQuery, maximal_induced_query, to_spc


class Frame:
    """An intermediate result: tuples under a schema, with per-row weights.

    Backed by a :class:`~repro.relational.store.Store`, so scans, filters
    and projections read column buffers.  ``Frame(schema, rows, weights)``
    builds a :class:`~repro.relational.store.ColumnStore` from a row list;
    pass ``store=`` to adopt an existing store without materializing tuples
    (scans adopt the base relation's store; the executor's fetch stage and
    every operator output adopt a fresh column store).
    """

    __slots__ = ("schema", "weights", "_store")

    def __init__(
        self,
        schema: RelationSchema,
        rows: Optional[List[Row]] = None,
        weights: Optional[List[float]] = None,
        store: Optional[Store] = None,
    ) -> None:
        self.schema = schema
        if store is None:
            store = ColumnStore.from_rows(len(schema), rows if rows is not None else [])
        self._store = store
        if weights is None:
            weights = [1.0] * len(store)
        self.weights = weights

    @property
    def store(self) -> Store:
        """The storage backend holding this frame's tuples (read-only)."""
        return self._store

    @property
    def rows(self) -> List[Row]:
        """The tuples as a list (materialized lazily for column backends)."""
        return self._store.row_list()

    def column(self, position: int) -> Sequence[object]:
        """One attribute's values in row order, straight from the backend."""
        return self._store.column(position)

    def key_tuples(self, positions: Sequence[int]) -> Iterator[Tuple[object, ...]]:
        """Per-row sub-tuples on ``positions``, extracted column-wise."""
        return self._store.key_tuples(positions)

    @classmethod
    def from_relation(cls, relation: Relation, weights: Optional[Sequence[float]] = None) -> "Frame":
        if weights is None:
            weights = [1.0] * len(relation)
        else:
            weights = list(weights)
            if len(weights) != len(relation):
                raise EvaluationError("weights length does not match relation size")
        # The relation's store is adopted without copying; frames are
        # transient read-only views, so this is safe as long as the relation
        # is not mutated mid-evaluation (it never is).
        return cls(relation.schema, weights=weights, store=relation.store)

    def to_relation(self, distinct: bool = False) -> Relation:
        if distinct:
            # ``distinct`` gathers the kept rows into a new store already.
            return Relation(self.schema, store=self._store).distinct()
        return Relation(self.schema, store=self._store.copy())

    def __len__(self) -> int:
        return len(self._store)


class RelationProvider:
    """Maps a :class:`Scan` node to the tuples it should read."""

    def frame_for(self, scan: Scan, output_schema: RelationSchema) -> Frame:
        raise NotImplementedError


class DatabaseProvider(RelationProvider):
    """Reads scans from a :class:`Database`, charging the access meter."""

    def __init__(self, database: Database, meter: Optional[AccessMeter] = None) -> None:
        self.database = database
        self.meter = meter

    def frame_for(self, scan: Scan, output_schema: RelationSchema) -> Frame:
        relation = self.database.scan(scan.relation, self.meter)
        # Adopt the relation's store directly (any backend): scans
        # stay zero-copy and downstream operators read column buffers.
        return Frame(output_schema, weights=[1.0] * len(relation), store=relation.store)


class MappingProvider(RelationProvider):
    """Reads scans from pre-computed (e.g. fetched) per-alias frames."""

    def __init__(self, frames: Mapping[str, Frame]) -> None:
        self.frames = dict(frames)

    def frame_for(self, scan: Scan, output_schema: RelationSchema) -> Frame:
        alias = scan.effective_alias
        if alias not in self.frames:
            raise EvaluationError(f"no fetched data available for relation atom {alias!r}")
        frame = self.frames[alias]
        if frame.schema is output_schema:  # laid out for this scan already
            return frame
        # Re-order/select columns to match the expected output schema.
        positions = []
        for name in output_schema.attribute_names:
            if name in frame.schema:
                positions.append(frame.schema.position(name))
            else:
                raise EvaluationError(
                    f"fetched data for atom {alias!r} is missing attribute {name!r}"
                )
        if positions == list(range(len(frame.schema))):
            return Frame(output_schema, weights=frame.weights, store=frame.store)
        return Frame(output_schema, weights=frame.weights, store=frame.store.project(positions))


#: ``columns`` for an operand whose parent reads it by position: every column,
#: in the order the query names its atoms (see :meth:`Evaluator.compile`).
EVERY_COLUMN: Tuple[AttrRef, ...] = ()

Frames = List[Optional[Frame]]


class Evaluator:
    """Compiles query ASTs to operators, and evaluates them against a provider.

    Args:
        db_schema: the database schema queries are posed against.
        provider: where scans read their tuples from (only needed to run).
        relaxation: per-qualified-attribute slack used to relax selection
            conditions (empty for exact evaluation).
        needed_attributes: optional restriction — when a
            :class:`MappingProvider` only has a subset of each atom's
            attributes (the ones the chase covered), scans are narrowed to
            these attributes.
    """

    def __init__(
        self,
        db_schema: DatabaseSchema,
        provider: Optional[RelationProvider] = None,
        relaxation: Optional[Mapping[str, float]] = None,
        needed_attributes: Optional[Mapping[str, Sequence[str]]] = None,
    ) -> None:
        self.db_schema = db_schema
        self.provider = provider
        self.relaxation = relaxation if relaxation is not None else {}
        self.needed_attributes = needed_attributes if needed_attributes is not None else {}
        #: Every ``(node, columns asked of it, operator)`` compiled so far; an
        #: operator's slot is its place here.
        self._ops: List[Tuple[QueryNode, Optional[Tuple[AttrRef, ...]], Operator]] = []
        #: The scan schema of every atom compiled so far, by ``(relation, alias)``.
        self.scan_schemas: Dict[Tuple[str, str], RelationSchema] = {}

    @property
    def slots(self) -> int:
        """How many operators have been compiled: the length of a run's frame memo."""
        return len(self._ops)

    # -- compile and run ------------------------------------------------------
    def evaluate(self, node: QueryNode) -> Relation:
        """Evaluate ``node`` and return its result relation.

        Non-aggregate results are deduplicated (set semantics); aggregate
        results are already one row per group.
        """
        frame = self.evaluate_frame(node)
        return frame.to_relation(distinct=not isinstance(node, GroupBy))

    def evaluate_frame(self, node: QueryNode) -> Frame:
        """Evaluate and return the raw frame (bag semantics, with weights)."""
        operator = self.compile(node)
        return operator.frame(self.provider, [None] * self.slots)

    def compile(self, node: QueryNode, columns: Optional[Tuple[AttrRef, ...]] = None) -> "Operator":
        """The operator of ``node``, compiled once per evaluator.

        ``columns`` is what a parent asks of an SPC operand that projects
        nothing: its parent reads it by position, so its columns must not
        depend on the join order.  :data:`EVERY_COLUMN` asks for all of them
        in the order the query names its atoms, a tuple of references (a
        ``GroupBy``'s group and aggregate columns) for just those.  Only a
        root may leave them in join order.

        A node compiled again — the same object, as the guard's ``Q̂2`` and
        the η′ refinement's ``Q̂`` reuse every subtree with no difference
        (:func:`~repro.algebra.spc.maximal_induced_query`) — gets the same
        operator, which is then marked shared: a run keeps its frame in the
        operator's slot, so it is evaluated once however many parents read it.
        """
        spc = to_spc(node) if node.is_spc() else None
        if spc is None or spc.output or len(spc.atoms) == 1:
            columns = None
        for known, asked, operator in self._ops:
            if known is node and asked == columns:
                operator.shared = True
                return operator
        operator = self._spc(node, spc, columns) if spc is not None else self._operator(node)
        operator.slot = len(self._ops)
        self._ops.append((node, columns, operator))
        return operator

    def _operator(self, node: QueryNode) -> "Operator":
        if isinstance(node, Union):
            return _UnionOp(self.compile(node.left, EVERY_COLUMN), self.compile(node.right, EVERY_COLUMN))
        if isinstance(node, Difference):
            return self._difference(node)
        if isinstance(node, GroupBy):
            child = self.compile(node.child, node.group_columns + (node.agg_column,))
            return _GroupByOp(child, node, node.output_schema(self.db_schema))
        if isinstance(node, Project):
            child = self.compile(node.child, EVERY_COLUMN)
            positions = [resolve_position(child.schema, ref) for ref in node.columns]
            return _ReshapeOp(child, RelationSchema("π", [child.schema.attributes[p] for p in positions]), positions)
        if isinstance(node, Select):
            child = self.compile(node.child, EVERY_COLUMN)
            return _SelectOp(child, self._mask_program(child.schema, node.condition))
        if isinstance(node, Rename):
            return _ReshapeOp(self.compile(node.child, EVERY_COLUMN), node.output_schema(self.db_schema), None)
        if isinstance(node, Product):
            left = self.compile(node.left, EVERY_COLUMN)
            right = self.compile(node.right, EVERY_COLUMN)
            return _ProductOp(left, right, JoinStep.compile(left.schema, right.schema, (), (), self.relaxation))
        raise EvaluationError(f"unsupported query node {type(node).__name__}")

    # -- scans -----------------------------------------------------------------
    def _scan_schema(self, scan: Scan) -> RelationSchema:
        alias = scan.effective_alias
        known = self.scan_schemas.get((scan.relation, alias))
        if known is not None:
            return known
        schema = scan.output_schema(self.db_schema)
        if alias in self.needed_attributes:
            keep = [
                name
                for name in schema.attribute_names
                if name.split(".", 1)[1] in self.needed_attributes[alias]
            ]
            if keep:
                schema = schema.project(keep, name=alias)
        return self.scan_schemas.setdefault((scan.relation, alias), schema)

    # -- SPC (join-aware) ----------------------------------------------------------
    def _spc(self, node: QueryNode, query: SPCQuery, columns: Optional[Tuple[AttrRef, ...]]) -> "_SpcOp":
        scans = {scan.effective_alias: scan for scan in node.scans()}
        atoms: List[_Atom] = []
        for alias in query.atoms:
            scan = scans[alias]
            schema = self._scan_schema(scan)
            local = self._mask_program(schema, _local_condition(query, alias, schema))
            atoms.append(_Atom(alias, scan, schema, local))
        output = query.output
        if columns is not None:
            names = [name for atom in atoms for name in atom.schema.attribute_names]
            if columns:
                names = [resolve_name(names, ref) for ref in columns]
            output = tuple(AttrRef.parse(name) for name in dict.fromkeys(names))

        # Joins carry the output columns and the operands of attr/attr
        # predicates; a column only its own atom's filter names is dead after it.
        if output and len(atoms) > 1:
            live = list(output)
            for comparison in query.condition:
                if comparison.is_attr_attr:
                    live.extend(comparison.attributes())
            for atom in atoms:
                atom.narrow(live)

        names = None
        schema: Optional[RelationSchema] = atoms[0].live_schema if len(atoms) == 1 else None
        if output:
            # The output's names do not depend on the join order: resolve them
            # against the live columns in any order.
            joined = {attribute.name: attribute for atom in atoms for attribute in atom.live_schema.attributes}
            names = [resolve_name(tuple(joined), ref) for ref in output]
            schema = RelationSchema("π", [joined[name] for name in names])
        equalities = [c for c in query.join_predicates() if c.op.is_equality]
        residual = Conjunction.of([c for c in query.condition if c.is_attr_attr])
        return _SpcOp(atoms, equalities, residual, names, schema, self.relaxation)

    # -- set difference ----------------------------------------------------------
    def _difference(self, node: Difference) -> "_DifferenceOp":
        """``Q1 − Q2`` with the BEAS set-difference guard (Section 6).

        Where ``Q2``'s data was fetched through access templates (non-zero
        resolution), plain set difference over approximate answers cannot
        guarantee Theorem 6(5) (``t ∈ Q2(D) ⇒ t ∉ ξ_α(D)``): a tuple of
        ``Q2(D)`` might not literally appear among the fetched
        approximations.  The guard therefore removes every ``Q1``-answer
        within the fetch resolution of *some* answer to the maximal induced
        query ``Q̂2`` — any real ``Q2`` answer is represented within that
        distance, so it is guaranteed to be filtered out.  Under an empty
        relaxation (exact evaluation, or a plan fetched at resolution 0 on
        ``Q2``'s attributes) this is the exact set difference, and ``Q̂2`` is
        not compiled.  ``Q̂2`` is ``Q2`` itself — the same operator — unless
        ``Q2`` nests a difference.
        """
        left = self.compile(node.left, EVERY_COLUMN)
        right = self.compile(node.right, EVERY_COLUMN)
        if all(self.relaxation.get(name, 0.0) == 0.0 for name in right.schema.attribute_names):
            return _DifferenceOp(left, right, None, None)
        induced = self.compile(maximal_induced_query(node.right), EVERY_COLUMN)
        thresholds = [self.relaxation.get(name, 0.0) for name in induced.schema.attribute_names]
        distances = [attribute.distance for attribute in left.schema.attributes]
        return _DifferenceOp(left, induced, thresholds, distances)

    # -- selection with relaxation --------------------------------------------
    def _mask_program(self, schema: RelationSchema, condition: Conjunction) -> Optional[MaskProgram]:
        """A (possibly relaxed) conjunction over ``schema`` as one fused mask program (``None`` if empty).

        Each comparison compiles to a chunk binder (:func:`_comparison_binder`);
        the program runs chunked, fused and selectivity-ordered (:func:`_filtered`).
        """
        if not condition:
            return None
        return MaskProgram(
            [_comparison_binder(self.relaxation, schema, comparison) for comparison in condition_on(schema, condition)]
        )


def _local_condition(query: SPCQuery, alias: str, schema: RelationSchema) -> Conjunction:
    """Attr/const predicates of ``query`` touching only atom ``alias``."""
    local: List[Comparison] = []
    for comparison in query.condition:
        comparison = comparison.normalized()
        if not comparison.is_attr_const:
            continue
        ref = comparison.attributes()[0]
        if ref.alias == alias or (ref.alias is None and f"{alias}.{ref.attribute}" in schema):
            local.append(comparison)
    return Conjunction.of(local)


def _comparison_binder(
    relaxation: Mapping[str, float], schema: RelationSchema, comparison: Comparison
) -> ChunkBinder:
    """Compile one comparison to a fused-engine chunk binder.

    Strict comparisons (no usable slack) delegate to
    :meth:`~repro.algebra.predicates.Comparison.chunk_binder` — the
    single vectorized-dispatch implementation; only the relaxed binders
    live here (sliced to the engine's chunk windows).
    An infinite resolution gives no usable relaxation: the accuracy
    bound is already 0, and relaxing by +inf would admit every tuple, so
    it falls back to the strict condition as well.  The returned binder
    is applied per (sub-)store by the program, so it must not capture
    whole-frame state.

    A relaxed binder asks the attribute's distance for a column kernel
    chunk by chunk (:meth:`~repro.relational.distance.DistanceFunction.within_mask`
    / ``within_mask_pair``): typed ``array('d')`` / ``array('q')``
    windows (or their mmap views) under ``NUMERIC`` / ``numeric_scaled``
    against an int/float constant or another typed window compile to one
    generator pass, bit-identical to the per-value result.  The
    per-value path — :func:`_relaxed_attr_const` /
    :func:`_relaxed_attr_attr`, the definition of the semantics —
    evaluates the rest: object columns (any ``None``, string, ``bool``
    or huge int demotes a column to a list), ``!=``, the trivial,
    categorical, string-prefix and custom distances, and non-numeric
    constants.
    """
    comparison = comparison.normalized()
    if comparison.is_attr_const:
        ref = comparison.attributes()[0]
        name = resolve_attribute(schema, ref)
        slack = relaxation.get(name, 0.0)
        if slack <= 0 or slack == INFINITY:
            return comparison.chunk_binder(schema)
        return _RelaxedConstBinder(
            comparison.op,
            schema.position(name),
            comparison.constant(),
            slack,
            schema.attribute(name).distance,
        )
    if comparison.is_attr_attr:
        left, right = comparison.attributes()
        lname = resolve_attribute(schema, left)
        rname = resolve_attribute(schema, right)
        slack = relaxation.get(lname, 0.0) + relaxation.get(rname, 0.0)
        if slack <= 0 or slack == INFINITY:
            return comparison.chunk_binder(schema)
        return _RelaxedPairBinder(
            comparison.op,
            schema.position(lname),
            schema.position(rname),
            slack,
            schema.attribute(lname).distance,
        )
    raise EvaluationError(f"cannot compile comparison {comparison}")


# ---------------------------------------------------------------------------
# Operators: what a compiled node does at run time
# ---------------------------------------------------------------------------

class Operator:
    """One compiled query node.

    ``schema`` is its output schema (``None`` only for a root SPC operator
    that projects nothing: its columns follow the join order, which the
    data decides).  ``slot`` is its place in a run's frame memo, used when
    ``shared``.
    """

    __slots__ = ("schema", "slot", "shared")

    def __init__(self, schema: Optional[RelationSchema]) -> None:
        self.schema = schema
        self.slot = -1
        self.shared = False

    def frame(self, provider: RelationProvider, frames: Frames) -> Frame:
        """This operator's frame over ``provider``'s data (once per run when shared)."""
        if not self.shared:
            return self.run(provider, frames)
        frame = frames[self.slot]
        if frame is None:
            frame = frames[self.slot] = self.run(provider, frames)
        return frame

    def run(self, provider: RelationProvider, frames: Frames) -> Frame:
        raise NotImplementedError


def _filtered(frame: Frame, program: MaskProgram) -> Frame:
    """``frame``'s rows that pass ``program``, selected and gathered in one pass.

    The pass is :meth:`~repro.relational.store.Store.select_gather`, which on
    a sharded base relation under the process executor evaluates the mask on
    the shard workers (one round trip per shard, mask bytes back).  Fetch
    frames are never sharded, so this matters for exact scans only.  The
    surviving rows are compressed out of the backend in one pass, so no
    per-row tuple is materialized for filtering.

    Which comparisons run as one typed pass per chunk, with no Python call
    per value: every strict comparison over a typed numeric column
    (:meth:`~repro.algebra.predicates.CompareOp.column_mask`), and every
    relaxed ``=``, ``<=``, ``<``, ``>=``, ``>`` under a built-in numeric
    distance (``NUMERIC``, ``numeric_scaled``) between typed numeric columns
    or such a column and a numeric constant.  Everything else falls back to
    the per-value functions (see :func:`_comparison_binder`).
    """
    mask, selected = frame.store.select_gather(program.run_part)
    if selected is frame.store:
        return frame
    return Frame(frame.schema, weights=list(compress(frame.weights, mask)), store=selected)


class _Atom:
    """One relation atom of an SPC operator: its scan, local filter and live columns."""

    __slots__ = ("alias", "scan", "schema", "local", "keep", "live_schema")

    def __init__(self, alias: str, scan: Scan, schema: RelationSchema, local: Optional[MaskProgram]) -> None:
        self.alias = alias
        self.scan = scan
        self.schema = schema
        self.local = local
        self.keep: Optional[List[int]] = None
        self.live_schema = schema

    def narrow(self, live: Sequence[AttrRef]) -> None:
        """Keep only the columns a ``live`` reference can name.

        An atom no reference names keeps its first column: it still
        contributes its rows to the join.
        """
        names = self.schema.attribute_names
        keep = [p for p, name in enumerate(names) if any(may_name(ref, name) for ref in live)] or [0]
        if len(keep) < len(names):
            self.keep = keep
            self.live_schema = RelationSchema(self.schema.name, tuple(self.schema.attributes[p] for p in keep))

    def frame(self, provider: RelationProvider) -> Frame:
        frame = provider.frame_for(self.scan, self.schema)
        if self.local is not None:
            frame = _filtered(frame, self.local)
        if self.keep is not None:
            frame = Frame(self.live_schema, weights=frame.weights, store=frame.store.project(self.keep))
        return frame


class JoinStep:
    """One compiled equality join — or, without keys, Cartesian product — of two frames.

    When any join key carries a positive relaxation slack (because the
    attribute was fetched via an access template with non-zero
    resolution), the equality is loosened to "within slack" on that key.
    The slack join runs through :class:`repro.relational.kernels.RadiusMatcher`
    (hash buckets on zero-slack keys, one sorted band with per-candidate
    checks on the slack keys) and produces exactly the
    pairs — in the same order — a nested loop over ``left × right``
    would, with one deliberate exception: a NaN key distance does not
    count as a match.

    Every variant is an **index-pair join**: the probe loop collects matched
    ``(left_index, right_index)`` pairs, and the output frame is
    materialized by per-column gather
    (:func:`repro.relational.store.gather_pairs`) — on column-backed
    inputs no intermediate ``lrow + rrow`` tuples exist at all.
    """

    __slots__ = ("schema", "left_positions", "right_positions", "slack", "distances")

    def __init__(
        self,
        schema: RelationSchema,
        left_positions: List[int],
        right_positions: List[int],
        slack: List[float],
        distances: Optional[List[object]],
    ) -> None:
        self.schema = schema
        self.left_positions = left_positions
        self.right_positions = right_positions
        self.slack = slack
        self.distances = distances

    @classmethod
    def compile(
        cls,
        left: RelationSchema,
        right: RelationSchema,
        keys_left: Sequence[str],
        keys_right: Sequence[str],
        relaxation: Mapping[str, float],
    ) -> "JoinStep":
        """The join of ``left`` and ``right`` frames on the named keys (a product without keys)."""
        attributes = left.attributes + right.attributes
        if not keys_left:
            return cls(RelationSchema("×", attributes), [], [], [], None)
        slack = [relaxation.get(kl, 0.0) + relaxation.get(kr, 0.0) for kl, kr in zip(keys_left, keys_right)]
        # Infinite resolutions cannot be compensated by relaxation (the bound
        # is 0 already); joining everything with everything would only produce
        # noise, so such keys keep their strict equality semantics.
        slack = [0.0 if s == INFINITY else s for s in slack]
        distances = None if all(s == 0.0 for s in slack) else [left.attribute(k).distance for k in keys_left]
        positions_left, positions_right = left.positions(keys_left), right.positions(keys_right)
        return cls(RelationSchema("⋈", attributes), positions_left, positions_right, slack, distances)

    def run(self, left: Frame, right: Frame) -> Frame:
        if not self.left_positions:
            size_left, size_right = len(left), len(right)
            left_indices = [i for i in range(size_left) for _ in range(size_right)]
            right_indices = list(range(size_right)) * size_left
            return self._paired(left, left_indices, right, right_indices)
        if self.distances is None:
            # Join keys are extracted column-at-a-time on both sides; rows
            # are only ever named by index.
            buckets: Dict[Tuple[object, ...], List[int]] = {}
            for i, key in enumerate(right.key_tuples(self.right_positions)):
                buckets.setdefault(key, []).append(i)
            all_hits = map(buckets.get, left.key_tuples(self.left_positions))
        else:
            # Relaxed join: within-slack matching through the distance
            # kernels, indexed straight from the build side's column buffers
            # and probed through the *batch* API, in the caller.
            matcher = RadiusMatcher.from_store(right.store, self.right_positions, self.distances, self.slack)
            all_hits = matcher.matches_many(list(left.key_tuples(self.left_positions)))

        # One step per probe row, not per pair: a bucket's pairs are
        # emitted by extending both index lists.
        left_indices: List[int] = []
        right_indices: List[int] = []
        emit_left, emit_right = left_indices.append, right_indices.append
        extend_left, extend_right = left_indices.extend, right_indices.extend
        for i, hits in enumerate(all_hits):
            if hits:
                if len(hits) == 1:
                    emit_left(i)
                    emit_right(hits[0])
                else:
                    extend_left(repeat(i, len(hits)))
                    extend_right(hits)
        return self._paired(left, left_indices, right, right_indices)

    def _paired(self, left: Frame, left_indices: Sequence[int], right: Frame, right_indices: Sequence[int]) -> Frame:
        """Materialize matched index pairs as a frame by per-column gather."""
        weights = list(map(mul, _gather(left.weights, left_indices), _gather(right.weights, right_indices)))
        store = gather_pairs(left.store, left_indices, right.store, right_indices)
        return Frame(self.schema, weights=weights, store=store)


class _JoinOrder(NamedTuple):
    """What an SPC operator compiled for one join order: the joins, the residual filter, the projection."""

    steps: List[JoinStep]
    residual: Optional[MaskProgram]
    project: Optional[List[int]]


class _SpcOp(Operator):
    """An SPC query: scan and filter each atom, join them greedily, filter, project.

    The join order is chosen per run from the frame sizes (smallest frame
    first, then along equality predicates, a product with the smallest
    remaining frame where none connects), so it can differ between runs.
    Positions are compiled the first time an order is taken and kept here:
    a warm run builds no schema and binds no predicate again.
    """

    __slots__ = ("atoms", "links", "equalities", "residual", "names", "relaxation", "_orders")

    def __init__(
        self,
        atoms: List[_Atom],
        equalities: List[Comparison],
        residual: Conjunction,
        names: Optional[List[str]],
        schema: Optional[RelationSchema],
        relaxation: Mapping[str, float],
    ) -> None:
        super().__init__(schema)
        self.atoms = atoms
        self.equalities = equalities
        self.links = [tuple(ref.alias for ref in comparison.attributes()) for comparison in equalities]
        self.residual = residual
        self.names = names
        self.relaxation = relaxation
        self._orders: Dict[Tuple[str, ...], _JoinOrder] = {}

    def run(self, provider: RelationProvider, frames: Frames) -> Frame:
        atom_frames = {atom.alias: atom.frame(provider) for atom in self.atoms}
        order = self._order(atom_frames)
        compiled = self._orders.get(order)
        if compiled is None:
            compiled = self._orders.setdefault(order, self._compile_order(order))
        current = atom_frames[order[0]]
        for alias, step in zip(order[1:], compiled.steps):
            current = step.run(current, atom_frames[alias])
        # Every attr/attr predicate is re-applied as a residual filter.
        # Equality predicates that drove hash joins are re-checked (harmless),
        # and this also covers same-atom comparisons, cycles in the join
        # graph, and non-equality joins, none of which the greedy join pass
        # enforces.
        if compiled.residual is not None:
            current = _filtered(current, compiled.residual)
        if compiled.project is not None:
            current = Frame(self.schema, weights=current.weights, store=current.store.project(compiled.project))
        return current

    def _order(self, atom_frames: Dict[str, Frame]) -> Tuple[str, ...]:
        """The greedy join order: the smallest frame first, then along equalities."""
        remaining = dict(atom_frames)
        # Start from the smallest frame for a cheap build side.
        current = min(remaining, key=lambda a: len(remaining[a]))
        del remaining[current]
        order = [current]
        while remaining:
            # The first equality predicate connecting the joined part to a new atom.
            following = None
            for left, right in self.links:
                if left in order and right in remaining:
                    following = right
                    break
                if right in order and left in remaining:
                    following = left
                    break
            if following is None:
                # No connecting predicate: Cartesian product with the smallest.
                following = min(remaining, key=lambda a: len(remaining[a]))
            del remaining[following]
            order.append(following)
        return tuple(order)

    def _compile_order(self, order: Tuple[str, ...]) -> _JoinOrder:
        schemas = {atom.alias: atom.live_schema for atom in self.atoms}
        schema = schemas[order[0]]
        steps: List[JoinStep] = []
        for position, alias in enumerate(order[1:], start=1):
            joined, other = order[:position], schemas[alias]
            keys_left: List[str] = []
            keys_right: List[str] = []
            for comparison in self.equalities:
                left, right = comparison.attributes()
                if left.alias in joined and right.alias == alias:
                    keys_left.append(resolve_attribute(schema, left))
                    keys_right.append(resolve_attribute(other, right))
                elif right.alias in joined and left.alias == alias:
                    keys_left.append(resolve_attribute(schema, right))
                    keys_right.append(resolve_attribute(other, left))
            step = JoinStep.compile(schema, other, keys_left, keys_right, self.relaxation)
            steps.append(step)
            schema = step.schema
        residual = None
        if self.residual:
            residual = MaskProgram(
                [_comparison_binder(self.relaxation, schema, c) for c in condition_on(schema, self.residual)]
            )
        project = schema.positions(self.names) if self.names is not None else None
        return _JoinOrder(steps, residual, project)


class _UnionOp(Operator):
    __slots__ = ("left", "right", "columns")

    def __init__(self, left: Operator, right: Operator) -> None:
        super().__init__(left.schema)
        self.left = left
        self.right = right
        self.columns = (list(range(len(left.schema))), list(range(len(right.schema))))

    def run(self, provider: RelationProvider, frames: Frames) -> Frame:
        left = self.left.frame(provider, frames)
        right = self.right.frame(provider, frames)
        # Dedup keys are whole-row tuples assembled column-wise (key_tuples);
        # the surviving rows are then gathered per column, in first-seen order.
        seen: set = set()
        keep_left: List[int] = []
        keep_right: List[int] = []
        for keep, frame, positions in zip((keep_left, keep_right), (left, right), self.columns):
            for index, key in enumerate(frame.store.key_tuples(positions)):
                if key not in seen:
                    seen.add(key)
                    keep.append(index)
        weights = [left.weights[i] for i in keep_left]
        weights += [right.weights[j] for j in keep_right]
        store = vstack_gather([(left.store, keep_left), (right.store, keep_right)])
        return Frame(left.schema, weights=weights, store=store)


class _DifferenceOp(Operator):
    """``Q1 − Q2``: the exact set difference, or the guard against ``Q̂2`` within the relaxation.

    The within-resolution existence test runs through
    :class:`repro.relational.kernels.RadiusMatcher` (hash buckets and one
    sorted band with per-candidate checks instead of scanning every ``Q̂2``
    answer per ``Q1`` answer); the set of surviving rows is identical to the
    nested-loop scan on every backend.
    """

    __slots__ = ("left", "right", "thresholds", "distances", "positions")

    def __init__(
        self,
        left: Operator,
        right: Operator,
        thresholds: Optional[List[float]],
        distances: Optional[List[object]],
    ) -> None:
        super().__init__(left.schema)
        self.left = left
        self.right = right
        self.thresholds = thresholds
        self.distances = distances
        self.positions = list(range(len(left.schema)))

    def run(self, provider: RelationProvider, frames: Frames) -> Frame:
        left = self.left.frame(provider, frames)
        right = self.right.frame(provider, frames)
        positions = self.positions
        if self.thresholds is None:
            removed = set(right.store.key_tuples(positions))
            keep = [index for index, key in enumerate(left.store.key_tuples(positions)) if key not in removed]
        else:
            guard = RadiusMatcher.from_store(right.store, positions, self.distances, self.thresholds)
            # Survivors are collected as indices and gathered out of the
            # backend in one take; the probes go through the guard's batch API.
            hits = guard.any_match_many(list(left.store.key_tuples(positions)))
            keep = [index for index, hit in enumerate(hits) if not hit]
        if len(keep) == len(left):
            return left
        return Frame(left.schema, weights=[left.weights[index] for index in keep], store=left.store.take(keep))


class _GroupByOp(Operator):
    __slots__ = ("child", "aggregate", "group_positions", "agg_position")

    def __init__(self, child: Operator, node: GroupBy, schema: RelationSchema) -> None:
        super().__init__(schema)
        self.child = child
        self.aggregate = node.aggregate
        self.group_positions = [resolve_position(child.schema, ref) for ref in node.group_columns]
        self.agg_position = resolve_position(child.schema, node.agg_column)

    def run(self, provider: RelationProvider, frames: Frames) -> Frame:
        child = self.child.frame(provider, frames)
        # Group keys and the aggregated column are pulled column-at-a-time;
        # no full row tuples are materialized for grouping.
        groups: Dict[Tuple[object, ...], List[Tuple[object, float]]] = {}
        for key, value, weight in zip(
            child.key_tuples(self.group_positions), child.column(self.agg_position), child.weights
        ):
            groups.setdefault(key, []).append((value, weight))

        # One output row per group, assembled column-by-column: the key
        # columns transpose the (insertion-ordered) group keys, the last
        # column is the aggregate.
        key_width = len(self.group_positions)
        columns: List[List[object]] = [[] for _ in range(key_width + 1)]
        for key, pairs in groups.items():
            for position in range(key_width):
                columns[position].append(key[position])
            columns[key_width].append(self.aggregate.apply_weighted(pairs))
        store = ColumnStore.from_columns(len(self.schema), columns)
        return Frame(self.schema, weights=[1.0] * len(groups), store=store)


class _ReshapeOp(Operator):
    """A projection onto ``positions``, or — without them — a renaming: the child's rows under a new schema."""

    __slots__ = ("child", "positions")

    def __init__(self, child: Operator, schema: RelationSchema, positions: Optional[List[int]]) -> None:
        super().__init__(schema)
        self.child = child
        self.positions = positions

    def run(self, provider: RelationProvider, frames: Frames) -> Frame:
        child = self.child.frame(provider, frames)
        store = child.store if self.positions is None else child.store.project(self.positions)
        return Frame(self.schema, weights=child.weights, store=store)


class _SelectOp(Operator):
    __slots__ = ("child", "program")

    def __init__(self, child: Operator, program: Optional[MaskProgram]) -> None:
        super().__init__(child.schema)
        self.child = child
        self.program = program

    def run(self, provider: RelationProvider, frames: Frames) -> Frame:
        child = self.child.frame(provider, frames)
        return child if self.program is None else _filtered(child, self.program)


class _ProductOp(Operator):
    __slots__ = ("left", "right", "step")

    def __init__(self, left: Operator, right: Operator, step: JoinStep) -> None:
        super().__init__(step.schema)
        self.left = left
        self.right = right
        self.step = step

    def run(self, provider: RelationProvider, frames: Frames) -> Frame:
        return self.step.run(self.left.frame(provider, frames), self.right.frame(provider, frames))


@dataclass(frozen=True)
class _RelaxedConstBinder:
    """Picklable fused-engine binder for a relaxed ``A op c`` comparison.

    The former closure form could not cross a process boundary; as a frozen
    dataclass the binder rides inside compiled
    :class:`~repro.algebra.predicates.MaskProgram`\\s to the process-parallel
    shard executor's workers (op enums, constants and the built-in distance
    functions all pickle).  Each chunk runs through the distance's column
    kernel when it has one for that window, value by value otherwise (see
    :func:`_comparison_binder`).
    """

    op: CompareOp
    position: int
    constant: object
    slack: float
    distance: object

    def __call__(self, store: Store) -> ChunkMasker:
        column = store.column(self.position)
        op, constant, slack, distance = self.op, self.constant, self.slack, self.distance
        strict = op.value if op.is_inequality_range else None

        def masker(lo: int, hi: int) -> bytearray:
            window = chunk_window(column, lo, hi)
            mask = None
            if op is not CompareOp.NE:
                mask = distance.within_mask(window, constant, slack, strict)
            if mask is None:  # no column kernel for this column/constant/distance
                mask = bytearray(
                    _relaxed_attr_const(value, op, constant, slack, distance)
                    for value in window
                )
            return mask

        return masker


@dataclass(frozen=True)
class _RelaxedPairBinder:
    """Picklable fused-engine binder for a relaxed ``A op B`` comparison."""

    op: CompareOp
    left_position: int
    right_position: int
    slack: float
    distance: object

    def __call__(self, store: Store) -> ChunkMasker:
        left_column = store.column(self.left_position)
        right_column = store.column(self.right_position)
        op, slack, distance = self.op, self.slack, self.distance
        strict = op.value if op.is_inequality_range else None

        def masker(lo: int, hi: int) -> bytearray:
            left = chunk_window(left_column, lo, hi)
            right = chunk_window(right_column, lo, hi)
            mask = None
            if op is not CompareOp.NE:
                mask = distance.within_mask_pair(left, right, slack, strict)
            if mask is None:
                mask = bytearray(
                    _relaxed_attr_attr(lvalue, rvalue, op, slack, distance)
                    for lvalue, rvalue in zip(left, right)
                )
            return mask

        return masker


def _relaxed_attr_const(value, op: CompareOp, constant, slack: float, distance) -> bool:
    """Relaxed evaluation of ``A op c`` with slack (Section 5, ξ_E).

    Equalities become ``dis_A(A, c) <= slack``.  Order comparisons accept any
    value that satisfies the strict condition *or* lies within ``slack`` of
    the constant under the attribute's distance function — the slack and the
    resolution are both expressed in distance units, so a fetched
    representative standing (within resolution) for a satisfying base tuple
    is never rejected, which is what the accuracy bound needs.
    """
    if op is CompareOp.EQ:
        return distance(value, constant) <= slack
    if op is CompareOp.NE:
        return True if distance(value, constant) > 0 else value != constant
    if value is None or constant is None:
        return False
    strict = op.evaluate(value, constant)
    if strict:
        return True
    return distance(value, constant) <= slack


def _relaxed_attr_attr(left, right, op: CompareOp, slack: float, distance) -> bool:
    """Relaxed evaluation of ``A op B`` with combined slack of both sides."""
    if op is CompareOp.EQ:
        return distance(left, right) <= slack
    if op is CompareOp.NE:
        return True if distance(left, right) > 0 else left != right
    if left is None or right is None:
        return False
    if op.evaluate(left, right):
        return True
    return distance(left, right) <= slack


def evaluate_exact(
    node: QueryNode,
    database: Database,
    meter: Optional[AccessMeter] = None,
) -> Relation:
    """Compute the exact answers ``Q(D)`` by full evaluation."""
    evaluator = Evaluator(database.schema, DatabaseProvider(database, meter))
    return evaluator.evaluate(node)
