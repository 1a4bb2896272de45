"""Evaluation of RA / RA_aggr queries over relation instances.

This evaluator serves two callers:

* **Exact evaluation** — computing ground-truth answers ``Q(D)`` for the RC /
  MAC / F-measure computations and for the exact baseline.  Scans read base
  relations (optionally charging an access meter).
* **Plan evaluation** — the BEAS executor evaluates the *evaluation plan*
  ``ξ_E`` over the data fetched by the fetching plan ``ξ_F``.  It supplies a
  custom :class:`RelationProvider` mapping each scan alias to its fetched
  (approximate) tuples, a per-attribute *relaxation* map describing how much
  selection conditions must be loosened to compensate for access-template
  resolutions (Section 5, "evaluation plan"), and per-tuple weights so that
  ``sum``/``count``/``avg`` can account for collapsed duplicates (Section 7).

Joins are evaluated hash-join-style from the SPC canonical form so that exact
answers over multi-million-row products stay tractable.

**Columnar end to end.**  Every operator is columnar on column-backed
inputs: selections run as fused chunked mask programs
(:class:`~repro.algebra.predicates.MaskProgram`), joins and products collect
matched *index pairs* and materialize outputs by per-column gather
(:func:`repro.relational.store.gather_pairs`), union/difference keep
survivor *indices* and gather them (:func:`~repro.relational.store.vstack_gather`
/ :meth:`~repro.relational.store.Store.take`), and group-by emits its output
column-by-column — no intermediate Python row tuples are built anywhere in
the pipeline unless the output backend itself is row-major
(:func:`~repro.relational.store.preferred_output_class`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import mul
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import EvaluationError
from ..relational.database import AccessMeter, Database
from ..relational.distance import INFINITY
from ..relational.kernels import RadiusMatcher
from ..relational.relation import Relation, Row
from ..relational.schema import DatabaseSchema, RelationSchema
from ..relational.store import RowStore, Store, _gather, gather_pairs, preferred_output_class, vstack_gather
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
    cached_program,
    chunk_window,
    may_name,
)
from .spc import SPCQuery, to_spc


class Frame:
    """An intermediate result: tuples under a schema, with per-row weights.

    Backed by a :class:`~repro.relational.store.Store` so that column-backed
    (or shard-partitioned) inputs stay that way through scans, filters and
    projections.  The classic ``Frame(schema, rows, weights)`` constructor
    adopts a row list (the shape operator outputs are produced in); pass
    ``store=`` to adopt an existing backend without materializing tuples
    (the executor's fetch stage builds fetched frames on the base relation's
    store class — its in-memory twin for an mmap-backed relation — this way,
    so frames inherit the database's layout).
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
            store = RowStore.from_rows(len(schema), rows if rows is not None else [])
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
        relation = Relation(self.schema, store=self._store.copy())
        return relation.distinct() if distinct else relation

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
        # Adopt the relation's store directly (row- or column-backed): scans
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
            return Frame(output_schema, weights=list(frame.weights), store=frame.store)
        return Frame(
            output_schema,
            weights=list(frame.weights),
            store=frame.store.project(positions),
        )


class Evaluator:
    """Evaluates query ASTs against a relation provider.

    Args:
        db_schema: the database schema queries are posed against.
        provider: where scans read their tuples from.
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
        provider: RelationProvider,
        relaxation: Optional[Mapping[str, float]] = None,
        needed_attributes: Optional[Mapping[str, Sequence[str]]] = None,
    ) -> None:
        self.db_schema = db_schema
        self.provider = provider
        self.relaxation = dict(relaxation or {})
        self.needed_attributes = {k: list(v) for k, v in (needed_attributes or {}).items()}

    # -- public entry point -------------------------------------------------
    def evaluate(self, node: QueryNode) -> Relation:
        """Evaluate ``node`` and return its result relation.

        Non-aggregate results are deduplicated (set semantics); aggregate
        results are already one row per group.
        """
        frame = self._eval(node)
        distinct = not isinstance(node, GroupBy)
        return frame.to_relation(distinct=distinct)

    def evaluate_frame(self, node: QueryNode) -> Frame:
        """Evaluate and return the raw frame (bag semantics, with weights)."""
        return self._eval(node)

    # -- node dispatch --------------------------------------------------------
    def _eval(self, node: QueryNode) -> Frame:
        if node.is_spc():
            return self._eval_spc(to_spc(node))
        if isinstance(node, Union):
            return self._eval_union(node)
        if isinstance(node, Difference):
            return self._eval_difference(node)
        if isinstance(node, GroupBy):
            return self._eval_groupby(node)
        if isinstance(node, Project):
            return self._eval_project(node)
        if isinstance(node, Select):
            child = self._eval(node.child)
            return self._filter(child, node.condition)
        if isinstance(node, Rename):
            child = self._eval(node.child)
            schema = node.output_schema(self.db_schema)
            return Frame(schema, weights=child.weights, store=child.store)
        if isinstance(node, Product):
            left = self._eval(node.left)
            right = self._eval(node.right)
            return self._product(left, right)
        raise EvaluationError(f"unsupported query node {type(node).__name__}")

    # -- scans -----------------------------------------------------------------
    def _scan_frame(self, scan: Scan) -> Frame:
        schema = scan.output_schema(self.db_schema)
        alias = scan.effective_alias
        if alias in self.needed_attributes:
            keep = [
                name
                for name in schema.attribute_names
                if name.split(".", 1)[1] in self.needed_attributes[alias]
            ]
            if keep:
                schema = schema.project(keep, name=alias)
        return self.provider.frame_for(scan, schema)

    # -- SPC evaluation (join-aware) ----------------------------------------------
    def _eval_spc(self, query: SPCQuery) -> Frame:
        # Joins carry the output columns and the operands of attr/attr
        # predicates; a column only its own atom's filter names is dead after it.
        live: List[AttrRef] = []
        if query.output and len(query.atoms) > 1:
            live = list(query.output)
            for comparison in query.condition:
                if comparison.is_attr_attr:
                    live.extend(comparison.attributes())
        frames: Dict[str, Frame] = {}
        for alias, relation_name in query.atoms.items():
            frame = self._scan_frame(Scan(relation_name, alias))
            local = self._local_condition(query, alias, frame.schema)
            if local:
                frame = self._filter(frame, local)
            frames[alias] = self._live_frame(frame, live) if live else frame

        joined = self._join_all(frames, query)

        # Re-apply every attr/attr predicate as a residual filter.  Equality
        # predicates that drove hash joins are re-checked (harmless), and this
        # also covers same-atom comparisons, cycles in the join graph, and
        # non-equality joins, none of which the greedy join pass enforces.
        residual = [c for c in query.condition if c.is_attr_attr]
        if residual:
            joined = self._filter(joined, Conjunction.of(residual))

        if query.output:
            joined = self._project_frame(joined, query.output)
        return joined

    @staticmethod
    def _live_frame(frame: Frame, live: Sequence[AttrRef]) -> Frame:
        """``frame`` without the columns no ``live`` reference can name.

        Not on the row store, where projecting rebuilds every tuple and costs
        more than carrying dead values.  An atom no reference names keeps its
        first column: it still contributes its rows to the join.
        """
        if isinstance(frame.store, RowStore):
            return frame
        names = frame.schema.attribute_names
        keep = [p for p, name in enumerate(names) if any(may_name(ref, name) for ref in live)] or [0]
        if len(keep) == len(names):
            return frame
        schema = RelationSchema(frame.schema.name, tuple(frame.schema.attributes[p] for p in keep))
        return Frame(schema, weights=frame.weights, store=frame.store.project(keep))

    def _local_condition(self, query: SPCQuery, alias: str, schema: RelationSchema) -> Conjunction:
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

    def _join_all(self, frames: Dict[str, Frame], query: SPCQuery) -> Frame:
        """Greedy hash-join of all atoms along equality join predicates."""
        equalities = [c for c in query.join_predicates() if c.op.is_equality]
        remaining = dict(frames)
        # Start from the smallest frame for a cheap build side.
        current_alias = min(remaining, key=lambda a: len(remaining[a]))
        current = remaining.pop(current_alias)
        joined_aliases = {current_alias}

        while remaining:
            # Find an equality predicate connecting the joined part to a new atom.
            next_alias = None
            for comparison in equalities:
                left, right = comparison.attributes()
                if left.alias in joined_aliases and right.alias in remaining:
                    candidate = right.alias
                elif right.alias in joined_aliases and left.alias in remaining:
                    candidate = left.alias
                else:
                    continue
                if next_alias is None or candidate == next_alias:
                    next_alias = candidate
            if next_alias is None:
                # No connecting predicate: Cartesian product with the smallest.
                next_alias = min(remaining, key=lambda a: len(remaining[a]))
                current = self._product(current, remaining.pop(next_alias))
                joined_aliases.add(next_alias)
                continue

            other = remaining.pop(next_alias)
            keys_left: List[str] = []
            keys_right: List[str] = []
            for comparison in equalities:
                left, right = comparison.attributes()
                if left.alias in joined_aliases and right.alias == next_alias:
                    keys_left.append(resolve_attribute(current.schema, left))
                    keys_right.append(resolve_attribute(other.schema, right))
                elif right.alias in joined_aliases and left.alias == next_alias:
                    keys_left.append(resolve_attribute(current.schema, right))
                    keys_right.append(resolve_attribute(other.schema, left))
            current = self._hash_join(current, other, keys_left, keys_right)
            joined_aliases.add(next_alias)
        return current

    def _hash_join(
        self,
        left: Frame,
        right: Frame,
        keys_left: Sequence[str],
        keys_right: Sequence[str],
    ) -> Frame:
        """Equality join of two frames, relaxation-aware on the join keys.

        When any join key carries a positive relaxation slack (because the
        attribute was fetched via an access template with non-zero
        resolution), the equality is loosened to "within slack" on that key.
        The slack join runs through :class:`repro.relational.kernels.RadiusMatcher`
        (hash buckets on zero-slack keys, banded sort-merge / KD-tree
        within-radius search on the slack keys) and produces exactly the
        pairs — in the same order — a nested loop over ``left × right``
        would, with one deliberate exception: a NaN key distance no longer
        counts as a match (the old ``not (dis > slack)`` test made a NaN
        join key cross-join with every row of the other side).

        Both join variants are **index-pair joins**: the probe loop collects
        matched ``(left_index, right_index)`` pairs, and the output frame is
        materialized by per-column gather
        (:func:`repro.relational.store.gather_pairs`) — on column-backed
        inputs no intermediate ``lrow + rrow`` tuples exist at all.
        """
        slack = [
            self.relaxation.get(kl, 0.0) + self.relaxation.get(kr, 0.0)
            for kl, kr in zip(keys_left, keys_right)
        ]
        # Infinite resolutions cannot be compensated by relaxation (the bound
        # is 0 already); joining everything with everything would only produce
        # noise, so such keys keep their strict equality semantics.
        slack = [0.0 if s == INFINITY else s for s in slack]
        out_schema = RelationSchema("⋈", left.schema.attributes + right.schema.attributes)
        positions_left = left.schema.positions(keys_left)
        positions_right = right.schema.positions(keys_right)

        if all(s == 0.0 for s in slack):
            # Join keys are extracted column-at-a-time on both sides; rows
            # are only ever named by index.
            buckets: Dict[Tuple[object, ...], List[int]] = {}
            for i, key in enumerate(right.key_tuples(positions_right)):
                buckets.setdefault(key, []).append(i)
            all_hits = map(buckets.get, left.key_tuples(positions_left))
        else:
            # Relaxed join: within-slack matching through the distance
            # kernels, indexed straight from the build side's column buffers.
            # The probe side goes through the *batch* API: on a sharded
            # build side under the process executor, all probe keys ship to
            # the worker processes in one round per shard (the workers hold
            # the shard buffers and build the matchers there); otherwise the
            # batch is the same per-query loop as before.
            distances = [left.schema.attribute(k).distance for k in keys_left]
            matcher = RadiusMatcher.from_store(
                right.store, positions_right, distances, slack
            )
            all_hits = matcher.matches_many(list(left.key_tuples(positions_left)))

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
        return self._paired_frame(out_schema, left, left_indices, right, right_indices)

    @staticmethod
    def _paired_frame(
        schema: RelationSchema,
        left: Frame,
        left_indices: Sequence[int],
        right: Frame,
        right_indices: Sequence[int],
    ) -> Frame:
        """Materialize matched index pairs as a frame by per-column gather."""
        weights = list(map(mul, _gather(left.weights, left_indices), _gather(right.weights, right_indices)))
        store = gather_pairs(left.store, left_indices, right.store, right_indices)
        return Frame(schema, weights=weights, store=store)

    # -- generic operators ----------------------------------------------------
    def _product(self, left: Frame, right: Frame) -> Frame:
        schema = RelationSchema("×", left.schema.attributes + right.schema.attributes)
        size_left, size_right = len(left), len(right)
        if size_left == 0 or size_right == 0:
            cls = preferred_output_class(left.store, right.store)
            return Frame(schema, weights=[], store=cls.from_rows(len(schema), []))
        if size_right == 1:
            # Singleton side: the product is the other side with one row
            # appended per tuple — a linear gather, not a quadratic loop.
            right_weight = right.weights[0]
            weights = [w * right_weight for w in left.weights]
            store = gather_pairs(
                left.store, range(size_left), right.store, [0] * size_left
            )
            return Frame(schema, weights=weights, store=store)
        if size_left == 1:
            left_weight = left.weights[0]
            weights = [left_weight * w for w in right.weights]
            store = gather_pairs(
                left.store, [0] * size_right, right.store, range(size_right)
            )
            return Frame(schema, weights=weights, store=store)
        left_indices = [i for i in range(size_left) for _ in range(size_right)]
        right_indices = list(range(size_right)) * size_left
        return self._paired_frame(schema, left, left_indices, right, right_indices)

    def _project_frame(self, frame: Frame, columns: Sequence[AttrRef]) -> Frame:
        names = [resolve_attribute(frame.schema, ref) for ref in columns]
        positions = frame.schema.positions(names)
        schema = RelationSchema("π", tuple(frame.schema.attributes[p] for p in positions))
        return Frame(
            schema, weights=list(frame.weights), store=frame.store.project(positions)
        )

    def _eval_project(self, node: Project) -> Frame:
        child = self._eval(node.child)
        return self._project_frame(child, node.columns)

    def _eval_union(self, node: Union) -> Frame:
        left = self._eval(node.left)
        right = self._eval(node.right)
        # Dedup keys are whole-row tuples assembled column-wise (key_tuples);
        # the surviving rows are then gathered per column — first-seen order
        # and weights match the old row-dict exactly.
        all_left = list(range(len(left.schema)))
        all_right = list(range(len(right.schema)))
        seen: set = set()
        keep_left: List[int] = []
        keep_right: List[int] = []
        for keep, frame, positions in (
            (keep_left, left, all_left),
            (keep_right, right, all_right),
        ):
            for index, key in enumerate(frame.store.key_tuples(positions)):
                if key not in seen:
                    seen.add(key)
                    keep.append(index)
        weights = [left.weights[i] for i in keep_left]
        weights += [right.weights[j] for j in keep_right]
        store = vstack_gather([(left.store, keep_left), (right.store, keep_right)])
        return Frame(left.schema, weights=weights, store=store)

    def _eval_difference(self, node: Difference) -> Frame:
        left = self._eval(node.left)
        right = self._eval(node.right)
        return self._strict_difference(left, right)

    @classmethod
    def _strict_difference(cls, left: Frame, right: Frame) -> Frame:
        """Exact set difference: keep-indices over column-wise row keys.

        Shared by exact evaluation and the BEAS guard's zero-resolution
        branch; the surviving rows are gathered out of the left backend.
        """
        removed = set(right.store.key_tuples(list(range(len(right.schema)))))
        keep = [
            index
            for index, key in enumerate(
                left.store.key_tuples(list(range(len(left.schema))))
            )
            if key not in removed
        ]
        return cls._kept_frame(left, keep)

    @staticmethod
    def _kept_frame(frame: Frame, keep: Sequence[int]) -> Frame:
        """The sub-frame at row indices ``keep`` (backend-preserving gather)."""
        if len(keep) == len(frame):
            return frame
        weights = [frame.weights[index] for index in keep]
        return Frame(frame.schema, weights=weights, store=frame.store.take(keep))

    def _eval_groupby(self, node: GroupBy) -> Frame:
        child = self._eval(node.child)
        out_schema = node.output_schema(self.db_schema)
        group_names = [resolve_attribute(child.schema, ref) for ref in node.group_columns]
        group_positions = child.schema.positions(group_names)
        agg_name = resolve_attribute(child.schema, node.agg_column)
        agg_position = child.schema.position(agg_name)

        # Group keys and the aggregated column are pulled column-at-a-time;
        # no full row tuples are materialized for grouping.
        groups: Dict[Tuple[object, ...], List[Tuple[object, float]]] = {}
        for key, value, weight in zip(
            child.key_tuples(group_positions), child.column(agg_position), child.weights
        ):
            groups.setdefault(key, []).append((value, weight))

        # One output row per group, assembled column-by-column: the key
        # columns transpose the (insertion-ordered) group keys, the last
        # column is the aggregate.
        key_width = len(group_positions)
        columns: List[List[object]] = [[] for _ in range(key_width + 1)]
        for key, pairs in groups.items():
            for position in range(key_width):
                columns[position].append(key[position])
            columns[key_width].append(node.aggregate.apply_weighted(pairs))
        cls = preferred_output_class(child.store)
        store = cls.from_columns(len(out_schema), columns)
        return Frame(out_schema, weights=[1.0] * len(groups), store=store)

    # -- selection with relaxation --------------------------------------------
    def _filter(self, frame: Frame, condition: Conjunction) -> Frame:
        """Apply a (possibly relaxed) conjunction through the fused engine.

        Each comparison compiles to a per-store chunk binder (see
        :meth:`_comparison_binder`); the whole conjunction then runs as one
        :class:`~repro.algebra.predicates.MaskProgram` — chunked, fused,
        selectivity-ordered — through
        :meth:`~repro.relational.store.Store.select_gather`, which on a
        sharded backend runs the program shard-locally (over the shard's
        typed buffers) and — under the process executor — fuses the mask and
        the survivor gather into a single worker round-trip per shard.  The
        surviving rows are compressed out of the backend in one pass, so no
        per-row tuple is materialized for filtering.  Semantics are
        identical to the former row-at-a-time ``all(check(row) ...)`` loop
        on every backend at every chunk size.

        Which comparisons run as one typed pass per chunk, with no Python
        call per value: every strict comparison over a typed numeric column
        (:meth:`~repro.algebra.predicates.CompareOp.column_mask`), and every
        relaxed ``=``, ``<=``, ``<``, ``>=``, ``>`` under a built-in numeric
        distance (``NUMERIC``, ``numeric_scaled``) between typed numeric
        columns or such a column and a numeric constant.  Everything else
        falls back to the per-value functions below (see
        :meth:`_comparison_binder`).
        """
        if not condition:
            return frame
        condition = condition_on(frame.schema, condition)
        if not any(0 < slack < INFINITY for slack in self.relaxation.values()):
            # Every comparison compiles strictly (zero or infinite slack falls
            # back to the strict binder), which is exactly what
            # ``Conjunction.program`` builds — route through the shared
            # compiled-program cache so a serving workload re-running the
            # same query shape skips recompilation.
            program = cached_program(condition, frame.schema)
        else:
            program = MaskProgram(
                [self._comparison_binder(frame.schema, comparison) for comparison in condition]
            )
        mask, selected = frame.store.select_gather(program.run_part)
        if selected is frame.store:
            return frame
        weights = list(compress(frame.weights, mask))
        return Frame(frame.schema, weights=weights, store=selected)

    def _comparison_binder(
        self, schema: RelationSchema, comparison: Comparison
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
            slack = self.relaxation.get(name, 0.0)
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
            slack = self.relaxation.get(lname, 0.0) + self.relaxation.get(rname, 0.0)
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


@dataclass(frozen=True)
class _RelaxedConstBinder:
    """Picklable fused-engine binder for a relaxed ``A op c`` comparison.

    The former closure form could not cross a process boundary; as a frozen
    dataclass the binder rides inside compiled
    :class:`~repro.algebra.predicates.MaskProgram`\\s to the process-parallel
    shard executor's workers (op enums, constants and the built-in distance
    functions all pickle).  Each chunk runs through the distance's column
    kernel when it has one for that window, value by value otherwise (see
    :meth:`Evaluator._comparison_binder`).
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
