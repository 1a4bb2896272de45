"""Selection predicates.

Queries use conjunctions of atomic comparisons between attribute references
and constants (``σ_{A=c}``, ``σ_{A<=c}``) or between two attribute references
(``σ_{A=B}``, ``σ_{A<=B}``), exactly the forms the paper's accuracy measure
and relaxation machinery handle.

An :class:`AttrRef` names an attribute of the query's *output* (or of an
intermediate operator's output) by its qualified name ``alias.attribute``.

Besides the classic per-row evaluation (:meth:`CompareOp.evaluate`), every
comparison supports a **vectorized path**: :meth:`Comparison.mask` /
:meth:`Conjunction.mask` evaluate the condition column-at-a-time over a
storage backend (:class:`repro.relational.store.Store`) and return a 0/1
byte mask, one byte per row.  Column-at-a-time evaluation never materializes
row tuples and dispatches one tight loop per comparison instead of one
Python call per row, which is what makes column-backed selection fast;
consumers that need arbitrary per-row callables simply keep using the row
path (:meth:`repro.relational.relation.Relation.select` accepts both).

**Fused chunked evaluation.**  A :class:`Conjunction` does not evaluate its
comparisons one whole column at a time; it compiles to a
:class:`MaskProgram` — one block-wise pass over the store in chunks of
:data:`MASK_CHUNK_SIZE` rows (a cache-friendly window; ``chunk_size=``
overrides it per call) that *fuses* every comparison per chunk.  Within
each chunk the comparisons run in ascending order of their
*observed selectivity* (pass rates measured on the chunks evaluated so
far), and evaluation of the remaining comparisons short-circuits the moment
the chunk's accumulated mask goes all-zero — so a selective leading
predicate lets the engine skip most of the work of the others.  The whole
program routes through :meth:`repro.relational.store.Store.eval_mask`, so a
sharded store fuses per shard and stitches per-shard masks back into global
row order.  Results are
bit-identical to per-row :meth:`CompareOp.evaluate` at every chunk size on
every backend (AND is commutative and each comparison's chunk mask matches
its per-value semantics exactly).
"""

from __future__ import annotations

import enum
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .. import config
from ..errors import QueryError
from ..relational.schema import RelationSchema
from ..relational.store import Store, all_ones, and_masks

# Rows per block of the fused chunked evaluation, read at run time.  4096
# keeps the working set (a handful of column slices plus masks) well inside
# L2 while leaving per-chunk Python overhead negligible; results are
# identical at every chunk size.
MASK_CHUNK_SIZE = 4096


# ---------------------------------------------------------------------------
# Compiled-program cache (the serving layer's MaskProgram cache)
# ---------------------------------------------------------------------------
#
# Compiling a conjunction resolves every attribute reference against the
# schema and builds one binder per comparison.  A long-lived server answering
# the same query shapes over and over repeats that work per request; the
# bounded LRU below memoizes compiled programs by (condition, schema
# attribute names, chunk size).  Programs are safe to share: a MaskProgram
# holds only frozen binders and keeps its adaptive selectivity state local to
# each ``run_part`` call, so concurrent reuse across threads cannot race.
# The cache is off by default (the ``program_cache_capacity`` setting of
# repro.config is 0 — batch reproductions pay nothing); the serving facade
# turns it on.

_program_cache_lock = threading.Lock()
_program_cache: "OrderedDict[tuple, MaskProgram]" = OrderedDict()
_program_cache_hits = 0
_program_cache_misses = 0


def _on_configure(previous: config.Config, new: config.Config) -> None:
    """Evict least-recently-used programs at once when the capacity shrinks."""
    with _program_cache_lock:
        while len(_program_cache) > new.program_cache_capacity:
            _program_cache.popitem(last=False)


config.subscribe(_on_configure)


def clear_program_cache() -> None:
    """Drop every memoized program (capacity unchanged); resets hit counters."""
    global _program_cache_hits, _program_cache_misses
    with _program_cache_lock:
        _program_cache.clear()
        _program_cache_hits = 0
        _program_cache_misses = 0


def program_cache_info() -> dict:
    """Size / capacity / hit counters of the compiled-program cache."""
    with _program_cache_lock:
        return {
            "size": len(_program_cache),
            "capacity": config.current().program_cache_capacity,
            "hits": _program_cache_hits,
            "misses": _program_cache_misses,
        }


def cached_program(
    condition: "Conjunction",
    schema: RelationSchema,
    chunk_size: Optional[int] = None,
) -> "MaskProgram":
    """Compile ``condition`` against ``schema``, memoizing when enabled.

    Falls back to a fresh compile when the cache is disabled or the
    condition's constants are unhashable — behaviour is identical either
    way; only the compile work is saved.
    """
    global _program_cache_hits, _program_cache_misses
    if config.current().program_cache_capacity <= 0:
        return condition.program(schema, chunk_size)
    key = (condition, schema.attribute_names, chunk_size)
    try:
        with _program_cache_lock:
            program = _program_cache.get(key)
            if program is not None:
                _program_cache.move_to_end(key)
                _program_cache_hits += 1
                return program
    except TypeError:  # unhashable constant somewhere in the condition
        return condition.program(schema, chunk_size)
    program = condition.program(schema, chunk_size)
    with _program_cache_lock:
        _program_cache_misses += 1
        capacity = config.current().program_cache_capacity  # may have shrunk meanwhile
        if capacity > 0:
            _program_cache[key] = program
            while len(_program_cache) > capacity:
                _program_cache.popitem(last=False)
    return program


# A chunk masker, bound to one (sub-)store: maps a row window [lo, hi) to a
# 0/1 byte mask of length hi-lo.
ChunkMasker = Callable[[int, int], "bytearray"]


def chunk_window(column: Sequence[object], lo: int, hi: int) -> Sequence[object]:
    """``column[lo:hi]`` without copying when the window covers the whole buffer.

    Chunk maskers read column windows; a single-chunk pass (small store, or
    a single-predicate program) would otherwise duplicate every referenced
    buffer just to evaluate it.
    """
    if lo == 0 and hi >= len(column):
        return column
    return column[lo:hi]
# A binder compiles a predicate against one (sub-)store, typically capturing
# the column buffer(s) it reads.
ChunkBinder = Callable[[Store], ChunkMasker]


@dataclass(frozen=True)
class ConstChunkBinder:
    """Picklable binder for ``column[position] op constant`` chunk masks.

    Binders used to be closures; the process-parallel shard executor
    (:mod:`repro.relational.parallel`) ships compiled :class:`MaskProgram`
    objects to worker processes, so every binder a program holds must be a
    plain picklable value.  Applying the binder to one (sub-)store captures
    that store's column buffer and yields the ``(lo, hi) -> mask`` chunk
    masker, exactly as the closure form did.
    """

    op: "CompareOp"
    position: int
    constant: object

    def __call__(self, store: Store) -> ChunkMasker:
        column = store.column(self.position)
        op, constant = self.op, self.constant
        return lambda lo, hi: op.column_mask(chunk_window(column, lo, hi), constant)


@dataclass(frozen=True)
class PairChunkBinder:
    """Picklable binder for ``column[left] op column[right]`` chunk masks."""

    op: "CompareOp"
    left_position: int
    right_position: int

    def __call__(self, store: Store) -> ChunkMasker:
        left_column = store.column(self.left_position)
        right_column = store.column(self.right_position)
        op = self.op
        return lambda lo, hi: op.column_mask_pair(
            chunk_window(left_column, lo, hi), chunk_window(right_column, lo, hi)
        )


class MaskProgram:
    """A conjunction compiled to one fused, chunked, selectivity-ordered pass.

    ``binders`` compile the individual predicates per (sub-)store; the
    program evaluates all of them chunk by chunk, AND-fusing their chunk
    masks.  Two adaptive behaviours (neither affects results):

    * **Selectivity ordering** — before each chunk, predicates are ordered
      by the pass rate observed on the chunks already evaluated (most
      selective first), so the cheapest all-zero outcome arrives earliest.
    * **Short-circuiting** — once a chunk's accumulated mask is all zero,
      the remaining predicates are skipped for that chunk.

    The program runs through :meth:`~repro.relational.store.Store.eval_mask`,
    so a sharded backend executes it once per shard — each shard keeps its
    own selectivity statistics, so concurrent callers never share them — and
    stitches the per-shard masks into global row order.
    """

    __slots__ = ("binders", "chunk_size")

    def __init__(
        self, binders: Sequence[ChunkBinder], chunk_size: Optional[int] = None
    ) -> None:
        self.binders = list(binders)
        self.chunk_size = chunk_size  # None: read MASK_CHUNK_SIZE at run time

    def mask(self, store: Store) -> bytearray:
        """Evaluate the program over ``store``: one 0/1 byte per row."""
        if not self.binders:
            return all_ones(len(store))
        return store.eval_mask(self.run_part)

    def run_part(self, part: Store) -> bytearray:
        """The chunked pass over one unsharded (sub-)store."""
        size = len(part)
        chunk = self.chunk_size if self.chunk_size is not None else MASK_CHUNK_SIZE
        maskers = [bind(part) for bind in self.binders]
        if len(maskers) == 1:
            return maskers[0](0, size)  # nothing to fuse or reorder
        order = list(range(len(maskers)))
        passed = [0] * len(maskers)
        seen = [0] * len(maskers)
        out = bytearray(size)
        for lo in range(0, size, chunk):
            hi = min(lo + chunk, size)
            # Cheap running estimate; +1/+2 keeps unevaluated predicates at
            # 0.5 so everything gets measured early on.
            order.sort(key=lambda k: (passed[k] + 1) / (seen[k] + 2))
            acc: Optional[bytearray] = None
            for k in order:
                part_mask = maskers[k](lo, hi)
                passed[k] += part_mask.count(1)
                seen[k] += hi - lo
                acc = part_mask if acc is None else and_masks(acc, part_mask)
                if not any(acc):
                    break  # chunk already empty; skip remaining predicates
            out[lo:hi] = acc if acc is not None else all_ones(hi - lo)
        return out


@dataclass(frozen=True)
class AttrRef:
    """Reference to an attribute, optionally qualified by a relation alias."""

    alias: Optional[str]
    attribute: str

    @property
    def qualified(self) -> str:
        """``alias.attribute`` when qualified, else just ``attribute``."""
        return f"{self.alias}.{self.attribute}" if self.alias else self.attribute

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return self.qualified

    @classmethod
    def parse(cls, text: str) -> "AttrRef":
        """Parse ``"alias.attr"`` or ``"attr"`` into an :class:`AttrRef`."""
        if "." in text:
            alias, attr = text.split(".", 1)
            return cls(alias, attr)
        return cls(None, text)


@dataclass(frozen=True)
class Const:
    """A literal constant appearing in a query."""

    value: object

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return repr(self.value)


Operand = Union[AttrRef, Const]


def may_name(ref: AttrRef, name: str) -> bool:
    """Whether ``ref`` can resolve to the attribute called ``name``.

    The candidate rule of :func:`resolve_position`: the qualified name, or
    the attribute as a suffix under the reference's alias (any alias when it
    has none).  A schema keeping every attribute a reference may name
    resolves it as the full schema does — same attribute, same ambiguity.
    """
    if not name.endswith(ref.attribute):  # every form below ends with it
        return False
    if name == ref.qualified:
        return True
    if name != ref.attribute and not name.endswith(f".{ref.attribute}"):
        return False
    return not ref.alias or name.startswith(f"{ref.alias}.")


def resolve_position(schema: RelationSchema, ref: AttrRef) -> int:
    """Column position of ``ref`` within ``schema``.

    The canonical attribute-resolution rules (exact qualified match, else
    unambiguous suffix match, with alias filtering), shared by the
    vectorized predicate path and :func:`repro.algebra.ast.resolve_attribute`
    (which delegates here; this module cannot import the AST module).
    """
    qualified = ref.qualified
    if qualified in schema:
        return schema.position(qualified)
    candidates = [name for name in schema.attribute_names if may_name(ref, name)]
    if len(candidates) == 1:
        return schema.position(candidates[0])
    if not candidates:
        raise QueryError(
            f"attribute {qualified!r} not found in schema {list(schema.attribute_names)}"
        )
    raise QueryError(f"attribute {qualified!r} is ambiguous: matches {candidates}")


class CompareOp(enum.Enum):
    """Comparison operators supported in selection conditions."""

    EQ = "="
    NE = "!="
    LE = "<="
    LT = "<"
    GE = ">="
    GT = ">"

    def evaluate(self, left: object, right: object) -> bool:
        """Apply the operator to two concrete values."""
        if self is CompareOp.EQ:
            return left == right
        if self is CompareOp.NE:
            return left != right
        if left is None or right is None:
            return False
        try:
            if self is CompareOp.LE:
                return left <= right  # type: ignore[operator]
            if self is CompareOp.LT:
                return left < right  # type: ignore[operator]
            if self is CompareOp.GE:
                return left >= right  # type: ignore[operator]
            if self is CompareOp.GT:
                return left > right  # type: ignore[operator]
        except TypeError:
            return False
        raise QueryError(f"unsupported comparison operator {self}")

    def column_mask(self, values: Sequence[object], constant: object) -> bytearray:
        """Vectorized ``value op constant`` over a whole column.

        Returns a 0/1 byte per value with semantics identical to calling
        :meth:`evaluate` per value (``None`` and non-comparable pairs fail
        order comparisons).  The common all-comparable case runs as one
        tight generator pass — typed numeric buffers (``array.array``) skip
        the per-value ``None`` guard entirely; a ``TypeError`` from a
        mixed-type column falls back to the per-value path, which absorbs it
        pair by pair.
        """
        if self is CompareOp.EQ:
            return bytearray(v == constant for v in values)
        if self is CompareOp.NE:
            return bytearray(v != constant for v in values)
        if constant is None:
            return bytearray(len(values))
        if isinstance(values, array):
            # Typed buffer: every value is a real number, no None/TypeError
            # possible (NaN order comparisons are False, as under evaluate).
            if isinstance(constant, (int, float)):
                if self is CompareOp.LE:
                    return bytearray(v <= constant for v in values)
                if self is CompareOp.LT:
                    return bytearray(v < constant for v in values)
                if self is CompareOp.GE:
                    return bytearray(v >= constant for v in values)
                if self is CompareOp.GT:
                    return bytearray(v > constant for v in values)
            return bytearray(self.evaluate(v, constant) for v in values)
        try:
            if self is CompareOp.LE:
                return bytearray(v is not None and v <= constant for v in values)
            if self is CompareOp.LT:
                return bytearray(v is not None and v < constant for v in values)
            if self is CompareOp.GE:
                return bytearray(v is not None and v >= constant for v in values)
            if self is CompareOp.GT:
                return bytearray(v is not None and v > constant for v in values)
        except TypeError:
            return bytearray(self.evaluate(v, constant) for v in values)
        raise QueryError(f"unsupported comparison operator {self}")

    def column_mask_pair(
        self, left_values: Sequence[object], right_values: Sequence[object]
    ) -> bytearray:
        """Vectorized ``left op right`` over two aligned columns."""
        pairs = zip(left_values, right_values)
        if self is CompareOp.EQ:
            return bytearray(a == b for a, b in pairs)
        if self is CompareOp.NE:
            return bytearray(a != b for a, b in pairs)
        try:
            if self is CompareOp.LE:
                return bytearray(
                    a is not None and b is not None and a <= b for a, b in pairs
                )
            if self is CompareOp.LT:
                return bytearray(
                    a is not None and b is not None and a < b for a, b in pairs
                )
            if self is CompareOp.GE:
                return bytearray(
                    a is not None and b is not None and a >= b for a, b in pairs
                )
            if self is CompareOp.GT:
                return bytearray(
                    a is not None and b is not None and a > b for a, b in pairs
                )
        except TypeError:
            return bytearray(
                self.evaluate(a, b) for a, b in zip(left_values, right_values)
            )
        raise QueryError(f"unsupported comparison operator {self}")

    @property
    def is_equality(self) -> bool:
        return self is CompareOp.EQ

    @property
    def is_inequality_range(self) -> bool:
        """True for the order comparisons (<=, <, >=, >)."""
        return self in (CompareOp.LE, CompareOp.LT, CompareOp.GE, CompareOp.GT)

    @classmethod
    def parse(cls, symbol: str) -> "CompareOp":
        for op in cls:
            if op.value == symbol:
                return op
        if symbol == "<>":
            return cls.NE
        if symbol == "==":
            return cls.EQ
        raise QueryError(f"unknown comparison operator {symbol!r}")


@dataclass(frozen=True)
class Comparison:
    """One atomic comparison ``left op right``."""

    left: Operand
    op: CompareOp
    right: Operand

    def __post_init__(self) -> None:
        if isinstance(self.left, Const) and isinstance(self.right, Const):
            raise QueryError("comparison between two constants is not a selection")

    # -- structural helpers --------------------------------------------------
    @property
    def is_attr_const(self) -> bool:
        """True for ``A op c`` (in either written order)."""
        return isinstance(self.left, AttrRef) ^ isinstance(self.right, AttrRef)

    @property
    def is_attr_attr(self) -> bool:
        """True for ``A op B``."""
        return isinstance(self.left, AttrRef) and isinstance(self.right, AttrRef)

    def normalized(self) -> "Comparison":
        """Rewrite so an attribute is always on the left for attr/const forms."""
        if isinstance(self.left, Const) and isinstance(self.right, AttrRef):
            flipped = {
                CompareOp.LE: CompareOp.GE,
                CompareOp.LT: CompareOp.GT,
                CompareOp.GE: CompareOp.LE,
                CompareOp.GT: CompareOp.LT,
                CompareOp.EQ: CompareOp.EQ,
                CompareOp.NE: CompareOp.NE,
            }[self.op]
            return Comparison(self.right, flipped, self.left)
        return self

    def attributes(self) -> List[AttrRef]:
        """All attribute references used by this comparison."""
        refs = []
        for operand in (self.left, self.right):
            if isinstance(operand, AttrRef):
                refs.append(operand)
        return refs

    def constant(self) -> Optional[object]:
        """The constant operand for attr/const comparisons, else ``None``."""
        for operand in (self.left, self.right):
            if isinstance(operand, Const):
                return operand.value
        return None

    def mask(self, store: Store, schema: RelationSchema) -> bytearray:
        """Vectorized evaluation over a storage backend: one 0/1 byte per row.

        Pulls the referenced column buffer(s) straight from ``store`` (no
        row tuples) and applies :meth:`CompareOp.column_mask` /
        :meth:`CompareOp.column_mask_pair`.  Evaluation routes through
        :meth:`repro.relational.store.Store.eval_mask`, so a sharded backend
        evaluates each shard's buffers independently and stitches the
        per-shard masks back into global row order.  Semantics match per-row
        :meth:`CompareOp.evaluate`
        exactly on every backend.
        """
        # A one-binder program: run_part short-circuits to a single
        # whole-(sub-)store masker call, so this is exactly the former
        # closure-per-shard evaluation — but the masker is picklable, which
        # lets a process-mode sharded store's fused ``select_gather`` ship
        # the same program to its worker processes.
        return MaskProgram([self.chunk_binder(schema)]).mask(store)

    def chunk_binder(self, schema: RelationSchema) -> ChunkBinder:
        """Compile this comparison for fused chunked evaluation.

        The returned binder, applied to one (sub-)store, captures the
        referenced column buffer(s) and yields a ``(lo, hi) -> mask``
        chunk masker.  Buffer slices keep their type (an ``array`` slice is
        an ``array``), so the typed fast paths of
        :meth:`CompareOp.column_mask` apply chunk by chunk.  Binders are
        plain picklable values (:class:`ConstChunkBinder` /
        :class:`PairChunkBinder`), so a compiled program can be shipped to
        the process-parallel shard executor's workers.
        """
        comparison = self.normalized()
        op = comparison.op
        if comparison.is_attr_const:
            position = resolve_position(schema, comparison.attributes()[0])
            return ConstChunkBinder(op, position, comparison.constant())
        left, right = comparison.attributes()
        return PairChunkBinder(
            op, resolve_position(schema, left), resolve_position(schema, right)
        )

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return f"{self.left} {self.op.value} {self.right}"


@dataclass(frozen=True)
class Conjunction:
    """A conjunction of atomic comparisons (the paper's selection condition)."""

    comparisons: Tuple[Comparison, ...]

    @classmethod
    def of(cls, comparisons: Sequence[Comparison]) -> "Conjunction":
        return cls(tuple(comparisons))

    @classmethod
    def true(cls) -> "Conjunction":
        """The empty (always-true) condition."""
        return cls(())

    def __iter__(self):
        return iter(self.comparisons)

    def __len__(self) -> int:
        return len(self.comparisons)

    def __bool__(self) -> bool:
        return bool(self.comparisons)

    def and_also(self, other: "Conjunction") -> "Conjunction":
        """The conjunction of two conditions."""
        return Conjunction(self.comparisons + other.comparisons)

    def attributes(self) -> List[AttrRef]:
        """All attribute references mentioned anywhere in the condition."""
        refs: List[AttrRef] = []
        for comparison in self.comparisons:
            refs.extend(comparison.attributes())
        return refs

    def equality_comparisons(self) -> List[Comparison]:
        return [c for c in self.comparisons if c.op.is_equality]

    def mask(
        self,
        store: Store,
        schema: RelationSchema,
        chunk_size: Optional[int] = None,
    ) -> bytearray:
        """Vectorized conjunction via the fused chunked engine.

        The empty conjunction selects every row.  Everything else compiles
        to a :class:`MaskProgram` (see the module docstring): the
        comparisons are fused block-wise in chunks of ``chunk_size`` rows
        (default: :data:`MASK_CHUNK_SIZE`), ordered per chunk
        by observed selectivity, short-circuiting once a chunk's mask is all
        zero.  The program runs through
        :meth:`~repro.relational.store.Store.eval_mask`, so a sharded
        backend fuses shard-locally and stitches one combined mask per shard
        (one gather for the conjunction, not one per comparison).  Results
        equal the per-row AND of :meth:`CompareOp.evaluate` at every chunk
        size on every backend.
        """
        if not self.comparisons:
            return all_ones(len(store))
        return cached_program(self, schema, chunk_size).mask(store)

    def program(
        self, schema: RelationSchema, chunk_size: Optional[int] = None
    ) -> MaskProgram:
        """Compile this conjunction to a reusable :class:`MaskProgram`."""
        return MaskProgram(
            [comparison.chunk_binder(schema) for comparison in self.comparisons],
            chunk_size,
        )

    def __str__(self) -> str:  # pragma: no cover - debug helper
        if not self.comparisons:
            return "true"
        return " and ".join(str(c) for c in self.comparisons)
