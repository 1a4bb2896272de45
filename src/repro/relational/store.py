"""Pluggable storage backends behind :class:`~repro.relational.relation.Relation`.

A :class:`Store` holds the tuples of one relation and hides *how* they are
laid out in memory.  :class:`~repro.relational.relation.Relation` is a thin
facade over a store: every relational operation (projection, selection,
grouping) and every kernel (distance matching, template-index construction,
RC sweeps) reads through the store API, so the layout is a tunable parameter of
the system rather than a hard-wired representation.

Three backends ship with the library:

* :class:`RowStore` — the classic layout: one Python tuple per row, kept in a
  single list.  Cheap row materialization, row-at-a-time everything.
* :class:`ColumnStore` — columnar layout: one buffer per attribute.  Pure
  float columns are held in contiguous ``array.array('d')`` buffers and pure
  int columns in ``array.array('q')`` buffers (falling back to a plain list
  the moment a value of any other type — ``None``, ``bool``, strings, huge
  ints — arrives, so values always round-trip bit-identically).  Column
  reads (:meth:`Store.column`, :meth:`Store.key_tuples`) return whole buffers
  without materializing row tuples, which is what the vectorized predicate
  masks (:meth:`repro.algebra.predicates.Comparison.mask`), the hash-join key
  extraction, the distance kernels and the template-index builder consume.
* :class:`ShardedStore` — horizontal partitioning: the rows are cut into
  ``shard_count`` contiguous ranges, one per-shard :class:`ColumnStore`
  each, so the rows in insertion order are the shard buffers one after
  another.  The shards exist
  for *shipping*: under the ``"process"`` ``shard_executor`` setting
  (:mod:`repro.config`) the fused :meth:`~ShardedStore.select_gather` sends
  its mask program to the worker processes of
  :mod:`repro.relational.parallel`, one mapped file per shard.  Everything
  the caller *reads* — rows, columns, masks, gathers, derivations — goes
  through one cached global-order :class:`ColumnStore` view, so a sharded
  store costs the caller what a column store does.  See
  :meth:`ShardedStore.configured` for fixing the shard count and
  registering the variant as its own backend name.

**Shard-aware evaluation.**  Vectorized consumers do not special-case the
sharded backend; they route whole-store computations through
:meth:`Store.eval_mask` (predicate byte-masks) and
:meth:`Store.select_gather`.  Order-insensitive sweeps (the RC coverage
reductions, the kernels' max/min walks) may read partition by partition
through :meth:`Store.shard_views`.

A fourth, persistent tier lives in :mod:`repro.relational.mmapstore`:
:class:`~repro.relational.mmapstore.MmapStore` (``"mmap"``) and its sharded
variant (``"mmap-sharded"``) keep the same typed-column layout in mmap'd
files, exposing columns as zero-copy ``memoryview`` casts — the buffer
combinators below (:func:`_uniform_typecode`, :func:`_concat_buffers`)
treat those views and in-memory ``array`` buffers interchangeably.

**Choosing a backend.**  Per relation via
``Relation(schema, rows, backend="column")`` /
``Relation.from_columns(...)``, or process-wide via the ``default_backend``
setting (:mod:`repro.config`).  Derived relations
(project/select/distinct/...) of a row or column store keep its backend;
those of an mmap-backed or sharded store are in-memory
:class:`ColumnStore`\\s.

**Adding a third-party backend.**  Subclass :class:`Store` and implement the
abstract core (``__len__``, ``append``, ``row``, ``iter_rows``, ``row_list``,
``column``, ``select_mask``, ``take``, ``project``, ``head``, ``copy`` and
the ``from_rows`` / ``from_columns`` constructors — the docstrings below are
the contract; ``gather_column`` has a generic default worth overriding for
layouts with typed buffers), set a unique ``backend`` class attribute, and
register it with :func:`register_backend`::

    class FancyStore(Store):
        backend = "fancy"
        ...

    register_backend("fancy", FancyStore)
    configure(default_backend="fancy")   # or Relation(..., backend="fancy")

Every backend must preserve **value identity**: a value read back from the
store must be equal to — and of the same type as — the value that was
appended (``1`` stays ``int``, ``1.0`` stays ``float``, ``None`` stays
``None``, NaN stays NaN).  The differential tests in ``tests/test_store.py``
hold backends to this: row- and column-backed execution of the same queries
must return bit-identical relations.

**Mutation discipline.**  Buffers returned by :meth:`Store.column` /
:meth:`Store.row_list` are internal state, exposed without copying for speed;
callers must treat them as read-only.  A store is owned by exactly one
relation/frame for mutation purposes; derived stores are always fresh copies.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from .. import config

Row = Tuple[object, ...]


def _buffer_typecode(buffer: Sequence[object]) -> Optional[str]:
    """The typecode of a typed column buffer, or ``None`` for plain lists.

    Typed buffers come in two shapes: in-memory ``array`` columns and the
    read-only ``memoryview`` casts an mmap-backed store exposes over its
    file.  Both carry raw machine values and support ``tobytes()``, so the
    C-speed concatenation/stitch paths treat them interchangeably.
    """
    if isinstance(buffer, array):
        return buffer.typecode
    if isinstance(buffer, memoryview):
        return buffer.format
    return None


def _uniform_typecode(parts: Sequence[Sequence[object]]) -> Optional[str]:
    """The shared typed-buffer typecode of ``parts``, or ``None``.

    The one rule deciding whether per-part buffers (shard columns, gathered
    slices) can recombine into a typed buffer: every non-empty part must be
    a typed buffer (``array`` or mmap-backed ``memoryview``) of the same
    typecode.  Empty parts are ignored — an empty buffer may be a plain
    list regardless of its column's kind.
    """
    first = next((part for part in parts if len(part)), None)
    if first is None:
        return None
    typecode = _buffer_typecode(first)
    if typecode is None:
        return None
    for part in parts:
        if len(part) and _buffer_typecode(part) != typecode:
            return None
    return typecode


def _gather(buffer: Sequence[object], indices: Sequence[int]) -> Sequence[object]:
    """``buffer``'s values at ``indices``, in one C-level call for all of them."""
    if len(indices) > 1:
        return itemgetter(*indices)(buffer)
    return [buffer[index] for index in indices]


# ColumnStore buffer kinds.
_KIND_EMPTY = "empty"  # no values yet: becomes typed on first append
_KIND_FLOAT = "float"  # array('d') of pure-float values
_KIND_INT = "int"  # array('q') of pure (machine-word) int values
_KIND_OBJECT = "object"  # plain list, any values

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class Store:
    """Abstract storage backend for a relation's tuples.

    Concrete backends set the ``backend`` class attribute (the name used by
    ``Relation(..., backend=...)``) and implement the methods below.  All
    derived stores (``select_mask``/``take``/``project``/``head``/``copy``)
    return a **new** store; ``copy`` keeps the backend, the others may use a
    plainer in-memory layout (a :class:`ColumnStore` for the mmap and
    sharded tiers).
    """

    backend: str = "abstract"
    width: int

    # -- size / mutation ----------------------------------------------------
    def __len__(self) -> int:
        raise NotImplementedError

    def append(self, row: Sequence[object]) -> None:
        """Add one row (arity is validated by the owning relation)."""
        raise NotImplementedError

    def extend(self, rows: Iterable[Sequence[object]]) -> None:
        for row in rows:
            self.append(row)

    # -- mutation epoch -----------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonic count of in-place mutations of this store.

        Every mutating operation (``append``/``extend``; on a sharded store,
        anything that routes through ``_invalidate`` — the same event that
        retires a process-mode publication) bumps the counter.  Freshly
        built and derived stores start at 0: the epoch identifies *versions
        of one live store*, not contents.  The serving layer aggregates the
        per-store epochs into a per-database *publication epoch*
        (:attr:`repro.relational.database.Database.publication_epoch`) and
        keys its result cache on it, so a mutated store can never answer a
        query from a stale cache entry.
        """
        return getattr(self, "_epoch", 0)

    def bump_epoch(self) -> None:
        """Record one in-place mutation (see :attr:`epoch`)."""
        self._epoch = self.epoch + 1

    # -- row access ---------------------------------------------------------
    def row(self, index: int) -> Row:
        """The row at ``index`` as a tuple."""
        raise NotImplementedError

    def iter_rows(self) -> Iterator[Row]:
        """Iterate rows as tuples, in insertion order."""
        raise NotImplementedError

    def row_list(self) -> List[Row]:
        """All rows as a list of tuples (may be cached; treat as read-only)."""
        raise NotImplementedError

    # -- column access ------------------------------------------------------
    def column(self, position: int) -> Sequence[object]:
        """All values of one attribute, in row order (treat as read-only).

        Column backends return their internal buffer without copying; row
        backends materialize a fresh list.
        """
        raise NotImplementedError

    def columns(self) -> List[Sequence[object]]:
        """One :meth:`column` per attribute, in schema order."""
        return [self.column(position) for position in range(self.width)]

    def key_tuples(self, positions: Sequence[int]) -> Iterator[Tuple[object, ...]]:
        """Iterate ``tuple(row[p] for p in positions)`` per row, column-wise.

        The default implementation zips the relevant column buffers, so no
        full row tuples are materialized.
        """
        if not positions:
            n = len(self)
            return iter([()] * n)
        return zip(*(self.column(p) for p in positions))

    def gather_column(self, position: int, indices: Sequence[int]) -> Sequence[object]:
        """One attribute's values at ``indices``, in that order (the *gather*
        primitive).

        This is the column-level half of :meth:`take`: operators that compute
        matched row indices (index-pair joins, products, union/difference
        survivors) materialize their outputs by gathering each source column
        at those indices instead of building Python row tuples.  Indices may
        repeat, arrive out of order, or be empty.  Column backends gather
        straight from their typed buffers (returning a typed buffer again).
        The returned buffer is always fresh — callers may adopt it.
        """
        column = self.column(position)
        return list(map(column.__getitem__, indices))

    # -- whole-store evaluation ---------------------------------------------
    def eval_mask(self, masker: Callable[["Store"], Sequence[int]]) -> bytearray:
        """Evaluate a 0/1 byte-mask computation over this store's rows.

        ``masker`` maps a store to one mask byte per row (in row order); it
        is applied to ``self`` (a sharded store applies it to its flat column
        view).  Vectorized predicate evaluation
        (:meth:`repro.algebra.predicates.Comparison.mask` and the evaluator's
        relaxed selections) routes through here.
        """
        mask = masker(self)
        return mask if isinstance(mask, bytearray) else bytearray(mask)

    def select_gather(
        self, masker: Callable[["Store"], Sequence[int]]
    ) -> Tuple[bytearray, "Store"]:
        """Fused select+gather: evaluate ``masker`` and materialize survivors.

        Returns ``(mask, selected)`` where ``mask`` is the 0/1 byte mask in
        global row order and ``selected`` is a store holding exactly the
        surviving rows — ``self`` itself when every row survives, so callers
        can use identity to skip rebuilding.

        The default composes :meth:`eval_mask` and :meth:`select_mask`; a
        sharded store may evaluate the mask on its shard workers instead
        (see :meth:`ShardedStore.select_gather`).
        """
        mask = self.eval_mask(masker)
        if mask.count(1) == len(self):
            return mask, self
        return mask, self.select_mask(mask)

    def shard_views(self) -> Tuple["Store", ...]:
        """The store as a sequence of partition views for order-insensitive sweeps.

        Unsharded backends are their own single view; a sharded store
        returns its shards.  Consumers whose computation does not depend on
        row order (max/min/any reductions, e.g. the RC coverage sweep) can
        iterate these views to read each partition's buffers directly
        instead of going through the order-reconstructing whole-store
        accessors.
        """
        return (self,)

    # -- derivation ---------------------------------------------------------
    def select_mask(self, mask: Sequence[int]) -> "Store":
        """A new store keeping the rows whose mask byte is truthy."""
        raise NotImplementedError

    def take(self, indices: Sequence[int]) -> "Store":
        """A new store with the rows at ``indices`` (in that order)."""
        raise NotImplementedError

    def project(self, positions: Sequence[int]) -> "Store":
        """A new store with only the columns at ``positions`` (in order)."""
        raise NotImplementedError

    def head(self, count: int) -> "Store":
        """A new store with the first ``count`` rows."""
        raise NotImplementedError

    def copy(self) -> "Store":
        """An independent copy (same backend, same contents)."""
        raise NotImplementedError

    # -- construction -------------------------------------------------------
    @classmethod
    def in_memory_class(cls) -> Type["Store"]:
        """The class scratch stores laid out like this backend are built on.

        ``cls`` itself, unless constructing one has effects beyond memory
        (the mmap tier writes and maps a file per store): fetch frames are
        transient per-query data and, like every operator output
        (:func:`preferred_output_class`), never need to outlive the query.
        """
        return cls

    @classmethod
    def from_rows(cls, width: int, rows: Iterable[Sequence[object]]) -> "Store":
        """Build a store of ``width`` columns from row sequences."""
        raise NotImplementedError

    @classmethod
    def from_columns(cls, width: int, columns: Sequence[Sequence[object]]) -> "Store":
        """Build a store from per-attribute value sequences (equal lengths)."""
        raise NotImplementedError


class RowStore(Store):
    """Row-major backend: a list of Python tuples (the legacy layout)."""

    backend = "row"
    __slots__ = ("width", "_rows")

    def __init__(self, width: int, rows: Optional[List[Row]] = None) -> None:
        self.width = width
        # ``rows`` is adopted without copying; constructors below guarantee
        # it is a fresh list of tuples.
        self._rows: List[Row] = rows if rows is not None else []

    def __len__(self) -> int:
        return len(self._rows)

    def append(self, row: Sequence[object]) -> None:
        self._rows.append(tuple(row))
        self.bump_epoch()

    def row(self, index: int) -> Row:
        return self._rows[index]

    def iter_rows(self) -> Iterator[Row]:
        return iter(self._rows)

    def row_list(self) -> List[Row]:
        return self._rows

    def column(self, position: int) -> Sequence[object]:
        return [row[position] for row in self._rows]

    def gather_column(self, position: int, indices: Sequence[int]) -> Sequence[object]:
        # Straight off the row tuples: O(len(indices)), not the default's
        # O(store size) whole-column materialization followed by a gather.
        rows = self._rows
        return [rows[index][position] for index in indices]

    def key_tuples(self, positions: Sequence[int]) -> Iterator[Tuple[object, ...]]:
        # Row-major: one pass over the rows beats zipping per-column scans.
        return (tuple(row[p] for p in positions) for row in self._rows)

    def select_mask(self, mask: Sequence[int]) -> "RowStore":
        return RowStore(self.width, list(compress(self._rows, mask)))

    def take(self, indices: Sequence[int]) -> "RowStore":
        rows = self._rows
        return RowStore(self.width, [rows[i] for i in indices])

    def project(self, positions: Sequence[int]) -> "RowStore":
        return RowStore(
            len(positions), [tuple(row[p] for p in positions) for row in self._rows]
        )

    def head(self, count: int) -> "RowStore":
        return RowStore(self.width, self._rows[:count])

    def copy(self) -> "RowStore":
        return RowStore(self.width, list(self._rows))

    @classmethod
    def from_rows(cls, width: int, rows: Iterable[Sequence[object]]) -> "RowStore":
        # tuple(t) returns t itself for tuples, so adopting pre-tupled rows
        # is free.
        return cls(width, [tuple(row) for row in rows])

    @classmethod
    def from_columns(cls, width: int, columns: Sequence[Sequence[object]]) -> "RowStore":
        return cls(width, list(zip(*columns)) if columns else [])


def _typed_buffer(values: Sequence[object]) -> Tuple[str, Sequence[object]]:
    """Choose the tightest buffer for ``values`` without changing any value.

    Always returns a fresh buffer.  An input that is already a typed
    ``array`` (e.g. a :meth:`Store.gather_column` result) is adopted by a
    C-speed copy without re-scanning its element types.
    """
    if isinstance(values, array):
        if values.typecode == "d":
            return (_KIND_FLOAT, values[:]) if values else (_KIND_EMPTY, [])
        if values.typecode == "q":
            return (_KIND_INT, values[:]) if values else (_KIND_EMPTY, [])
    if isinstance(values, memoryview) and values.format in ("d", "q"):
        # A typed view over an mmap-backed column: copy the raw bytes into a
        # fresh array at C speed, no per-value type scan.
        if len(values):
            fresh = array(values.format)
            fresh.frombytes(values.tobytes())
            return (_KIND_FLOAT if values.format == "d" else _KIND_INT, fresh)
        return (_KIND_EMPTY, [])
    if not values:
        return _KIND_EMPTY, []
    if all(type(v) is float for v in values):
        return _KIND_FLOAT, array("d", values)
    if all(type(v) is int for v in values):
        try:
            return _KIND_INT, array("q", values)
        except OverflowError:
            pass
    return _KIND_OBJECT, list(values)


class ColumnStore(Store):
    """Column-major backend: one contiguous buffer per attribute.

    Buffers specialize adaptively: a column whose values are all ``float``
    lives in an ``array.array('d')``, all machine-word ``int`` in an
    ``array.array('q')``, anything else (or any mix) in a plain list.  A
    buffer demotes to a list the moment an incompatible value is appended —
    existing values are preserved exactly, so reads are always bit-identical
    to what was written.
    """

    backend = "column"
    __slots__ = ("width", "_cols", "_kinds", "_length", "_row_cache")

    def __init__(self, width: int) -> None:
        self.width = width
        self._cols: List[Sequence[object]] = [[] for _ in range(width)]
        self._kinds: List[str] = [_KIND_EMPTY] * width
        self._length = 0
        self._row_cache: Optional[List[Row]] = None

    # -- internal buffer management -----------------------------------------
    def _adopt(self, kinds: List[str], cols: List[Sequence[object]], length: int) -> "ColumnStore":
        """A sibling store adopting pre-built buffers (no copies)."""
        out = ColumnStore.__new__(ColumnStore)
        out.width = len(cols)
        out._cols = cols
        out._kinds = kinds
        out._length = length
        out._row_cache = None
        return out

    def _append_value(self, position: int, value: object) -> None:
        kind = self._kinds[position]
        col = self._cols[position]
        if kind is _KIND_OBJECT:
            col.append(value)  # type: ignore[union-attr]
            return
        if kind is _KIND_EMPTY:
            if type(value) is float:
                self._cols[position] = array("d", (value,))
                self._kinds[position] = _KIND_FLOAT
            elif type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
                self._cols[position] = array("q", (value,))
                self._kinds[position] = _KIND_INT
            else:
                col.append(value)  # type: ignore[union-attr]
                self._kinds[position] = _KIND_OBJECT
            return
        if kind is _KIND_FLOAT and type(value) is float:
            col.append(value)  # type: ignore[union-attr]
            return
        if kind is _KIND_INT and type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
            col.append(value)  # type: ignore[union-attr]
            return
        # Demote the typed buffer to a plain list; values are preserved
        # exactly (array('d') yields floats, array('q') yields ints).
        demoted = list(col)
        demoted.append(value)
        self._cols[position] = demoted
        self._kinds[position] = _KIND_OBJECT

    # -- size / mutation ----------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def append(self, row: Sequence[object]) -> None:
        for position, value in enumerate(row):
            self._append_value(position, value)
        self._length += 1
        self._row_cache = None
        self.bump_epoch()

    # -- row access ---------------------------------------------------------
    def row(self, index: int) -> Row:
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"row index {index} out of range")
        return tuple(col[index] for col in self._cols)

    def iter_rows(self) -> Iterator[Row]:
        if self._row_cache is not None:
            return iter(self._row_cache)
        return zip(*self._cols)

    def row_list(self) -> List[Row]:
        if self._row_cache is None:
            self._row_cache = list(zip(*self._cols))
        return self._row_cache

    # -- column access ------------------------------------------------------
    def column(self, position: int) -> Sequence[object]:
        return self._cols[position]

    def columns(self) -> List[Sequence[object]]:
        return list(self._cols)

    def gather_column(self, position: int, indices: Sequence[int]) -> Sequence[object]:
        # Typed buffers gather into typed buffers: one C-level call per
        # column, no per-value boxing beyond what the array stores.
        kind = self._kinds[position]
        values = _gather(self._cols[position], indices)
        if kind is _KIND_FLOAT:
            return array("d", values)
        if kind is _KIND_INT:
            return array("q", values)
        return list(values)

    # -- derivation ---------------------------------------------------------
    def select_mask(self, mask: Sequence[int]) -> "ColumnStore":
        # Compress the *index space* once (C-speed, no value boxing), then
        # gather per column.  Compressing each buffer directly would box
        # every element of every typed buffer, selected or not.
        return self.take(list(compress(range(self._length), mask)))

    def take(self, indices: Sequence[int]) -> "ColumnStore":
        kinds: List[str] = []
        cols: List[Sequence[object]] = []
        for position, kind in enumerate(self._kinds):
            kept = self.gather_column(position, indices)
            # An emptied column reverts to the undecided state, which
            # requires a plain-list buffer (appends re-specialize it).
            cols.append(kept if kept else [])
            kinds.append(kind if kept else _KIND_EMPTY)
        return self._adopt(kinds, cols, len(indices))

    def project(self, positions: Sequence[int]) -> "ColumnStore":
        kinds = [self._kinds[p] for p in positions]
        cols = [self._cols[p][:] for p in positions]
        return self._adopt(kinds, cols, self._length)

    def head(self, count: int) -> "ColumnStore":
        count = max(0, min(count, self._length))
        kinds = [k if count else _KIND_EMPTY for k in self._kinds]
        # Emptied columns revert to undecided, which needs a list buffer.
        cols = [col[:count] if count else [] for col in self._cols]
        return self._adopt(kinds, cols, count)

    def copy(self) -> "ColumnStore":
        return self._adopt(list(self._kinds), [col[:] for col in self._cols], self._length)

    # -- construction -------------------------------------------------------
    @classmethod
    def from_rows(cls, width: int, rows: Iterable[Sequence[object]]) -> "ColumnStore":
        materialized = [row if isinstance(row, tuple) else tuple(row) for row in rows]
        if not materialized:
            return cls(width)
        raw_columns = list(zip(*materialized))
        store = cls.from_columns(width, raw_columns)
        store._length = len(materialized)  # a zero-width store still has rows
        store._row_cache = materialized
        return store

    @classmethod
    def from_columns(cls, width: int, columns: Sequence[Sequence[object]]) -> "ColumnStore":
        store = cls(width)
        if not columns:
            return store
        kinds: List[str] = []
        cols: List[Sequence[object]] = []
        for column in columns:
            kind, buf = _typed_buffer(
                column
                if isinstance(column, (array, list, memoryview))
                else list(column)
            )
            kinds.append(kind)
            cols.append(buf)
        store._kinds = kinds
        store._cols = cols
        store._length = len(cols[0]) if cols else 0
        return store

    @classmethod
    def adopt_columns(cls, columns: Sequence[Sequence[object]]) -> "ColumnStore":
        """Adopt freshly-built buffers **without copying** (ownership transfer).

        The zero-copy construction path for the gather builders: callers
        hand over buffers they built themselves (typed ``array``\\s or plain
        lists of equal length) and must not touch them afterwards.  Use
        :meth:`from_columns` for caller-owned data.
        """
        store = cls(len(columns))
        if not columns:
            return store
        kinds: List[str] = []
        cols: List[Sequence[object]] = []
        for column in columns:
            if isinstance(column, array) and column.typecode in ("d", "q") and len(column):
                kinds.append(_KIND_FLOAT if column.typecode == "d" else _KIND_INT)
                cols.append(column)
            elif len(column):
                kinds.append(_KIND_OBJECT)
                cols.append(column if isinstance(column, list) else list(column))
            else:
                kinds.append(_KIND_EMPTY)
                cols.append([])
        store._kinds = kinds
        store._cols = cols
        store._length = len(cols[0])
        return store


# ---------------------------------------------------------------------------
# Sharded storage: the partitioned backend
# ---------------------------------------------------------------------------

# The ``shard_executor`` and ``shard_workers`` settings are documented in
# :mod:`repro.config`.
EXECUTOR_MODES = config.EXECUTOR_MODES


# benchmarks/e2e imports these two names; they go when its own PR re-points
# it at ``configure``.
def set_shard_workers(count: Optional[int]) -> Optional[int]:
    return config.configure(shard_workers=count).shard_workers


def set_shard_executor(mode: Optional[str]) -> str:
    return config.configure(shard_executor=mode).shard_executor


class ShardedStore(Store):
    """Partitioned backend: rows cut into contiguous ranges, one per-shard store each.

    Shard for shipping, not for reading.  The shards are what the process
    executor publishes to its workers (:meth:`select_gather`), what
    :meth:`shard_views` hands order-insensitive sweeps, and what ``copy`` and
    the ``mmap-sharded`` save keep.  Every other read — ``row``,
    ``iter_rows``, ``column``, ``key_tuples``, ``gather_column``,
    ``eval_mask`` and the derivations ``select_mask`` / ``take`` /
    ``project`` / ``head`` — goes through one global-order
    :class:`ColumnStore` view (``_flat``), built on the first such read and
    dropped by every mutation, so derived stores are plain column stores.

    There is one layout: shard *k* holds the *k*-th range of rows, so the
    global order is the concatenation of the shard buffers.  Bulk
    construction cuts the rows into ``shard_count`` equal ranges (the last
    one takes what is left, see :meth:`_bounds`); an append goes to the last
    shard.

    Class attributes (fix them via :meth:`configured`):

    * ``shard_count`` — number of shards (at least 1).
    * ``shard_backend`` — backend name for the per-shard stores
      (``"column"`` by default; any registered backend works).

    The bit-identity contract is unchanged: values, types and global row
    order match the row/column backends exactly.
    """

    backend = "sharded"
    shard_count = 4
    shard_backend = ColumnStore.backend

    __slots__ = ("width", "_shards", "_flat", "_publication")

    @classmethod
    def _validate_shard_count(cls) -> None:
        if cls.shard_count < 1:
            raise ValueError(f"shard_count must be at least 1, got {cls.shard_count}")

    def __init__(self, width: int, shards: Optional[List[Store]] = None) -> None:
        # ``shards`` (in global row order) is adopted without copying.
        if shards is None:
            self._validate_shard_count()
            shard_cls = backend_class(self.shard_backend)
            shards = [shard_cls(width) for _ in range(self.shard_count)]
        self.width = width
        self._shards = shards
        self._flat: Optional[ColumnStore] = None
        self._publication = None  # the shards as mapped files (parallel.py)

    @classmethod
    def configured(
        cls,
        shard_count: Optional[int] = None,
        *,
        name: Optional[str] = None,
        shard_backend: Optional[str] = None,
    ) -> Type["ShardedStore"]:
        """A :class:`ShardedStore` subclass with fixed configuration.

        The returned class can be registered as its own backend::

            register_backend("sharded8", ShardedStore.configured(8, name="sharded8"))
            Relation(schema, rows, backend="sharded8")
        """
        count = shard_count if shard_count is not None else cls.shard_count
        attrs = {
            "__slots__": (),
            "backend": name or f"{cls.backend}[{count}]",
            "shard_count": count,
            "shard_backend": shard_backend or cls.shard_backend,
        }
        configured = type(f"ShardedStore_{count}", (cls,), attrs)
        configured._validate_shard_count()  # fail here, not at first use
        return configured

    @classmethod
    def in_memory_class(cls) -> Type[ColumnStore]:
        # Fetch frames are read in the caller and never shipped.
        return ColumnStore

    # -- shard access --------------------------------------------------------
    @property
    def shards(self) -> Tuple[Store, ...]:
        """The per-shard stores, in shard order (treat as read-only)."""
        return tuple(self._shards)

    def shard_views(self) -> Tuple[Store, ...]:
        return self.shards

    # -- internal bookkeeping ------------------------------------------------
    @classmethod
    def _bounds(cls, count: int) -> List[int]:
        """The cut points of ``count`` rows: shard *k* holds ``bounds[k]:bounds[k + 1]``.

        Each range holds ``ceil(count / shard_count)`` rows until the rows
        run out: the last non-empty range takes what is left, and the ranges
        after it are empty.
        """
        # from_rows/from_columns hand __init__ their shards, so the shard
        # count is checked on the bulk path here.
        cls._validate_shard_count()
        chunk = max(1, -(-count // cls.shard_count))  # ceil division
        return [min(shard * chunk, count) for shard in range(cls.shard_count)] + [count]

    def _invalidate(self) -> None:
        self._flat = None
        self.bump_epoch()
        self._retire_publication()

    def _retire_publication(self) -> None:
        """Drop the publication after a mutation.

        Worker processes cache mapped shard files by token, so invalidation
        is by *replacement*: the files the publication wrote are unlinked
        here and the next process-mode query publishes fresh ones under new
        names (stale worker cache entries age out of the workers' LRU).
        """
        publication = self._publication
        if publication is not None:
            self._publication = None
            publication.retire()

    # Pickling a sharded store (e.g. as the shard payload of a *nested*
    # sharded layout crossing into a worker process) must not drag the
    # process-local publication or the flat view along.
    def __getstate__(self):
        return {"width": self.width, "shards": self._shards}

    def __setstate__(self, state) -> None:
        self.__init__(state["width"], state["shards"])

    def _view(self) -> ColumnStore:
        """The rows as one global-order :class:`ColumnStore` (built on first read, cached).

        Each column is the concatenation of its shard buffers (typed at C
        speed when every shard's is), copied into a fresh buffer: the view
        shares nothing with the shards (nor with a shard's file).
        :meth:`_invalidate` drops it.
        """
        flat = self._flat
        if flat is None:
            columns = []
            for position in range(self.width):
                column = _concat_buffers([shard.column(position) for shard in self._shards])
                typecode = _buffer_typecode(column)
                columns.append(array(typecode, column) if typecode is not None else list(column))
            flat = ColumnStore.adopt_columns(columns)
            flat._length = len(self)  # a zero-width store still has rows
            self._flat = flat
        return flat

    # -- size / mutation ----------------------------------------------------
    def __len__(self) -> int:
        return sum(map(len, self._shards))

    def append(self, row: Sequence[object]) -> None:
        self._shards[-1].append(tuple(row))
        self._invalidate()

    # -- reads: the flat view -------------------------------------------------
    def row(self, index: int) -> Row:
        return self._view().row(index)

    def iter_rows(self) -> Iterator[Row]:
        return self._view().iter_rows()

    def row_list(self) -> List[Row]:
        return self._view().row_list()

    def column(self, position: int) -> Sequence[object]:
        return self._view().column(position)

    def columns(self) -> List[Sequence[object]]:
        return self._view().columns()

    def key_tuples(self, positions: Sequence[int]) -> Iterator[Tuple[object, ...]]:
        return self._view().key_tuples(positions)

    def gather_column(self, position: int, indices: Sequence[int]) -> Sequence[object]:
        return self._view().gather_column(position, indices)

    def eval_mask(self, masker: Callable[[Store], Sequence[int]]) -> bytearray:
        return self._view().eval_mask(masker)

    def select_mask(self, mask: Sequence[int]) -> ColumnStore:
        return self._view().select_mask(mask)

    def take(self, indices: Sequence[int]) -> ColumnStore:
        return self._view().take(indices)

    def project(self, positions: Sequence[int]) -> ColumnStore:
        return self._view().project(positions)

    def head(self, count: int) -> ColumnStore:
        return self._view().head(count)

    # -- the one shipped operation --------------------------------------------
    def select_gather(self, masker: Callable[[Store], Sequence[int]]) -> Tuple[bytearray, Store]:
        """Fused select+gather; under the process executor the mask is shipped.

        Each shard's worker evaluates ``masker`` over its warm mapped shard
        file and sends back only the shard's mask bytes
        (:func:`repro.relational.parallel.process_select_gather`); the
        parent joins them, in shard order, into the global-order mask.  The
        serial executor and every fallback (small or unpublishable stores,
        an unpicklable masker, an open breaker, a dispatch that gave up)
        evaluate the mask over the flat view in the caller.  Either way the
        survivors are selected from the flat view.
        """
        mask = None
        if config.current().shard_executor == "process":
            from . import parallel

            parts = parallel.process_select_gather(self, masker)
            if parts is not None:
                mask = bytearray(b"".join(parts))
        flat = self._view()
        if mask is None:
            mask = flat.eval_mask(masker)
        if mask.count(1) == len(flat):
            return mask, self
        return mask, flat.select_mask(mask)

    def copy(self) -> "ShardedStore":
        return type(self)(self.width, [shard.copy() for shard in self._shards])

    # -- construction -------------------------------------------------------
    @classmethod
    def from_rows(cls, width: int, rows: Iterable[Sequence[object]]) -> "ShardedStore":
        materialized = [row if isinstance(row, tuple) else tuple(row) for row in rows]
        bounds = cls._bounds(len(materialized))
        shard_cls = backend_class(cls.shard_backend)
        return cls(
            width,
            [shard_cls.from_rows(width, materialized[lo:hi]) for lo, hi in zip(bounds, bounds[1:])],
        )

    @classmethod
    def from_columns(cls, width: int, columns: Sequence[Sequence[object]]) -> "ShardedStore":
        bounds = cls._bounds(len(columns[0]) if columns else 0)
        shard_cls = backend_class(cls.shard_backend)
        return cls(
            width,
            [
                shard_cls.from_columns(width, [column[lo:hi] for column in columns])
                for lo, hi in zip(bounds, bounds[1:])
            ],
        )


# ---------------------------------------------------------------------------
# Backend registry and process-wide default
# ---------------------------------------------------------------------------

_BACKENDS: Dict[str, Type[Store]] = {
    RowStore.backend: RowStore,
    ColumnStore.backend: ColumnStore,
    ShardedStore.backend: ShardedStore,
}

for _name in _BACKENDS:
    config.declare_backend(_name)


def register_backend(name: str, store_class: Type[Store]) -> None:
    """Register a third-party :class:`Store` subclass under ``name``."""
    if not name:
        raise ValueError("backend name must be non-empty")
    _BACKENDS[name] = store_class
    config.declare_backend(name)


def list_backends() -> Tuple[str, ...]:
    """Names of all registered backends (in registration order).

    The cross-backend conformance matrix in ``tests/test_store.py``
    parametrizes over this list, so a backend registered at import time is
    automatically held to the bit-identity contract.
    """
    return tuple(_BACKENDS)


def backend_class(name: str) -> Type[Store]:
    """The :class:`Store` subclass registered under ``name``."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown storage backend {name!r}; available: {sorted(_BACKENDS)}"
        ) from None


def make_store(width: int, backend: Optional[str] = None) -> Store:
    """An empty store of ``width`` columns using ``backend`` (or the default)."""
    cls = backend_class(backend if backend is not None else config.current().default_backend)
    return cls(width)


# ---------------------------------------------------------------------------
# Gather-based output builders (columnar operator outputs)
# ---------------------------------------------------------------------------

# One output column: (source store, source column position, row indices).
GatherSource = Tuple[Store, int, Sequence[int]]


def preferred_output_class(*stores: Store) -> Type[Store]:
    """The store class operator outputs should be built on.

    Row-backed inputs keep producing row stores (the legacy layout, cheapest
    when rows will be materialized anyway); as soon as any input is
    column-backed — including a sharded input, which reads through its flat
    column view — the output is a :class:`ColumnStore`, so columnar
    pipelines stay columnar end to end.
    """
    if all(isinstance(store, RowStore) for store in stores):
        return RowStore
    return ColumnStore


def gather_columns(
    sources: Sequence[GatherSource], backend_cls: Optional[Type[Store]] = None
) -> Store:
    """Build one store column-by-column from per-column gathers.

    Each element of ``sources`` describes one output column as a gather of
    ``store``'s column ``position`` at ``indices`` — the column-builder the
    index-pair joins materialize through: no intermediate row tuples exist
    unless the chosen output backend itself is row-major.
    """
    if backend_cls is None:
        backend_cls = preferred_output_class(*{source[0] for source in sources})
    columns = [
        store.gather_column(position, indices) for store, position, indices in sources
    ]
    if issubclass(backend_cls, ColumnStore):
        # Gathered buffers are fresh by contract; adopt them without a copy.
        return backend_cls.adopt_columns(columns)
    return backend_cls.from_columns(len(sources), columns)


def gather_pairs(
    left: Store,
    left_indices: Sequence[int],
    right: Store,
    right_indices: Sequence[int],
    backend_cls: Optional[Type[Store]] = None,
) -> Store:
    """Join-output builder: ``left``'s columns gathered at ``left_indices``
    beside ``right``'s columns gathered at ``right_indices``.

    ``(left_indices[k], right_indices[k])`` is the k-th matched index pair;
    the output row k is their concatenation, but it is assembled one column
    at a time.  Row-backed inputs short-circuit to direct tuple
    concatenation (cheaper than transposing a row store twice).
    """
    if backend_cls is None:
        backend_cls = preferred_output_class(left, right)
    if backend_cls is RowStore:
        left_rows, right_rows = left.row_list(), right.row_list()
        return RowStore(
            left.width + right.width,
            [left_rows[i] + right_rows[j] for i, j in zip(left_indices, right_indices)],
        )
    sources: List[GatherSource] = [
        (left, position, left_indices) for position in range(left.width)
    ]
    sources += [(right, position, right_indices) for position in range(right.width)]
    return gather_columns(sources, backend_cls)


def vstack_gather(
    parts: Sequence[Tuple[Store, Sequence[int]]],
    backend_cls: Optional[Type[Store]] = None,
) -> Store:
    """Vertical stack of per-part gathers: the rows of each ``(store,
    indices)`` gather, in part order (union-style outputs).

    Column buffers are gathered per part and concatenated — typed buffers
    concatenate at C speed — so no row tuples are materialized for
    column-backed inputs.
    """
    if backend_cls is None:
        backend_cls = preferred_output_class(*(store for store, _ in parts))
    if not parts:
        raise ValueError("vstack_gather needs at least one (store, indices) part")
    width = parts[0][0].width
    if backend_cls is RowStore:
        # Row-major output: gather whole row tuples directly (cheaper than
        # transposing through per-column gathers and back).
        out_rows: List[Row] = []
        for store, indices in parts:
            rows = store.row_list()
            out_rows.extend(rows[index] for index in indices)
        return RowStore(width, out_rows)
    columns: List[Sequence[object]] = []
    for position in range(width):
        gathered = [store.gather_column(position, indices) for store, indices in parts]
        columns.append(_concat_buffers(gathered))
    if issubclass(backend_cls, ColumnStore):
        return backend_cls.adopt_columns(columns)  # fresh buffers by contract
    return backend_cls.from_columns(width, columns)


def _concat_buffers(buffers: Sequence[Sequence[object]]) -> Sequence[object]:
    """Concatenate column buffers, staying typed when every part is."""
    if len(buffers) == 1:
        return buffers[0]
    typecode = _uniform_typecode(buffers)
    if typecode is not None:
        merged = array(typecode)
        for buf in buffers:
            if len(buf):  # empty parts may be plain lists; skip them
                merged.frombytes(buf.tobytes())
        return merged
    out: List[object] = []
    for buf in buffers:
        out.extend(buf)
    return out


# ---------------------------------------------------------------------------
# Mask helpers (shared by the vectorized predicate API)
# ---------------------------------------------------------------------------

def all_ones(count: int) -> bytearray:
    """A mask selecting every row."""
    return bytearray(b"\x01" * count)


def and_masks(left: Sequence[int], right: Sequence[int]) -> bytearray:
    """Elementwise AND of two 0/1 byte masks (via one big-int AND, C speed)."""
    n = len(left)
    merged = int.from_bytes(bytes(left), "little") & int.from_bytes(bytes(right), "little")
    return bytearray(merged.to_bytes(n, "little")) if n else bytearray()
