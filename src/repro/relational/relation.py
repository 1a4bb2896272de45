"""In-memory relation instances.

A :class:`Relation` is a bag of tuples positionally aligned with a
:class:`~repro.relational.schema.RelationSchema`.  Since the storage
redesign it is a facade over a pluggable :class:`~repro.relational.store.Store`
backend — row-major tuples (``backend="row"``), per-attribute column
buffers (``backend="column"``), or horizontally partitioned per-shard
column stores (``backend="sharded"``); see :mod:`repro.relational.store`
for the backend contract and how to pick one.  It supports the handful of operations
the naive evaluator and the BEAS executor need: projection, selection (by
callable or by a vectorized predicate mask), grouping, and distinct.

Relations track nothing about access costs — that is the job of
:class:`~repro.relational.database.Database`, which wraps tuple retrieval in
an access-accounted API.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .. import config
from ..errors import SchemaError
from .schema import RelationSchema
from .store import Store, make_store

Row = Tuple[object, ...]


def value_sort_key(value: object) -> Tuple[int, object]:
    """Type-aware sort key consistent with ``==`` across int/float.

    ``repr``-based ordering treated ``1`` and ``1.0`` as different values even
    though they compare equal (and evaluator set semantics deduplicates them),
    breaking :meth:`Relation.__eq__` and :meth:`Relation.sorted` on mixed
    int/float columns.  Here ``None`` sorts first, then numbers by value
    (``1`` and ``1.0`` — and ``True`` — compare equal, as under ``==``), then
    everything else by ``repr``; NaN falls back to the ``repr`` tier so the
    ordering stays total.  Also used by the KD-tree to order split columns.
    """
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)) and value == value:
        return (1, value)
    return (2, repr(value))


def row_sort_key(row: Row) -> Tuple[Tuple[int, object], ...]:
    """Per-value :func:`value_sort_key` tuple for sorting whole rows."""
    return tuple(value_sort_key(value) for value in row)


class Relation:
    """A named bag of tuples under a fixed schema, backed by a :class:`Store`.

    Args:
        schema: the relation's schema (fixes arity and attribute order).
        rows: optional initial tuples.
        backend: storage backend name (``"row"``, ``"column"``, or any
            registered third-party backend); ``None`` uses the process-wide
            default (the ``default_backend`` setting, :mod:`repro.config`).
        store: pre-built store to adopt instead of creating one (internal
            fast path used by derived relations; the store must not be
            shared with another mutating owner).
    """

    def __init__(
        self,
        schema: RelationSchema,
        rows: Optional[Iterable[Row]] = None,
        backend: Optional[str] = None,
        store: Optional[Store] = None,
    ) -> None:
        self.schema = schema
        width = len(schema)
        self._row_set: Optional[set] = None  # built lazily, kept current by append
        self._rows_view: Optional[Tuple[Row, ...]] = None  # cached immutable view
        if store is not None:
            if store.width != width:
                raise SchemaError(
                    f"store of width {store.width} does not match schema "
                    f"{schema.name}({len(schema)} attributes)"
                )
            self._store = store
            if rows is not None:
                self.extend(rows)
            return
        if rows is None:
            self._store = make_store(width, backend)
            return
        # Bulk path: validate arity up front, then let the backend build its
        # buffers in one batch (much cheaper than per-row appends for the
        # columnar backend).
        materialized = [tuple(row) for row in rows]
        for row in materialized:
            if len(row) != width:
                raise SchemaError(
                    f"tuple of arity {len(row)} does not match schema "
                    f"{self.schema.name}({len(self.schema)} attributes)"
                )
        from .store import backend_class

        name = backend if backend is not None else config.current().default_backend
        self._store = backend_class(name).from_rows(width, materialized)

    # -- construction -----------------------------------------------------
    @classmethod
    def from_dicts(
        cls,
        schema: RelationSchema,
        records: Iterable[dict],
        backend: Optional[str] = None,
    ) -> "Relation":
        """Build a relation from dict records keyed by attribute name."""
        names = schema.attribute_names
        rows = [tuple(rec[name] for name in names) for rec in records]
        return cls(schema, rows, backend=backend)

    @classmethod
    def from_columns(
        cls,
        schema: RelationSchema,
        columns: Union[Mapping[str, Sequence[object]], Sequence[Sequence[object]]],
        backend: Optional[str] = "column",
    ) -> "Relation":
        """Build a relation from per-attribute value sequences.

        ``columns`` is either a mapping from attribute name to values or a
        sequence of value sequences in schema order; all columns must have
        the same length.  Defaults to the columnar backend (the layout the
        input is already in); pass ``backend="row"`` (or ``None`` for the
        process default) to transpose into another backend.
        """
        if isinstance(columns, Mapping):
            missing = [name for name in schema.attribute_names if name not in columns]
            if missing:
                raise SchemaError(
                    f"from_columns for {schema.name!r} is missing columns {missing}"
                )
            ordered: List[Sequence[object]] = [
                list(columns[name]) for name in schema.attribute_names
            ]
        else:
            ordered = [list(column) for column in columns]
            if len(ordered) != len(schema):
                raise SchemaError(
                    f"{len(ordered)} columns do not match schema "
                    f"{schema.name}({len(schema)} attributes)"
                )
        lengths = {len(column) for column in ordered}
        if len(lengths) > 1:
            raise SchemaError(f"columns have unequal lengths: {sorted(lengths)}")
        from .store import backend_class

        name = backend if backend is not None else config.current().default_backend
        store = backend_class(name).from_columns(len(schema), ordered)
        return cls(schema, store=store)

    def append(self, row: Sequence[object]) -> None:
        """Add one tuple (validated for arity)."""
        if len(row) != len(self.schema):
            raise SchemaError(
                f"tuple of arity {len(row)} does not match schema "
                f"{self.schema.name}({len(self.schema)} attributes)"
            )
        added = tuple(row)
        self._store.append(added)
        self._rows_view = None
        if self._row_set is not None:
            self._row_set.add(added)

    def extend(self, rows: Iterable[Sequence[object]]) -> None:
        """Add many tuples."""
        for row in rows:
            self.append(row)

    # -- basic accessors ---------------------------------------------------
    @property
    def store(self) -> Store:
        """The storage backend holding this relation's tuples (read-only)."""
        return self._store

    @property
    def backend(self) -> str:
        """Name of the storage backend (``"row"``, ``"column"``, ...)."""
        return self._store.backend

    @property
    def rows(self) -> Tuple[Row, ...]:
        """An immutable view of the tuples (cached until the next append)."""
        if self._rows_view is None:
            self._rows_view = tuple(self._store.row_list())
        return self._rows_view

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Row]:
        return self._store.iter_rows()

    def __contains__(self, row: Row) -> bool:
        if self._row_set is None:
            self._row_set = set(self._store.iter_rows())
        return tuple(row) in self._row_set

    def is_empty(self) -> bool:
        return len(self._store) == 0

    def column(self, attribute_name: str) -> List[object]:
        """All values of one attribute, in row order (a fresh list)."""
        idx = self.schema.position(attribute_name)
        return list(self._store.column(idx))

    def record(self, row: Row) -> dict:
        """A dict view of one tuple keyed by attribute name."""
        return dict(zip(self.schema.attribute_names, row))

    def records(self) -> List[dict]:
        """Dict views of all tuples."""
        names = self.schema.attribute_names
        return [dict(zip(names, row)) for row in self._store.iter_rows()]

    # -- relational helpers -------------------------------------------------
    @staticmethod
    def _first_seen_mask(store: Store) -> bytearray:
        """Byte mask selecting the first occurrence of every distinct row."""
        seen: set = set()
        mask = bytearray(len(store))
        for index, row in enumerate(store.iter_rows()):
            if row not in seen:
                seen.add(row)
                mask[index] = 1
        return mask

    def project(self, attribute_names: Sequence[str], distinct: bool = True) -> "Relation":
        """Project onto ``attribute_names``, optionally deduplicating."""
        positions = self.schema.positions(attribute_names)
        out_schema = self.schema.project(attribute_names)
        projected = self._store.project(positions)
        if distinct:
            projected = projected.select_mask(self._first_seen_mask(projected))
        return Relation(out_schema, store=projected)

    def select(self, predicate) -> "Relation":
        """Keep only tuples satisfying ``predicate``.

        ``predicate`` is either a per-row callable ``Row -> bool`` (the
        legacy contract) or a vectorized predicate — any object with a
        ``mask(store, schema)`` method, such as
        :class:`repro.algebra.predicates.Comparison` /
        :class:`~repro.algebra.predicates.Conjunction` — which is evaluated
        column-at-a-time over the storage backend and, on a sharded backend,
        fans out per shard through
        :meth:`~repro.relational.store.Store.eval_mask`.  Per-row callables
        deliberately stay on a sequential scan in global row order on every
        backend: the legacy contract allows stateful predicates (budget
        counters, first-seen dedup), which must observe the same rows in the
        same order — and from one thread — regardless of layout.
        """
        mask_method = getattr(predicate, "mask", None)
        if callable(mask_method):
            mask = mask_method(self._store, self.schema)
        else:
            mask = bytearray(
                1 if predicate(row) else 0 for row in self._store.iter_rows()
            )
        return Relation(self.schema, store=self._store.select_mask(mask))

    def distinct(self) -> "Relation":
        """Remove duplicate tuples (preserving first-seen order)."""
        mask = self._first_seen_mask(self._store)
        return Relation(self.schema, store=self._store.select_mask(mask))

    def rename(self, new_name: str) -> "Relation":
        """Same tuples under a renamed schema."""
        return Relation(self.schema.rename(new_name), store=self._store.copy())

    def group_by(self, attribute_names: Sequence[str]) -> Dict[Row, List[Row]]:
        """Group full tuples by their values on ``attribute_names``.

        Group keys are extracted column-wise through
        :meth:`~repro.relational.store.Store.key_tuples`; a sharded backend
        extracts them per shard and interleaves back into row order, so the
        grouping (keys, members and their order) is backend-independent.
        """
        positions = self.schema.positions(attribute_names)
        groups: Dict[Row, List[Row]] = {}
        for key, row in zip(self._store.key_tuples(positions), self._store.iter_rows()):
            groups.setdefault(key, []).append(row)
        return groups

    def to_set(self) -> frozenset:
        """Frozenset of the tuples (set semantics view)."""
        return frozenset(self._store.iter_rows())

    def sorted(self) -> "Relation":
        """Rows sorted by a type-aware total order — for stable output.

        The sort key groups values that compare equal under ``==`` (so ``1``
        and ``1.0`` sort together) while keeping heterogeneous columns
        orderable; see :func:`value_sort_key`.
        """
        ordered = sorted(self._store.iter_rows(), key=row_sort_key)
        store = type(self._store).from_rows(len(self.schema), ordered)
        return Relation(self.schema, store=store)

    def with_backend(self, backend: str) -> "Relation":
        """A copy of this relation stored under another backend."""
        from .store import backend_class

        store = backend_class(backend).from_rows(
            len(self.schema), self._store.iter_rows()
        )
        return Relation(self.schema, store=store)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Relation({self.schema.name}, {len(self._store)} rows, "
            f"backend={self._store.backend})"
        )

    # -- equality (by attribute names + multiset of rows) -------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema.attribute_names != other.schema.attribute_names:
            return False
        if len(self) != len(other):
            return False
        # Compare the sorted *keys* rather than the raw rows: the type-aware
        # key equates ==-equal values across int/float (e.g. ``(1,)`` and
        # ``(1.0,)``, which the old repr-based comparison wrongly treated as
        # different) while keeping NaN comparable by its repr (so two
        # NaN-containing relations still compare equal, as before).
        mine = sorted(map(row_sort_key, self._store.iter_rows()))
        theirs = sorted(map(row_sort_key, other._store.iter_rows()))
        return mine == theirs

    def __hash__(self) -> int:  # pragma: no cover - relations are mutable
        raise TypeError("Relation is not hashable")
