"""Physical indexes realising access constraints and access templates.

Two index kinds (Section 4.1, "Implementation"):

* :class:`ConstraintIndex` — for an access constraint ``R(X → Y, N, 0̄)``: a
  hash index from ``X``-values to the exact distinct ``Y``-values.
* :class:`TemplateIndex` — for a *family* of levelled access templates
  ``R(X → Y, 2^k, d̄_k)``, ``k = 0..M``: per ``X``-value a K-D tree over the
  associated ``Y``-values; fetching at level ``k`` returns the (at most
  ``2^k``) representatives of the tree's level-``k`` frontier, together with
  the number of original tuples each representative stands for (needed by
  ``sum``/``count``/``avg``, Section 7).  The per-level resolutions ``d̄_k``
  are computed at build time as the worst representative-to-descendant
  distance across all groups.

Both indexes report entry counts so Exp-4 (Fig 6(k)) can measure index size.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..relational.database import AccessMeter
from ..relational.kdtree import KDTree
from ..relational.relation import Relation, Row
from .template import TemplateSpec

FetchedRow = Tuple[Row, float]  # (X ∪ Y values, represented-tuple count)
# One value list per X ∪ Y attribute, plus the represented-tuple counts.
FetchedColumns = Tuple[List[Sequence[object]], List[float]]



class ConstraintIndex:
    """Hash index for an access constraint ``R(X → Y, N, 0̄)``."""

    def __init__(self, relation: Relation, x: Sequence[str], y: Sequence[str]) -> None:
        self.relation_name = relation.schema.name
        self.x = tuple(x)
        self.y = tuple(y)
        schema = relation.schema
        x_positions = schema.positions(self.x)
        y_positions = schema.positions(self.y)
        # Each group stores its distinct Y-values together with the number of
        # base tuples carrying that value (Section 7's duplicate counts, used
        # by sum/count/avg evaluation over fetched data).
        self._groups: Dict[Tuple[object, ...], Dict[Tuple[object, ...], int]] = {}
        for row in relation:
            key = tuple(row[p] for p in x_positions)
            value = tuple(row[p] for p in y_positions)
            bucket = self._groups.setdefault(key, {})
            bucket[value] = bucket.get(value, 0) + 1
        self.n = max((len(v) for v in self._groups.values()), default=1)

    def spec(self, declared_n: Optional[int] = None) -> TemplateSpec:
        """The logical template realised by this index (resolution 0)."""
        return TemplateSpec(
            relation=self.relation_name,
            x=self.x,
            y=self.y,
            n=declared_n if declared_n is not None else max(1, self.n),
            resolution={a: 0.0 for a in self.y},
        )

    def fetch(self, x_value: Sequence[object], meter: Optional[AccessMeter] = None) -> List[FetchedRow]:
        """All exact ``Y``-values for ``x_value`` with their duplicate counts."""
        values = self._groups.get(tuple(x_value), {})
        if meter is not None:
            meter.charge(len(values), self.relation_name)
        key = tuple(x_value)
        return [(key + value, float(count)) for value, count in values.items()]

    def fetch_columns(
        self, x_values: Iterable[Sequence[object]], meter: Optional[AccessMeter] = None
    ) -> FetchedColumns:
        """:meth:`fetch` for a batch of ``X``-values, emitted column-wise.

        The rows :meth:`fetch` would return for each ``X``-value in turn,
        as one value list per ``X ∪ Y`` attribute plus the counts — what a
        fetch step's frame is built from, without a tuple per row.  The
        meter is charged per ``X``-value exactly as by :meth:`fetch`, so a
        budget overrun raises at the same point.
        """
        keys: List[Tuple[object, ...]] = []
        y_rows: List[Tuple[object, ...]] = []
        weights: List[float] = []
        for x_value in x_values:
            key = tuple(x_value)
            values = self._groups.get(key, {})
            if meter is not None:
                meter.charge(len(values), self.relation_name)
            keys.extend(repeat(key, len(values)))
            y_rows.extend(values)
            weights.extend(map(float, values.values()))
        if not y_rows:
            return [[] for _ in self.x + self.y], weights
        # Groups are small (at most N values, often one), so the stored key
        # and value tuples are lined up first and transposed once.
        return list(zip(*keys)) + list(zip(*y_rows)), weights

    def keys(self) -> List[Tuple[object, ...]]:
        return list(self._groups)

    @property
    def entry_count(self) -> int:
        """Number of (X, Y) entries stored."""
        return sum(len(v) for v in self._groups.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ConstraintIndex({self.relation_name}: {self.x} -> {self.y}, N={self.n})"


class TemplateIndex:
    """Levelled K-D-tree index for a family of access templates.

    For ``X = ∅`` there is a single tree over the whole relation (the
    canonical ``A_t`` case); otherwise one tree per distinct ``X``-value.
    """

    def __init__(
        self,
        relation: Relation,
        x: Sequence[str],
        y: Sequence[str],
        max_level: Optional[int] = None,
    ) -> None:
        self.relation_name = relation.schema.name
        self.x = tuple(x)
        self.y = tuple(y)
        schema = relation.schema
        self._y_schema = schema.project(self.y, name=f"{schema.name}_y")
        x_positions = schema.positions(self.x)
        y_positions = schema.positions(self.y)

        groups: Dict[Tuple[object, ...], List[Tuple[object, ...]]] = {}
        for row in relation:
            key = tuple(row[p] for p in x_positions)
            groups.setdefault(key, []).append(tuple(row[p] for p in y_positions))

        self._trees: Dict[Tuple[object, ...], KDTree] = {}
        max_group = 1
        for key, rows in groups.items():
            y_relation = Relation(self._y_schema, rows)
            self._trees[key] = KDTree(y_relation)
            max_group = max(max_group, len(set(rows)))

        # The deepest level worth materialising: beyond it every frontier node
        # is a single tuple and the resolution is 0.
        natural_max = max(
            (tree.exact_level() for tree in self._trees.values()), default=0
        )
        self.max_level = natural_max if max_level is None else min(max_level, natural_max)
        self._resolutions: Dict[int, Dict[str, float]] = {}
        self._precompute_resolutions()

    # -- resolutions -------------------------------------------------------------
    def _precompute_resolutions(self) -> None:
        for level in range(self.max_level + 1):
            worst: Dict[str, float] = {a: 0.0 for a in self.y}
            for tree in self._trees.values():
                res = tree.resolution(level)
                for attribute, value in res.items():
                    if value > worst[attribute]:
                        worst[attribute] = value
            self._resolutions[level] = worst

    def resolution(self, level: int) -> Dict[str, float]:
        """``d̄_k`` for level ``k`` (clamped to the materialised range)."""
        level = min(max(level, 0), self.max_level)
        return dict(self._resolutions[level])

    def resolution_of(self, level: int, attribute: str) -> float:
        """One component of ``d̄_k`` (0 for attributes outside ``Y``), without copying the level's dict."""
        level = min(max(level, 0), self.max_level)
        return self._resolutions[level].get(attribute, 0.0)

    def level_spec(self, level: int) -> TemplateSpec:
        """The logical template ``R(X → Y, 2^level, d̄_level)``."""
        level = min(max(level, 0), self.max_level)
        return TemplateSpec(
            relation=self.relation_name,
            x=self.x,
            y=self.y,
            n=2**level,
            resolution=self.resolution(level),
        )

    # -- fetching ---------------------------------------------------------------
    def fetch(
        self,
        x_value: Sequence[object],
        level: int,
        meter: Optional[AccessMeter] = None,
    ) -> List[FetchedRow]:
        """Representatives (plus counts) for ``x_value`` at ``level``.

        The meter is charged one access per returned representative — the
        index is itself data derived from ``D`` and reading it consumes the
        resource budget exactly like reading base tuples (Section 8, Exp-4:
        "BEAS accesses at most α|D| tuples no matter whether the tuples are
        from the indices ... or the original D").
        """
        level = min(max(level, 0), self.max_level)
        tree = self._trees.get(tuple(x_value))
        if tree is None:
            return []
        reps = tree.representatives(level)
        if meter is not None:
            meter.charge(len(reps), self.relation_name)
        key = tuple(x_value)
        return [(key + rep, float(count)) for rep, count in reps]

    def fetch_columns(
        self,
        x_values: Iterable[Sequence[object]],
        level: int,
        meter: Optional[AccessMeter] = None,
    ) -> FetchedColumns:
        """:meth:`fetch` for a batch of ``X``-values, emitted column-wise
        (see :meth:`ConstraintIndex.fetch_columns`; same metering)."""
        level = min(max(level, 0), self.max_level)
        x_columns: List[List[object]] = [[] for _ in self.x]
        y_columns: List[List[object]] = [[] for _ in self.y]
        weights: List[float] = []
        for x_value in x_values:
            key = tuple(x_value)
            tree = self._trees.get(key)
            if tree is None:
                continue
            frontier, counts = tree.level_columns(level)
            if meter is not None:
                meter.charge(len(counts), self.relation_name)
            for column, value in zip(x_columns, key):
                column.extend(repeat(value, len(counts)))
            for column, values in zip(y_columns, frontier):
                column.extend(values)
            weights.extend(counts)
        return x_columns + y_columns, weights

    def keys(self) -> List[Tuple[object, ...]]:
        """All distinct ``X``-values with a tree (``[()]`` when ``X = ∅``)."""
        return list(self._trees)

    # -- size accounting ----------------------------------------------------------
    @property
    def entry_count(self) -> int:
        """Total number of stored representatives (tree nodes) across groups."""
        return sum(tree.node_count() for tree in self._trees.values())

    def levels(self) -> List[int]:
        return list(range(self.max_level + 1))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"TemplateIndex({self.relation_name}: {self.x or '∅'} -> {self.y}, "
            f"levels 0..{self.max_level}, {len(self._trees)} groups)"
        )
