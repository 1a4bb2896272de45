"""Shared distance kernels for the library's distance-minimising hot paths.

Four consumers used to spend O(n·m) nested loops comparing every pair of
rows under per-attribute distance functions:

* the **relaxed join** in :class:`repro.algebra.evaluator.Evaluator`
  (join keys loosened to "within slack" by access-template resolutions),
* the **BEAS set-difference guard** in
  :class:`repro.core.executor.BeasEvaluator` (remove every left row within
  the fetch resolution of some right row),
* the **RC accuracy measure** in :mod:`repro.accuracy.rc` (coverage and
  relevance are nearest-neighbour distances between answer sets), and
* **BEAS_RA's η′ refinement** in
  :func:`repro.core.beas_ra.refine_bound_with_induced` (``d′``, the distance
  from every answer of the maximal induced query to its nearest answer —
  the same sweep as RC coverage, :func:`max_min_distance`).

This module centralises those scans behind two kernels:

* :class:`RadiusMatcher` — "which indexed rows lie within per-key distance
  thresholds of a query key vector?", and
* :class:`NearestNeighbors` — "what is the minimum tuple distance
  ``min_row max_A dis_A`` from a query row to an indexed row set?".

Each kernel answers from three strategies, chosen per key from its distance
function and threshold:

* **hash buckets** for keys whose threshold admits only canonically-equal
  values (zero slack on numeric keys, any finite slack on trivial-distance
  keys, sub-unit slack on categorical keys),
* **one sorted band plus per-candidate checks** for the numeric keys that
  carry slack: a bucket's rows, grouped by their slack-key values, sorted by
  the *first* slack key; a probe walks outward from a binary search while
  that key alone can still qualify, and checks every other key per
  candidate, and
* a graceful **nested-loop fallback** for everything else (categorical or
  custom distances with positive slack, unhashable values, NaN).

Both kernels are internally **columnar**: they keep per-key column buffers
rather than row tuples, and their ``from_store`` constructors borrow the
buffers of a column-backed :class:`~repro.relational.store.Store` directly
(typed ``array`` buffers additionally let canonicalization skip per-value
calls — see :func:`_canonical_column`).  Row-sequence construction is still
supported and behaves identically.  A sharded store is indexed through its
key columns like any store.

**Exact-equivalence contract.**  Every kernel returns *identical* results to
the naive nested-loop reference implementations that this module also
exports (:func:`naive_radius_matches`, :func:`naive_min_distance`):
:meth:`RadiusMatcher.matches` returns the same index set (sorted ascending,
matching nested-loop emission order) and :meth:`NearestNeighbors.min_distance`
the same float.  The kernels are drop-in algorithmic replacements — callers
observe no behavioural difference, only speed.  The contract assumes numeric
distance functions are monotone in ``|x - y|`` and zero exactly on
numerically-equal values (true for the built-in absolute and scaled
distances, and required of any custom ``DistanceFunction`` marked
``numeric=True``); it is enforced by the differential tests in
``tests/test_kernels.py`` on randomised inputs including ties exactly at the
threshold boundary.

One deliberate deviation from a legacy path: a match always requires a
*proven* ``dis(x, y) <= threshold``, so NaN distances (from NaN data values
under a numeric distance) never match.  The pre-kernel relaxed join tested
``not (dis > slack)`` instead, under which a NaN join key matched — and
therefore cross-joined with — every row of the other side; that was noise,
not signal, and the BEAS difference guard and RC measure already used the
``<=`` convention this module standardises on.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from math import isfinite
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .distance import DistanceFunction, INFINITY, is_real_number
from .relation import Row
from .schema import Attribute
from .store import Store

# Key kinds (see classify_key).
KIND_DROP = "drop"  # threshold admits every pair: key can be ignored
KIND_EXACT = "exact"  # threshold admits only canonically-equal values: hash bucket
KIND_BAND = "band"  # positive finite slack on a numeric key: sorted band
KIND_CHECK = "check"  # no structure applies: per-candidate distance check


def classify_key(distance: DistanceFunction, threshold: float) -> str:
    """How a ``dis(x, y) <= threshold`` key constraint can be accelerated.

    The classification is exact, never approximate: a key is only classified
    ``drop``/``exact`` when the threshold provably admits every pair /
    exactly the canonically-equal pairs under that distance function.
    """
    if threshold < 0:
        # A negative threshold admits nothing (distances are >= 0); keep the
        # per-pair check so behaviour matches the nested loop exactly.
        return KIND_CHECK
    name = distance.name
    if threshold == INFINITY:
        # d <= +inf holds for every value pair of the bounded/trivial
        # built-ins.  Numeric distances can yield NaN on NaN inputs (where
        # d <= inf is *false*), so they keep the per-pair check.
        if name in ("trivial", "categorical", "string-prefix"):
            return KIND_DROP
        return KIND_CHECK
    if name == "trivial":
        return KIND_EXACT  # d is 0 or +inf: any finite threshold means equality
    if name == "categorical":
        return KIND_EXACT if threshold < 1.0 else KIND_DROP  # d is 0 or 1
    if name == "string-prefix" and threshold < 1.0:
        return KIND_EXACT  # d is 0 or an integer >= 1
    if distance.numeric:
        return KIND_EXACT if threshold == 0.0 else KIND_BAND
    return KIND_CHECK


def _canonical(distance: DistanceFunction, value: object) -> object:
    """A hashable key with ``canon(x) == canon(y)  <=>  dis(x, y) == 0``.

    String-prefix distance is zero exactly on equal ``str()`` forms; numeric
    distances are zero exactly on equal ``float()`` coercions (so ``"5"``
    buckets with ``5``, and huge ints bucket by their float image, matching
    ``absolute_difference``); for the trivial/categorical distances zero
    distance coincides with Python equality (``1 == 1.0`` hashes
    consistently).  NaN never equals anything under these distances but *is*
    found by dict identity lookup, so it is replaced with a fresh
    unmatchable sentinel; so is an infinity under a numeric distance, which
    is at distance NaN from itself (``inf - inf``).  Raises
    ``TypeError``/``ValueError``/``OverflowError`` on values the underlying
    distance (or hashing) would also choke on; callers catch these and fall
    back to the nested loop.
    """
    if distance.name == "string-prefix":
        return str(value)
    if distance.numeric:
        if value is None:
            return None
        coerced = float(value)  # may raise, exactly like absolute_difference
        if not isfinite(coerced):
            return object()
        return coerced
    if isinstance(value, float) and value != value:
        return object()
    return value


def _canonical_column(column: Sequence[object], distance: DistanceFunction) -> Sequence[object]:
    """:func:`_canonical` applied to a whole column, exploiting typed buffers.

    A ``ColumnStore`` buffer of machine ints (``array('q')``) provably holds
    no ``None``/NaN/strings, so its canonical form is the buffer itself (or
    its C-speed float image for numeric distances); a float buffer
    (``array('d')``) only needs the per-value treatment when it actually
    contains NaN or an infinity (one ``math.isfinite`` sweep decides).  Plain
    lists — and any row-backed column — fall back to the per-value loop, so
    canonical values are identical across backends.
    """
    if isinstance(column, array):
        if distance.name == "string-prefix":
            return [str(value) for value in column]
        if column.typecode == "q":
            if distance.numeric:
                # float() semantics at C speed (same rounding for huge ints).
                return array("d", column)
            return column
        # 'd': values are floats; only NaN and infinities need the
        # unmatchable sentinel.
        if all(map(isfinite, column)):
            return column
    return [_canonical(distance, value) for value in column]


# ---------------------------------------------------------------------------
# Naive reference implementations (ground truth for the differential tests,
# and the explicit fallback when values defeat hashing)
# ---------------------------------------------------------------------------

def pair_within(
    values: Sequence[object],
    row: Row,
    positions: Sequence[int],
    distances: Sequence[DistanceFunction],
    thresholds: Sequence[float],
) -> bool:
    """Whether ``row`` lies within every per-key threshold of ``values``."""
    for value, position, dist, threshold in zip(values, positions, distances, thresholds):
        if not dist(value, row[position]) <= threshold:
            return False
    return True


def naive_radius_matches(
    values: Sequence[object],
    rows: Sequence[Row],
    positions: Sequence[int],
    distances: Sequence[DistanceFunction],
    thresholds: Sequence[float],
) -> List[int]:
    """Nested-loop reference for :meth:`RadiusMatcher.matches`."""
    return [
        index
        for index, row in enumerate(rows)
        if pair_within(values, row, positions, distances, thresholds)
    ]


def naive_min_distance(
    values: Sequence[object],
    rows: Iterable[Row],
    distances: Sequence[DistanceFunction],
) -> float:
    """Linear-scan reference for :meth:`NearestNeighbors.min_distance`."""
    best = INFINITY
    for row in rows:
        worst = 0.0
        for value, other, dist in zip(values, row, distances):
            d = dist(value, other)
            if d > worst:
                worst = d
            if worst >= best:
                break
        else:
            if worst < best:
                best = worst
        if best == 0.0:
            break
    return best


# ---------------------------------------------------------------------------
# RadiusMatcher
# ---------------------------------------------------------------------------

class _Bucket:
    """Rows sharing one canonical exact-key value, plus their sorted band."""

    __slots__ = ("indices", "band_values", "band_subs", "band_groups", "linear")

    def __init__(self) -> None:
        self.indices: List[int] = []  # all row indices in this bucket
        # One entry per distinct band-key sub-tuple, sorted by its first key:
        # that key, the sub-tuple, and the row indices sharing it.
        self.band_values: List[object] = []
        self.band_subs: List[Tuple[object, ...]] = []
        self.band_groups: List[List[int]] = []
        self.linear: List[int] = []  # rows whose first band key is not a real number


class RadiusMatcher:
    """Pre-indexed rows answering per-key within-threshold queries.

    Args:
        rows: the indexed row set (e.g. the build side of a relaxed join).
        positions: key column positions within each indexed row.
        distances: per-key distance functions (applied as
            ``dis(query_value, row_value)``).
        thresholds: per-key slack; a row matches a query when *every* key
            distance is ``<= threshold``.

    Internally the matcher is columnar: only the key columns are kept, one
    buffer per key, extracted in a single pass (or borrowed directly from a
    column-backed :class:`~repro.relational.store.Store` via
    :meth:`from_store` — no row tuples are ever materialized then).

    ``matches(values)`` returns the matching row indices sorted ascending —
    byte-identical to :func:`naive_radius_matches` — and ``any_match`` is the
    short-circuiting existence variant.
    """

    def __init__(
        self,
        rows: Optional[Sequence[Row]],
        positions: Sequence[int],
        distances: Sequence[DistanceFunction],
        thresholds: Sequence[float],
        key_columns: Optional[Sequence[Sequence[object]]] = None,
        size: Optional[int] = None,
    ) -> None:
        self.positions = list(positions)
        self.distances = list(distances)
        self.thresholds = list(thresholds)
        if key_columns is None:
            if rows is None:
                raise ValueError("RadiusMatcher needs rows or key_columns")
            rows = list(rows)
            size = len(rows)
            key_columns = [[row[p] for row in rows] for p in self.positions]
        self._key_columns = list(key_columns)
        self._size = size if size is not None else (len(self._key_columns[0]) if self._key_columns else 0)

        kinds = [classify_key(d, t) for d, t in zip(self.distances, self.thresholds)]
        keys = list(zip(self.distances, self.thresholds, kinds))
        # Query `values` is aligned with `positions`; remember each key's slot.
        self._exact = [(slot, d) for slot, (d, _, k) in enumerate(keys) if k == KIND_EXACT]
        self._band = [(slot, d, t) for slot, (d, t, k) in enumerate(keys) if k == KIND_BAND]
        self._check = [(slot, d, t) for slot, (d, t, k) in enumerate(keys) if k == KIND_CHECK]
        # The band keys after the first, with their place in a band sub-tuple.
        self._later_band = [(place, slot, d, t) for place, (slot, d, t) in enumerate(self._band)][1:]

        self._naive = False
        self._buckets: Dict[Tuple[object, ...], _Bucket] = {}
        try:
            self._build()
        except (TypeError, ValueError, OverflowError):
            # Unhashable or uncoercible key values (lists, float("abc"),
            # float(10**400)): fall back to the nested loop wholesale, which
            # reproduces the naive path's behaviour — including any error it
            # would raise at comparison time, and no error at all when the
            # offending row is never actually compared.
            self._naive = True

    @classmethod
    def from_store(
        cls,
        store: Store,
        positions: Sequence[int],
        distances: Sequence[DistanceFunction],
        thresholds: Sequence[float],
    ):
        """Index a store's rows by pulling its key column buffers directly."""
        return cls(
            None,
            positions,
            distances,
            thresholds,
            key_columns=[store.column(p) for p in positions],
            size=len(store),
        )

    def __len__(self) -> int:
        return self._size

    # -- construction -------------------------------------------------------
    def _build(self) -> None:
        if self._exact:
            # Canonicalize each exact-key column in one pass (typed buffers
            # skip the per-value calls), then zip the canonical columns into
            # bucket keys at C speed.
            canonical_columns = [
                _canonical_column(self._key_columns[slot], d) for slot, d in self._exact
            ]
            keys_iter: Iterable[Tuple[object, ...]] = zip(*canonical_columns)
        else:
            keys_iter = iter([()] * self._size)
        for index, key in enumerate(keys_iter):
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = _Bucket()
            bucket.indices.append(index)

        if not self._band:
            return
        # Rows sharing a band sub-tuple are one band entry: the other band
        # keys are checked once per entry, the check keys once per row.
        subs = list(zip(*(self._key_columns[slot] for slot, _, _ in self._band)))
        for bucket in self._buckets.values():
            groups: Dict[Tuple[object, ...], List[int]] = {}
            for index in bucket.indices:
                sub = subs[index]
                if is_real_number(sub[0]):
                    groups.setdefault(sub, []).append(index)
                else:
                    bucket.linear.append(index)
            bucket.band_subs = sorted(groups, key=itemgetter(0))
            bucket.band_values = list(map(itemgetter(0), bucket.band_subs))
            bucket.band_groups = list(map(groups.__getitem__, bucket.band_subs))

    # -- queries -------------------------------------------------------------
    def matches(self, values: Sequence[object]) -> List[int]:
        """Indices of all indexed rows within threshold of ``values`` (sorted)."""
        return sorted(self._iter_matches(values))

    def any_match(self, values: Sequence[object]) -> bool:
        """Whether at least one indexed row is within threshold of ``values``."""
        for _ in self._iter_matches(values):
            return True
        return False

    def matches_many(self, queries: Sequence[Sequence[object]]) -> List[List[int]]:
        """:meth:`matches` for a whole query batch (the relaxed join's probe)."""
        return [self.matches(values) for values in queries]

    def any_match_many(self, queries: Sequence[Sequence[object]]) -> List[bool]:
        """:meth:`any_match` for a whole query batch (the difference guard's probe)."""
        return [self.any_match(values) for values in queries]

    def _pair_ok(self, values: Sequence[object], index: int, keys) -> bool:
        columns = self._key_columns
        for slot, dist, threshold in keys:
            if not dist(values[slot], columns[slot][index]) <= threshold:
                return False
        return True

    def _iter_matches(self, values: Sequence[object]) -> Iterator[int]:
        if not self._naive:
            try:
                key = tuple(_canonical(d, values[slot]) for slot, d in self._exact)
                bucket = self._buckets.get(key)  # may raise on unhashable values
            except (TypeError, ValueError, OverflowError):
                bucket = None
                key = None
            if key is not None:
                if bucket is None:
                    return
                yield from self._iter_bucket(values, bucket)
                return
        # Fallback: exhaustive scan over every indexed row (all key kinds).
        residual = self._exact_as_checks() + self._band + self._check
        for index in range(self._size):
            if self._pair_ok(values, index, residual):
                yield index

    def _exact_as_checks(self):
        return [(slot, d, self.thresholds[slot]) for slot, d in self._exact]

    def _iter_bucket(self, values: Sequence[object], bucket: _Bucket) -> Iterator[int]:
        if not self._band:
            for index in bucket.indices:
                if self._pair_ok(values, index, self._check):
                    yield index
            return
        slot, dist, threshold = self._band[0]
        value = values[slot]
        if not is_real_number(value):
            # NaN/None/other query value: the band window is undefined, so
            # check the whole bucket exactly (matches the nested loop,
            # including d(None, None) == 0 pairs).
            for index in bucket.indices:
                if self._pair_ok(values, index, self._band + self._check):
                    yield index
            return
        band_values, band_subs = bucket.band_values, bucket.band_subs
        center = bisect_left(band_values, value)
        # Walk outwards while the first band key is within slack; valid
        # because numeric distances are monotone in |x - y|.
        for cursors in (range(center - 1, -1, -1), range(center, len(band_values))):
            for cursor in cursors:
                if not dist(value, band_values[cursor]) <= threshold:
                    break
                sub = band_subs[cursor]
                for place, slot, d, t in self._later_band:
                    if not d(values[slot], sub[place]) <= t:
                        break
                else:
                    for index in bucket.band_groups[cursor]:
                        if self._pair_ok(values, index, self._check):
                            yield index
        # Non-real indexed values (None, strings, NaN) never sit in the
        # band; give them the exact per-pair check.
        for index in bucket.linear:
            if self._pair_ok(values, index, self._band + self._check):
                yield index


# Pinned by benchmarks/e2e: ``spans.install`` wraps ``matches_many`` /
# ``any_match_many`` from this class's own ``__dict__``, so the name and the
# two entries must exist.  Nothing in the package constructs it; it goes when
# the benchmark's own PR stops naming it.
class ShardedRadiusMatcher(RadiusMatcher):
    matches_many = RadiusMatcher.matches_many
    any_match_many = RadiusMatcher.any_match_many


# ---------------------------------------------------------------------------
# NearestNeighbors
# ---------------------------------------------------------------------------

class NearestNeighbors:
    """Minimum tuple distance ``min_row max_A dis_A`` to an indexed row set.

    Trivial-distance attributes partition the rows into hash buckets (a
    finite tuple distance requires equality on every such attribute).  A
    bucket keeps its distinct sub-tuples over the other attributes sorted by
    the first numeric one, the *band attribute*; sub-tuples whose value there
    is not a real number sit on a linear list.  A probe scans that list, then
    walks outward from its own band value, nearer side first, and stops once
    the band attribute's distance alone reaches the best tuple distance so
    far: a tuple distance is a max over attributes, and numeric distances
    are monotone in ``|x - y|``.  Without a band attribute, or for a probe
    whose band value is not a real number, the bucket is scanned.  Results
    are identical to :func:`naive_min_distance` over all rows.

    The index is built column-at-a-time: bucket keys are canonicalized one
    column buffer at a time and sub-tuples assembled with ``zip`` over the
    non-trivial columns.  :meth:`from_store` borrows a column-backed store's
    buffers directly.
    """

    def __init__(
        self,
        rows: Optional[Sequence[Row]],
        attributes: Sequence[Attribute],
        columns: Optional[Sequence[Sequence[object]]] = None,
        size: Optional[int] = None,
    ) -> None:
        self.attributes = list(attributes)
        self.distances = [a.distance for a in attributes]
        if columns is None:
            if rows is None:
                raise ValueError("NearestNeighbors needs rows or columns")
            rows = list(rows)
            size = len(rows)
            columns = (
                [list(col) for col in zip(*rows)]
                if rows
                else [[] for _ in self.attributes]
            )
            self._row_cache: Optional[List[Row]] = rows
        else:
            columns = list(columns)
            self._row_cache = None
        self._columns = columns
        self._size = size if size is not None else (len(columns[0]) if columns else 0)
        self._bucket_positions = [
            i for i, a in enumerate(attributes) if a.distance.name == "trivial"
        ]
        self._other = [i for i, a in enumerate(attributes) if a.distance.name != "trivial"]
        self._other_distances = [self.distances[i] for i in self._other]
        # The band attribute's place within a sub-tuple, if there is one.
        self._band = next(
            (k for k, d in enumerate(self._other_distances) if d.numeric), None
        )
        self._naive = False
        # Bucket key -> (linear sub-tuples, sorted band values, band sub-tuples).
        self._buckets: Dict[Tuple[object, ...], Tuple[list, list, list]] = {}
        try:
            self._build()
        except (TypeError, ValueError, OverflowError):
            self._naive = True

    @classmethod
    def from_store(cls, store: Store, attributes: Sequence[Attribute]):
        """Index a store's rows by borrowing its column buffers directly."""
        return cls(None, attributes, columns=store.columns(), size=len(store))

    @property
    def rows(self) -> List[Row]:
        """The indexed rows as tuples (materialized lazily from columns)."""
        if self._row_cache is None:
            self._row_cache = list(zip(*self._columns)) if self._size else []
        return self._row_cache

    def __len__(self) -> int:
        return self._size

    def _build(self) -> None:
        if self._bucket_positions:
            canonical_columns = [
                _canonical_column(self._columns[p], self.distances[p])
                for p in self._bucket_positions
            ]
            keys: Iterable[Tuple[object, ...]] = zip(*canonical_columns)
        else:
            keys = iter([()] * self._size)
        if self._other:
            subs: Iterable[Tuple[object, ...]] = zip(*(self._columns[p] for p in self._other))
        else:
            subs = iter([()] * self._size)
        grouped: Dict[Tuple[object, ...], List[Tuple[object, ...]]] = {}
        for key, sub in zip(keys, subs):
            grouped.setdefault(key, []).append(sub)
        band = self._band
        for key, bucket_subs in grouped.items():
            # Dedup by per-distance *canonical* form, not by ``==``: values
            # like ``1`` and ``1.0`` compare equal but behave differently
            # under non-numeric distances (``str()`` forms differ for
            # string-prefix), so ==-dedup could drop the closer
            # representative and report a too-large minimum.  Equal
            # canonical tuples guarantee equal distances to every query.
            distinct: Dict[Tuple[object, ...], Tuple[object, ...]] = {}
            for sub in bucket_subs:
                canonical = tuple(
                    _canonical(d, value) for d, value in zip(self._other_distances, sub)
                )
                distinct.setdefault(canonical, sub)
            linear: List[Tuple[object, ...]] = []
            banded: List[Tuple[object, ...]] = []
            for sub in distinct.values():
                (banded if band is not None and is_real_number(sub[band]) else linear).append(sub)
            banded.sort(key=itemgetter(band))
            self._buckets[key] = (linear, list(map(itemgetter(band), banded)), banded)

    def min_distance(self, values: Sequence[object]) -> float:
        """Exact minimum tuple distance from ``values`` to any indexed row."""
        if self._naive:
            return naive_min_distance(values, self.rows, self.distances)
        trivial = [self.distances[i] for i in self._bucket_positions]
        try:
            key = tuple(
                _canonical(d, values[p]) for p, d in zip(self._bucket_positions, trivial)
            )
            bucket = self._buckets.get(key)  # may raise on unhashable values
        except (TypeError, ValueError, OverflowError):
            return naive_min_distance(values, self.rows, self.distances)
        if bucket is None:
            return INFINITY
        linear, band_values, band_subs = bucket
        sub = tuple(values[p] for p in self._other)
        distances = self._other_distances
        if self._band is None or not is_real_number(sub[self._band]):
            return naive_min_distance(sub, linear + band_subs, distances)
        best = naive_min_distance(sub, linear, distances)
        band = self._band
        value, dist = sub[band], distances[band]
        rest = [(k, sub[k], distances[k]) for k in range(len(sub)) if k != band]
        right = bisect_left(band_values, value)
        left = right - 1
        size = len(band_values)
        near_left = dist(value, band_values[left]) if left >= 0 else INFINITY
        near_right = dist(value, band_values[right]) if right < size else INFINITY
        while left >= 0 or right < size:
            if right >= size or (left >= 0 and near_left < near_right):
                near, candidate = near_left, band_subs[left]
                left -= 1
                near_left = dist(value, band_values[left]) if left >= 0 else INFINITY
            else:
                near, candidate = near_right, band_subs[right]
                right += 1
                near_right = dist(value, band_values[right]) if right < size else INFINITY
            if near >= best:
                break
            # The band distance is ``near`` already; a NaN one counts as 0,
            # as in naive_min_distance.
            worst = near if near > 0.0 else 0.0
            for k, query_value, distance in rest:
                d = distance(query_value, candidate[k])
                if d > worst:
                    worst = d
                if worst >= best:
                    break
            else:
                best = worst
                if best == 0.0:
                    break
        return best


def max_min_distance(queries: Store, indexed: Store, attributes: Sequence[Attribute]) -> float:
    """``max_t min_s d(t, s)`` over the rows ``t`` of ``queries`` and ``s`` of ``indexed``.

    The one-sided Hausdorff distance both the RC coverage measure
    (``queries`` = exact answers, ``indexed`` = approximate answers) and
    BEAS_RA's η′ refinement (induced answers vs. answers) are defined by.
    ``indexed`` is indexed once (:class:`NearestNeighbors`) and probed once
    per query row, so the result
    equals a :func:`naive_min_distance` scan per row.  No query rows gives
    0, nothing to match them against gives +inf.
    """
    if len(queries) == 0:
        return 0.0
    if len(indexed) == 0:
        return INFINITY
    neighbors = NearestNeighbors.from_store(indexed, attributes)
    # max is order-insensitive, so a sharded ``queries`` is walked shard by
    # shard straight off the shard buffers.
    worst = 0.0
    for source in queries.shard_views():
        for row in source.iter_rows():
            d = neighbors.min_distance(row)
            if d > worst:
                worst = d
            if worst == INFINITY:
                return worst
    return worst
