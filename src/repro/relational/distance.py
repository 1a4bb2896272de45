"""Per-attribute distance functions.

The paper assumes every attribute ``A`` has a distance function
``dis_A : U_A x U_A -> R`` satisfying the triangle inequality.  Numeric
attributes typically use absolute difference; identifier-like attributes use
the *trivial* distance (0 when equal, +inf otherwise), which is also the
default when no function is registered.

Distances are used in three places:

* resolutions ``d̄_Y`` of access templates (Section 2.1),
* the RC accuracy measure (Section 3), and
* relaxed selection conditions in evaluation plans (Section 5).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .store import _buffer_typecode

INFINITY = math.inf

DistanceCallable = Callable[[object, object], float]


def is_real_number(value: object) -> bool:
    """A comparable number (bool counts as its int value, NaN excluded).

    Shared predicate for the KD-tree and the distance kernels: such values
    can sit in sorted columns and min/max bounds used for search pruning.
    """
    return isinstance(value, (int, float)) and value == value


def numeric_typecode(values: object) -> Optional[str]:
    """``"d"`` / ``"q"`` for a typed numeric column buffer, else ``None``.

    Typed buffers are the in-memory ``array`` columns of a column store and
    the ``memoryview`` casts an mmap-backed store exposes over its file;
    both hold only floats (``"d"``) or machine ints (``"q"``).
    """
    code = _buffer_typecode(values)
    return code if code in ("d", "q") else None


def trivial_distance(x: object, y: object) -> float:
    """Default distance: 0 if the values are equal, +inf otherwise.

    Used for identifiers and categorical attributes where no meaningful
    numeric notion of closeness exists (e.g. ``pid`` in Example 1).
    """
    return 0.0 if x == y else INFINITY


def absolute_difference(x: object, y: object) -> float:
    """Distance for numeric attributes: ``|x - y|``."""
    if x is None or y is None:
        return 0.0 if x is y else INFINITY
    return abs(float(x) - float(y))  # type: ignore[arg-type]


@dataclass(frozen=True)
class ScaledDifference:
    """``|x - y| / scale`` as a picklable callable.

    A plain closure would tie the distance to the process that created it;
    distance functions ride inside :class:`DistanceFunction` objects that the
    process-parallel shard executor ships to worker processes
    (:mod:`repro.relational.parallel`), so the scaled variant is a small
    frozen dataclass instead.
    """

    scale: float

    def __call__(self, x: object, y: object) -> float:
        return absolute_difference(x, y) / self.scale


def scaled_difference(scale: float) -> DistanceCallable:
    """Numeric distance divided by a positive ``scale``.

    Useful to make attributes with very different magnitudes comparable in
    the tuple distance ``d(t, t') = max_A dis_A(t[A], t'[A])``.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    return ScaledDifference(scale)


def hamming_prefix_distance(x: object, y: object) -> float:
    """Distance between strings: number of trailing positions that differ.

    A crude but triangle-inequality-respecting stand-in for "physical
    distance between addresses" used in Example 1: two strings sharing a
    long prefix (same city/street) are close.
    """
    sx, sy = str(x), str(y)
    if sx == sy:
        return 0.0
    common = 0
    for a, b in zip(sx, sy):
        if a != b:
            break
        common += 1
    return float(max(len(sx), len(sy)) - common)


@dataclass(frozen=True)
class DistanceFunction:
    """A named distance function attached to an attribute.

    Attributes:
        name: human-readable identifier (used in reprs and error messages).
        func: the underlying callable.
        numeric: whether the attribute participates in KD-tree splitting as
            a numeric axis.  Non-numeric attributes are indexed by grouping
            on exact values instead.
    """

    name: str
    func: DistanceCallable
    numeric: bool = False

    def __call__(self, x: object, y: object) -> float:
        return self.func(x, y)

    # -- column kernels ------------------------------------------------------
    #
    # ``self(v, c) <= slack`` for a whole column in one generator pass, for
    # the built-in numeric distances over typed buffers.  A typed buffer
    # holds only floats or machine ints (never ``None``), so
    # ``absolute_difference``'s guards and ``float()`` coercions fall away:
    # ``v - fc`` with ``fc = float(c)`` converts an int ``v`` exactly as
    # ``float(v)`` does, and ``/ 1.0`` (the unscaled distance) is the
    # identity on every float — each byte is the result of the same float
    # operations, in the same order, as the per-value call.  The strict
    # order test reads the operands as given (int/float comparison is exact).

    def _scale(self) -> Optional[float]:
        """The divisor of a built-in numeric distance, else ``None``."""
        if self.func is absolute_difference:
            return 1.0
        if isinstance(self.func, ScaledDifference):
            return self.func.scale
        return None

    def within_mask(
        self,
        values: Sequence[object],
        constant: object,
        slack: float,
        strict: Optional[str] = None,
    ) -> Optional[bytearray]:
        """One 0/1 byte per value: ``self(v, constant) <= slack``.

        ``strict`` (``"<="``, ``"<"``, ``">="`` or ``">"``) ORs in the order
        test ``v strict constant`` — the relaxed order comparison of
        Section 5.  Returns ``None`` when no column kernel applies
        (``values`` is not a typed numeric buffer, the constant is not a
        number, or the distance is not a built-in numeric one); the caller
        then evaluates value by value.
        """
        scale = self._scale()
        if (
            scale is None
            or numeric_typecode(values) is None
            or not isinstance(constant, (int, float))
        ):
            return None
        try:
            fc = float(constant)
        except OverflowError:  # an int beyond the float range: per-value raises the same
            return None
        if strict is None:
            return bytearray(abs(v - fc) / scale <= slack for v in values)
        if strict == "<=":
            return bytearray(v <= constant or abs(v - fc) / scale <= slack for v in values)
        if strict == "<":
            return bytearray(v < constant or abs(v - fc) / scale <= slack for v in values)
        if strict == ">=":
            return bytearray(v >= constant or abs(v - fc) / scale <= slack for v in values)
        if strict == ">":
            return bytearray(v > constant or abs(v - fc) / scale <= slack for v in values)
        raise ValueError(f"unknown order operator {strict!r}")

    def within_mask_pair(
        self,
        left: Sequence[object],
        right: Sequence[object],
        slack: float,
        strict: Optional[str] = None,
    ) -> Optional[bytearray]:
        """:meth:`within_mask` between two aligned columns: ``self(a, b) <= slack``."""
        scale = self._scale()
        codes = (numeric_typecode(left), numeric_typecode(right))
        if scale is None or None in codes:
            return None
        # ``a - b`` is the distance's ``float(a) - float(b)`` as soon as one
        # operand is a float; between two int columns it would be exact int
        # arithmetic instead, so the left operand of the subtraction is read
        # from a float image of the column.  The order test reads the ints.
        rows = zip(left, right, array("d", left) if codes == ("q", "q") else left)
        if strict is None:
            return bytearray(abs(fa - b) / scale <= slack for _, b, fa in rows)
        if strict == "<=":
            return bytearray(a <= b or abs(fa - b) / scale <= slack for a, b, fa in rows)
        if strict == "<":
            return bytearray(a < b or abs(fa - b) / scale <= slack for a, b, fa in rows)
        if strict == ">=":
            return bytearray(a >= b or abs(fa - b) / scale <= slack for a, b, fa in rows)
        if strict == ">":
            return bytearray(a > b or abs(fa - b) / scale <= slack for a, b, fa in rows)
        raise ValueError(f"unknown order operator {strict!r}")


def categorical_distance(x: object, y: object) -> float:
    """Distance for categorical attributes: 0 when equal, 1 otherwise.

    Unlike the trivial distance (+inf for a mismatch), a categorical mismatch
    costs a bounded unit, so answers that get a category wrong degrade
    accuracy smoothly instead of zeroing it.  Use it for descriptive
    categories (market segment, weather, road type); keep the trivial
    distance for identifiers and join keys, where "close" is meaningless.
    """
    return 0.0 if x == y else 1.0


TRIVIAL = DistanceFunction("trivial", trivial_distance, numeric=False)
NUMERIC = DistanceFunction("numeric", absolute_difference, numeric=True)
CATEGORICAL = DistanceFunction("categorical", categorical_distance, numeric=False)
STRING_PREFIX = DistanceFunction("string-prefix", hamming_prefix_distance, numeric=False)


def numeric_scaled(scale: float) -> DistanceFunction:
    """A numeric :class:`DistanceFunction` scaled by ``scale``."""
    return DistanceFunction(f"numeric/{scale:g}", scaled_difference(scale), numeric=True)


def resolve(distance: Optional[DistanceFunction]) -> DistanceFunction:
    """Return ``distance`` or the trivial default when ``None``."""
    return distance if distance is not None else TRIVIAL


def tuple_distance(
    values_a,
    values_b,
    distances,
) -> float:
    """Worst-case attribute distance ``d(t, t') = max_A dis_A(t[A], t'[A])``.

    Args:
        values_a: first sequence of attribute values.
        values_b: second sequence of attribute values (same length).
        distances: matching sequence of :class:`DistanceFunction`.
    """
    worst = 0.0
    for a, b, dist in zip(values_a, values_b, distances):
        d = dist(a, b)
        if d > worst:
            worst = d
        if worst == INFINITY:
            return INFINITY
    return worst
