"""In-memory spans and the timing wrappers the harness installs around the
engine's public entry points.

Every layer is measured from outside: :func:`install` replaces a public
function, method or class *where callers look it up* (a module namespace or a
class attribute) with a wrapper that opens a span, calls the original and
closes the span.  Nothing under ``src/`` changes; :meth:`Tracer.uninstall`
puts every original back.

A span is ``(id, parent id, position, name, start, end)``.  Spans of one
operation share the position index of the schedule entry that caused them.
A span's *self time* is its duration minus the part its children cover; the
``*_ms`` layer metrics are sums of self time, so they add up to the traced
wall time minus ``trace.unattributed_frac``.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, int, int, str, float, float]


class Tracer:
    """Span recorder for the benchmark's (single) client thread.

    Calls arriving on any other thread (the shard thread pool evaluating a
    masker per shard) pass straight through to the original: their time is
    already inside the span of the main-thread call that fanned out.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.position = -1
        self._stack: List[int] = []
        self._open: Dict[int, Tuple[int, int, str, float]] = {}
        self._next_id = 0
        self._main = threading.get_ident()
        self._patched: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def begin(self, name: str) -> int:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        self._open[span_id] = (parent, self.position, name, time.perf_counter())
        return span_id

    def end(self, span_id: int) -> None:
        end = time.perf_counter()
        parent, position, name, start = self._open.pop(span_id)
        self._stack.pop()
        self.spans.append((span_id, parent, position, name, start, end))

    def mark(self) -> int:
        """An index into :attr:`spans`; slice from it to get later spans."""
        return len(self.spans)

    # -- patching ----------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        on_result: Optional[Callable[["Tracer", tuple, object], None]] = None,
        kind: str = "function",
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``kind`` is ``"function"`` (module functions and plain methods) or
        ``"classmethod"``.  ``on_result(tracer, args, result)`` runs after a
        successful call, outside the span, to record counts.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        target = original.__func__ if kind == "classmethod" else original
        tracer = self

        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return target(*args, **kwargs)
            span_id = tracer.begin(name)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer.end(span_id)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        wrapper.__name__ = getattr(target, "__name__", attribute)
        wrapper.__doc__ = getattr(target, "__doc__", None)
        setattr(owner, attribute, classmethod(wrapper) if kind == "classmethod" else wrapper)
        self._patched.append((owner, attribute, original))

    def replace(self, owner: object, attribute: str, value: object) -> None:
        """Replace ``owner.attribute`` outright (restored by :meth:`uninstall`)."""
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Sum of self time (seconds) per span name."""
    children: Dict[int, float] = {}
    for _span_id, parent, _position, _name, start, end in spans:
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + (end - start)
    totals: Dict[str, float] = {}
    for span_id, _parent, _position, name, start, end in spans:
        own = (end - start) - children.get(span_id, 0.0)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def total_times(spans: List[Span], names: Tuple[str, ...]) -> float:
    """Seconds covered by the outermost spans named in ``names``.

    A span nested (at any depth) inside another span from ``names`` is not
    counted again, so ``fetch`` running inside ``evaluate`` is counted once.
    """
    by_id = {span[0]: span for span in spans}
    total = 0.0
    for _span_id, parent, _position, name, start, end in spans:
        if name not in names:
            continue
        nested = False
        while parent >= 0:
            ancestor = by_id.get(parent)
            if ancestor is None:
                break
            if ancestor[3] in names:
                nested = True
                break
            parent = ancestor[1]
        if not nested:
            total += end - start
    return total


# ---------------------------------------------------------------------------
# The wrappers: one block per layer (this repo's modules)
# ---------------------------------------------------------------------------

def _store_classes() -> list:
    from repro.relational.store import Store

    seen, queue = [], [Store]
    while queue:
        cls = queue.pop()
        if cls not in seen:
            seen.append(cls)
            queue.extend(cls.__subclasses__())
    return seen


def _count_calls(key: str):
    def on_result(tracer: Tracer, args: tuple, result: object) -> None:
        tracer.counts[key] += 1

    return on_result


def _on_plan(tracer: Tracer, args: tuple, plan) -> None:
    if plan.tariff > plan.budget:
        tracer.counts["core.tariff_over_budget"] += 1


def _on_fetch(tracer: Tracer, args: tuple, result: object) -> None:
    executor = args[0]
    tracer.counts["core.fetch_steps"] += len(list(executor.plan.fetch_plan))
    tracer.counts["core.tariff"] += executor.plan.tariff
    if executor.meter is not None:
        tracer.counts["core.tuples_accessed"] += executor.meter.accessed


def _on_select_gather(tracer: Tracer, args: tuple, result) -> None:
    mask, _selected = result
    tracer.counts["store.select_gather_calls"] += 1
    tracer.counts["store.select_gather_rows"] += len(mask)
    tracer.counts["store.select_gather_selected"] += mask.count(1)


def _on_kernel_query(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["kernels.queries"] += len(result)


def _on_dispatch(tracer: Tracer, args: tuple, result) -> None:
    if result is not None:  # None = the call fell through to the thread path
        tracer.counts["parallel.dispatch_calls"] += 1


def _on_kernel_dispatch(tracer: Tracer, args: tuple, result) -> None:
    _on_dispatch(tracer, args, result)
    if result is not None:
        tracer.counts["parallel.kernel_tasks"] += len(getattr(args[0], "shards", ()))


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer with ``tracer`` spans."""
    from repro.core import framework
    from repro.core.executor import PlanExecutor
    from repro.relational import kernels, parallel
    from repro.serving import server
    from repro.serving.admission import AdmissionController
    from repro.serving.cache import LRUTTLCache

    # algebra: SQL text -> AST -> fingerprint, and unbounded evaluation.
    tracer.wrap(framework, "parse_query", "algebra.parse")
    tracer.wrap(framework, "query_fingerprint", "algebra.fingerprint")
    tracer.replace(server, "query_fingerprint", framework.query_fingerprint)
    tracer.wrap(framework, "evaluate_exact", "algebra.evaluate")

    # core: chase + plan generation, then the two executor stages.
    for planner in ("plan_spc", "plan_ra", "plan_aggregate"):
        tracer.wrap(framework, planner, "core.plan", _on_plan)
    tracer.wrap(PlanExecutor, "fetch", "core.fetch", _on_fetch)
    tracer.wrap(PlanExecutor, "evaluate", "core.evaluate")
    tracer.wrap(framework, "refine_bound_with_induced", "core.refine")

    # relational.store: whole-store mask evaluation, fused select+gather, gather.
    for cls in _store_classes():
        if "eval_mask" in cls.__dict__:
            tracer.wrap(cls, "eval_mask", "store.eval_mask", _count_calls("store.eval_mask_calls"))
        if "select_gather" in cls.__dict__:
            tracer.wrap(cls, "select_gather", "store.select_gather", _on_select_gather)
        if "gather_column" in cls.__dict__:
            tracer.wrap(cls, "gather_column", "store.gather", _count_calls("store.gather_calls"))

    # relational.kernels: index build and batch probes (difference guard, relaxed join).
    tracer.wrap(kernels.RadiusMatcher, "from_store", "kernels.build", kind="classmethod")
    for cls in (kernels.RadiusMatcher, kernels.ShardedRadiusMatcher):
        for method in ("matches_many", "any_match_many"):
            tracer.wrap(cls, method, "kernels.query", _on_kernel_query)

    # relational.parallel: every parent-side operation that ships work to workers.
    for operation in ("process_eval_mask", "process_gather", "process_select_gather"):
        tracer.wrap(parallel, operation, "parallel.dispatch", _on_dispatch)
    for operation in ("radius_matches_many", "nn_min_distance_many", "kd_within_radius_many"):
        tracer.wrap(parallel, operation, "parallel.dispatch", _on_kernel_dispatch)

    class CountedPublication(parallel.ShardPublication):
        def __init__(self, store) -> None:
            tracer.counts["parallel.publications"] += 1
            super().__init__(store)

    tracer.replace(parallel, "ShardPublication", CountedPublication)

    # serving: the server's own bookkeeping (self time of serve), admission and the two caches.
    tracer.wrap(server.QueryServer, "serve", "serving.serve")
    tracer.wrap(AdmissionController, "admit", "serving.admit")
    tracer.wrap(LRUTTLCache, "get", "serving.cache_get")
    tracer.wrap(LRUTTLCache, "put", "serving.cache_put")
