"""The long-lived serving facade over :class:`~repro.core.framework.Beas`.

:class:`QueryServer` answers the same API as ``Beas.answer`` — a query and
a resource ratio α — but is built for *many* requests over a long lifetime:

1. every request passes **admission control**
   (:class:`~repro.serving.admission.AdmissionController`: reject, queue,
   or degrade α under load);
2. answers are **cached** keyed by
   ``(fingerprint, served α, enforce_budget, publication epoch)`` — the
   epoch term makes mutation invalidation automatic (see
   ``serving/README.md`` for the key anatomy);
3. on a result miss, the engine's plan memo (:meth:`Beas._memo_plan`,
   keyed by fingerprint × budget) skips re-planning, and execution reuses
   compiled mask programs through the ``program_cache_capacity`` setting
   of :mod:`repro.config` (raised by the server unless already configured);
4. everything is **observable** through
   :class:`~repro.serving.stats.ServingStats`.

Resilience: a fault anywhere below the server costs latency, never α,
correctness or availability (only admission load lowers the served α).
The result cache is consulted through guarded wrappers — an erroring
backend (or the ``serving.cache.get`` / ``serving.cache.put`` fault sites)
is treated as a miss and counted, and the request recomputes.  A process
executor whose circuit breaker
(:func:`repro.relational.parallel.breaker_state`) is open computes in the
caller, at the requested α.

Thread-safe: one server instance is meant to be shared by many request
threads (the concurrency harness in ``benchmarks/bench_serving.py`` drives
it exactly that way).
"""

from __future__ import annotations

import time
from typing import Optional

from .. import config, faults
from ..algebra import predicates
from ..algebra.ast import query_fingerprint
from ..core.framework import PLAN_MEMO_CAPACITY, Beas, QueryLike
from ..errors import FaultInjectedError
from ..relational import parallel
from .admission import AdmissionController
from .cache import DEFAULT_MAX_ENTRIES, MISSING, CacheBackend, make_cache
from .envelope import ServingEnvelope
from .stats import ServingStats

# ``query_fingerprint`` is not called here (requests resolve through
# ``Beas._resolve``); ``benchmarks/e2e/spans.py`` replaces it by name.
__all__ = ["DEFAULT_PROGRAM_CACHE_CAPACITY", "QueryServer", "query_fingerprint"]

# Compiled-program cache capacity the server enables when the setting is still
# at its batch default (0 = disabled).  A few hundred programs covers any
# realistic set of hot query shapes; each entry is a handful of small frozen
# binder objects.
DEFAULT_PROGRAM_CACHE_CAPACITY = 256


class QueryServer:
    """Serve α-bounded answers for one :class:`Beas` instance.

    Args:
        beas: the engine (database + access schema) to serve.
        result_cache: a :class:`CacheBackend` instance, a registered
            backend name, or ``None`` for an
            :class:`~repro.serving.cache.LRUTTLCache`.
        admission: a preconfigured :class:`AdmissionController`; ``None``
            builds one with the default concurrency target and the
            ``admission_policy`` setting (:mod:`repro.config`).
        stats: a :class:`ServingStats` to record into; ``None`` builds one.
        max_entries / ttl_seconds: forwarded when the cache is built from a
            name or the default (ignored for an instance).
        program_cache_capacity: compiled-mask-program cache size to enable
            at construction; only applied when the process-wide setting
            is still 0 (never shrinks a capacity someone already set).
            ``None`` leaves the setting alone.
    """

    def __init__(
        self,
        beas: Beas,
        result_cache: object = None,
        admission: Optional[AdmissionController] = None,
        stats: Optional[ServingStats] = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        ttl_seconds: Optional[float] = None,
        program_cache_capacity: Optional[int] = DEFAULT_PROGRAM_CACHE_CAPACITY,
    ) -> None:
        self.beas = beas
        self.result_cache: CacheBackend = make_cache(result_cache, max_entries, ttl_seconds)
        self.admission = admission if admission is not None else AdmissionController()
        self.stats = stats if stats is not None else ServingStats()
        if (
            program_cache_capacity is not None
            and config.current().program_cache_capacity == 0
        ):
            config.configure(program_cache_capacity=program_cache_capacity)

    # -- serving -----------------------------------------------------------------
    def serve(
        self,
        query: QueryLike,
        alpha: float,
        enforce_budget: bool = True,
    ) -> ServingEnvelope:
        """Answer ``query`` at (up to) resource ratio ``alpha``.

        Semantically identical to ``beas.answer(query, alpha)`` except that
        admission control may serve a degraded α (reported in the envelope)
        and identical requests against an unchanged database are answered
        from cache — the cached rows are bit-identical to a fresh
        computation, because the cache key pins query shape, α, budget
        enforcement *and* the database's publication epoch.
        """
        start = time.perf_counter()
        ticket = self.admission.admit(alpha)
        try:
            envelope = self._serve_admitted(query, alpha, ticket, enforce_budget, start)
        finally:
            self.admission.release()
        self.stats.record_request(
            seconds=envelope.serve_seconds,
            served_alpha=envelope.served_alpha,
            result_cache_hit=envelope.result_cache_hit,
            plan_cache_hit=envelope.plan_cache_hit,
            degraded=envelope.degraded,
            wait_seconds=envelope.wait_seconds,
        )
        if envelope.degraded_reason is not None:
            self.stats.count(f"degraded[{envelope.degraded_reason}]")
        return envelope

    # -- resilience helpers ------------------------------------------------------
    def _cache_get(self, key):
        """Guarded result-cache read: an erroring backend is a miss, never a failure."""
        try:
            if faults.inject("serving.cache.get"):
                raise FaultInjectedError("injected result-cache get fault")
            return self.result_cache.get(key)
        except Exception:
            self.stats.count("result_cache_errors")
            return MISSING

    def _cache_put(self, key, value) -> None:
        """Guarded result-cache write: a failed put only costs the next request."""
        try:
            if faults.inject("serving.cache.put"):
                raise FaultInjectedError("injected result-cache put fault")
            self.result_cache.put(key, value)
        except Exception:
            self.stats.count("result_cache_errors")

    def _serve_admitted(self, query, alpha, ticket, enforce_budget, start):
        """The cache-then-compute path, run while holding an admission slot."""
        ast, fingerprint = self.beas._resolve(query)
        epoch = self.beas.database.publication_epoch
        served_alpha = ticket.served_alpha
        degraded = ticket.degraded
        degraded_reason = "admission-load" if degraded else None

        result_key = (fingerprint, served_alpha, enforce_budget, epoch)
        cached = self._cache_get(result_key)
        if cached is not MISSING:
            return ServingEnvelope(
                result=cached,
                requested_alpha=alpha,
                served_alpha=served_alpha,
                eta=cached.eta,
                fingerprint=fingerprint,
                publication_epoch=epoch,
                result_cache_hit=True,
                plan_cache_hit=False,
                degraded=degraded,
                wait_seconds=ticket.wait_seconds,
                serve_seconds=time.perf_counter() - start,
                degraded_reason=degraded_reason,
            )

        result, plan_hit = self.beas._answer_ast(ast, fingerprint, served_alpha, enforce_budget)
        self._cache_put(result_key, result)
        return ServingEnvelope(
            result=result,
            requested_alpha=alpha,
            served_alpha=served_alpha,
            eta=result.eta,
            fingerprint=fingerprint,
            publication_epoch=epoch,
            result_cache_hit=False,
            plan_cache_hit=plan_hit,
            degraded=degraded,
            wait_seconds=ticket.wait_seconds,
            serve_seconds=time.perf_counter() - start,
            degraded_reason=degraded_reason,
        )

    # -- maintenance --------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop every cached result, plan and statement (stats are kept)."""
        self.result_cache.clear()
        self.beas.clear_plans()
        self.beas.statements.cache_clear()

    def cache_info(self) -> dict:
        """Result-cache, plan-memo and statement-memo sizes plus the live admission load.

        The ``dispatch`` section (task/timeout/fallback counters and the
        breaker snapshot) and the ``faults`` section (active fault-plan fire
        counts, ``None`` when no plan is installed) make one call enough to
        diagnose a degraded server.
        """
        memo = self.beas.statements.cache_info()
        return {
            "result_cache": self.result_cache.info(),
            "plans": {"size": len(self.beas.plans), "capacity": PLAN_MEMO_CAPACITY},
            "statements": {"size": memo.currsize, "capacity": memo.maxsize, "hits": memo.hits, "misses": memo.misses},
            "in_flight": self.admission.in_flight,
            "policy": self.admission.policy,
            "max_concurrency": self.admission.max_concurrency,
            "program_cache": predicates.program_cache_info(),
            "dispatch": parallel.dispatch_stats(),
            "faults": faults.fault_stats(),
        }
