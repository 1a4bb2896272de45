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
3. on a result miss, the **plan cache** (keyed by fingerprint × budget
   only — a :class:`~repro.core.framework.BoundedPlan` depends on nothing
   else, so a mutation that leaves ``⌊α·|D|⌋`` unchanged keeps its plans)
   skips re-planning, and execution reuses compiled mask programs
   through the ``program_cache_capacity`` setting of :mod:`repro.config`
   (raised by the server unless already configured);
4. everything is **observable** through
   :class:`~repro.serving.stats.ServingStats`.

Resilience: a fault anywhere below the server costs served α or latency,
never correctness or availability.  Cache backends are consulted through
guarded wrappers — an erroring backend (or the ``serving.cache.get`` /
``serving.cache.put`` fault sites) is treated as a miss and counted, and
the request recomputes.  When the process-executor circuit breaker
(:func:`repro.relational.parallel.breaker_state`) is open or probing, the
server steps served α one extra rung down (the *degraded-mode ladder*) so
requests riding the slower thread fallback cost proportionally less; the
envelope reports ``degraded_reason`` and any dispatch retries spent.

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
from ..core.framework import Beas, QueryLike
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
        result_cache / plan_cache: a :class:`CacheBackend` instance, a
            registered backend name, or ``None`` for an
            :class:`~repro.serving.cache.LRUTTLCache`.
        admission: a preconfigured :class:`AdmissionController`; ``None``
            builds one with the default concurrency target and the
            ``admission_policy`` setting (:mod:`repro.config`).
        stats: a :class:`ServingStats` to record into; ``None`` builds one.
        max_entries / ttl_seconds: forwarded when caches are built from a
            name or the default (ignored for instances).
        program_cache_capacity: compiled-mask-program cache size to enable
            at construction; only applied when the process-wide setting
            is still 0 (never shrinks a capacity someone already set).
            ``None`` leaves the setting alone.
    """

    def __init__(
        self,
        beas: Beas,
        result_cache: object = None,
        plan_cache: object = None,
        admission: Optional[AdmissionController] = None,
        stats: Optional[ServingStats] = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        ttl_seconds: Optional[float] = None,
        program_cache_capacity: Optional[int] = DEFAULT_PROGRAM_CACHE_CAPACITY,
    ) -> None:
        self.beas = beas
        self.result_cache: CacheBackend = make_cache(result_cache, max_entries, ttl_seconds)
        self.plan_cache: CacheBackend = make_cache(plan_cache, max_entries, ttl_seconds)
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
        if envelope.dispatch_retries:
            self.stats.count("dispatch_retries", envelope.dispatch_retries)
        if envelope.degraded_reason is not None:
            self.stats.count(f"degraded[{envelope.degraded_reason}]")
        return envelope

    # -- resilience helpers ------------------------------------------------------
    def _cache_get(self, cache, key, kind: str):
        """Guarded cache read: an erroring backend is a miss, never a failure."""
        try:
            if faults.inject("serving.cache.get"):
                raise FaultInjectedError(f"injected {kind}-cache get fault")
            return cache.get(key)
        except Exception:
            self.stats.count(f"{kind}_cache_errors")
            return MISSING

    def _cache_put(self, cache, key, value, kind: str) -> None:
        """Guarded cache write: a failed put only costs the next request."""
        try:
            if faults.inject("serving.cache.put"):
                raise FaultInjectedError(f"injected {kind}-cache put fault")
            cache.put(key, value)
        except Exception:
            self.stats.count(f"{kind}_cache_errors")

    def _breaker_degrade(self, alpha: float, served_alpha: float):
        """One extra ladder rung while the process executor is unhealthy.

        Returns ``(served_alpha, reason)``.  Only the process executor
        routes through the breaker; when it is open (cooling down) or
        half-open (probing), computation rides the slower thread fallback —
        so the server halves the served α (floored at the admission
        ladder's bottom rung) to keep per-request cost bounded, exactly the
        paper's accuracy-for-resources trade applied to failure instead of
        load.
        """
        if config.current().shard_executor != "process":
            return served_alpha, None
        state = parallel.breaker_state()["state"]
        if state == "closed":
            return served_alpha, None
        floor = alpha * self.admission.ladder[-1]
        stepped = max(floor, served_alpha / 2.0)
        if stepped >= served_alpha:
            return served_alpha, None
        return stepped, f"executor-breaker-{state}"

    def _serve_admitted(self, query, alpha, ticket, enforce_budget, start):
        """The cache-then-compute path, run while holding an admission slot."""
        ast, fingerprint = self.beas._resolve(query)
        epoch = self.beas.database.publication_epoch
        served_alpha = ticket.served_alpha
        degraded_reason = "admission-load" if ticket.degraded else None
        served_alpha, breaker_reason = self._breaker_degrade(alpha, served_alpha)
        if breaker_reason is not None:
            degraded_reason = breaker_reason
        degraded = degraded_reason is not None

        result_key = (fingerprint, served_alpha, enforce_budget, epoch)
        cached = self._cache_get(self.result_cache, result_key, "result")
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

        budget = self.beas.database.budget_for(served_alpha)
        # No epoch term: a BoundedPlan is a function of the query shape and
        # the access budget alone, so plans survive mutations that leave
        # ⌊α·|D|⌋ unchanged.  Results stay epoch-keyed above.
        plan_key = (fingerprint, budget)
        plan = self._cache_get(self.plan_cache, plan_key, "plan")
        plan_hit = plan is not MISSING
        if not plan_hit:
            plan = None

        # Router counters are process-global, so under concurrent requests
        # the delta attributes overlapping submissions to whichever request
        # reads last — good enough for the envelope's observability role.
        before = parallel.affinity_stats()
        retries_before = parallel.dispatch_stats()["retries"]
        result = self.beas._answer_ast(ast, fingerprint, served_alpha, enforce_budget, plan)
        after = parallel.affinity_stats()
        retries_after = parallel.dispatch_stats()["retries"]
        if not plan_hit:
            self._cache_put(self.plan_cache, plan_key, result.plan, "plan")
        self._cache_put(self.result_cache, result_key, result, "result")
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
            affinity_hits=after["hits"] - before["hits"],
            affinity_misses=after["steals"] - before["steals"],
            degraded_reason=degraded_reason,
            dispatch_retries=retries_after - retries_before,
        )

    # -- maintenance --------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop every cached result, plan and statement (stats are kept)."""
        self.result_cache.clear()
        self.plan_cache.clear()
        self.beas.statements.cache_clear()

    def cache_info(self) -> dict:
        """Result- and plan-cache internals plus the live admission load.

        The ``dispatch`` section (retry/timeout counters and the breaker
        snapshot) and the ``faults`` section (active fault-plan fire
        counts, ``None`` when no plan is installed) make one call enough to
        diagnose a degraded server.
        """
        memo = self.beas.statements.cache_info()
        return {
            "result_cache": self.result_cache.info(),
            "plan_cache": self.plan_cache.info(),
            "statements": {"size": memo.currsize, "capacity": memo.maxsize, "hits": memo.hits, "misses": memo.misses},
            "in_flight": self.admission.in_flight,
            "policy": self.admission.policy,
            "max_concurrency": self.admission.max_concurrency,
            "program_cache": predicates.program_cache_info(),
            "affinity": parallel.affinity_stats(),
            "dispatch": parallel.dispatch_stats(),
            "faults": faults.fault_stats(),
        }
