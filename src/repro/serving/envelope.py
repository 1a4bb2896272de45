"""The response envelope the serving facade wraps every answer in.

A served answer needs more context than a bare
:class:`~repro.core.framework.QueryResult`: the client asked for one α but
admission control may have *served* another; the answer may have come from
cache (so its timings describe a past execution); and the cache key's
publication epoch says which version of the database it answers for.  The
envelope records all of it, so a client can always tell exactly what
guarantee its rows carry — the served α and its η bound, per the paper's
contract that approximation quality is *reported*, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.framework import QueryResult
from ..relational.relation import Relation


@dataclass(frozen=True)
class ServingEnvelope:
    """One served answer plus everything the serving layer decided about it.

    Attributes:
        result: the underlying :class:`QueryResult` (possibly shared with
            other envelopes when served from cache — treat as read-only).
        requested_alpha: the resource ratio the client asked for.
        served_alpha: the ratio the answer was computed at; lower than
            ``requested_alpha`` exactly when admission degraded the query.
        eta: the RC-accuracy bound of the served answer (``result.eta``,
            surfaced for convenience — it bounds accuracy at *served_alpha*).
        fingerprint: canonical query fingerprint used for cache keying.
        publication_epoch: the database epoch the answer was computed
            against; a mutation after this epoch means fresher answers
            exist (and will be computed on the next request, since the
            epoch is part of the cache key).
        result_cache_hit / plan_cache_hit: whether the answer came from the
            result cache / the plan from the engine's plan memo
            (:meth:`Beas._memo_plan`).  ``plan_cache_hit`` is always
            ``False`` on a result hit (the memo is not consulted).
        degraded: whether the served α is lower than the requested one —
            stepped down by admission load (a fault never lowers it).
        degraded_reason: why (``None`` when not degraded):
            ``"admission-load"`` for the degrade-alpha admission ladder.
        wait_seconds: time spent queued for admission (``queue`` policy).
        serve_seconds: total wall-clock time inside the server for this
            request, including admission wait and cache lookups.
    """

    result: QueryResult
    requested_alpha: float
    served_alpha: float
    eta: float
    fingerprint: str
    publication_epoch: int
    result_cache_hit: bool
    plan_cache_hit: bool
    degraded: bool
    wait_seconds: float
    serve_seconds: float
    degraded_reason: "str | None" = None

    @property
    def rows(self) -> Relation:
        """The answer tuples ``ξ_α(D)`` (shared with ``result`` — read-only)."""
        return self.result.rows

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        source = "cache" if self.result_cache_hit else "computed"
        return (
            f"ServingEnvelope({len(self.rows)} rows, {source}, "
            f"alpha={self.served_alpha:g}/{self.requested_alpha:g}, "
            f"eta={self.eta:.3f}, epoch={self.publication_epoch})"
        )
