"""Serving observability: counters, latency percentiles, served-α histogram.

One :class:`ServingStats` instance rides inside each
:class:`~repro.serving.server.QueryServer` and records every request —
cache hits and misses for both caches, admission outcomes (queue waits,
α degradations), per-query wall-clock latency and the
histogram of α values actually served.  :meth:`ServingStats.snapshot`
renders the whole state as one plain dict, which is exactly what the
concurrency harness (``benchmarks/bench_serving.py``) embeds in the
``serving`` section of ``BENCH_kernels.json``.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence

# Latency samples kept for percentile estimation: a ring buffer over the
# most recent requests.  Counters keep counting past the cap; only the
# percentile window is bounded.
DEFAULT_MAX_LATENCY_SAMPLES = 100_000


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile (0 < q <= 1) of ``samples`` by nearest-rank.

    Returns ``None`` on an empty sample set; nearest-rank keeps the result
    an actual observed latency (no interpolation), the convention QPS
    benchmarks usually report.
    """
    if not 0 < q <= 1:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q))
    return ordered[rank - 1]


class ServingStats:
    """Thread-safe counters and timings for one serving facade.

    All mutation goes through :meth:`record_request` / :meth:`count`; reads
    go through :meth:`snapshot`.  The lock only guards plain counter and
    list updates, never query execution.
    """

    def __init__(self, max_latency_samples: int = DEFAULT_MAX_LATENCY_SAMPLES) -> None:
        max_latency_samples = int(max_latency_samples)
        if max_latency_samples < 1:
            raise ValueError(
                f"max_latency_samples must be >= 1, got {max_latency_samples}"
            )
        self.max_latency_samples = max_latency_samples
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._latencies: List[float] = []
        self._latency_pos = 0
        self._wait_seconds_total = 0.0
        self._served_alpha_hist: Dict[float, int] = {}

    def count(self, name: str, increment: int = 1) -> None:
        """Bump one named counter (creates it at 0 on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + increment

    def record_request(
        self,
        seconds: float,
        served_alpha: float,
        result_cache_hit: bool,
        plan_cache_hit: bool,
        degraded: bool,
        wait_seconds: float = 0.0,
    ) -> None:
        """Record one served request end to end.

        Latency samples land in a ring buffer holding the *most recent*
        ``max_latency_samples`` observations, so the reported percentiles
        track a sliding window rather than freezing on the first samples
        ever taken.
        """
        with self._lock:
            self._counters["requests"] = self._counters.get("requests", 0) + 1
            key = "result_cache_hits" if result_cache_hit else "result_cache_misses"
            self._counters[key] = self._counters.get(key, 0) + 1
            if not result_cache_hit:
                # The plan memo is only consulted on a result miss.
                key = "plan_cache_hits" if plan_cache_hit else "plan_cache_misses"
                self._counters[key] = self._counters.get(key, 0) + 1
            if degraded:
                self._counters["degraded"] = self._counters.get("degraded", 0) + 1
            if wait_seconds > 0:
                self._counters["queued"] = self._counters.get("queued", 0) + 1
                self._wait_seconds_total += wait_seconds
            if len(self._latencies) < self.max_latency_samples:
                self._latencies.append(seconds)
            else:
                # Ring buffer: overwrite the oldest sample so percentiles
                # reflect the latest window, not the first 100k requests.
                self._latencies[self._latency_pos] = seconds
                self._latency_pos = (self._latency_pos + 1) % self.max_latency_samples
            self._served_alpha_hist[served_alpha] = (
                self._served_alpha_hist.get(served_alpha, 0) + 1
            )

    def snapshot(self) -> dict:
        """Render all counters, percentiles and the served-α histogram.

        The returned dict is JSON-serializable (histogram keys become
        strings) and detached from live state — mutating it cannot corrupt
        the stats, and the stats continuing to move cannot mutate it.
        """
        with self._lock:
            counters = dict(self._counters)
            latencies = list(self._latencies)
            hist = dict(self._served_alpha_hist)
            wait_total = self._wait_seconds_total
        requests = counters.get("requests", 0)
        hits = counters.get("result_cache_hits", 0)
        return {
            "counters": counters,
            "result_cache_hit_rate": (hits / requests) if requests else 0.0,
            "latency_seconds": {
                "samples": len(latencies),
                "p50": percentile(latencies, 0.50),
                "p95": percentile(latencies, 0.95),
                "p99": percentile(latencies, 0.99),
                "max": max(latencies) if latencies else None,
            },
            "queue_wait_seconds_total": wait_total,
            "served_alpha_histogram": {
                repr(alpha): count for alpha, count in sorted(hist.items())
            },
        }
