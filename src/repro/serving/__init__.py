"""Query-serving subsystem: caching, admission control, observability.

The batch API (:class:`repro.Beas`) answers one query at a time; this
package wraps it into a long-lived, concurrency-safe server.  See
``README.md`` in this directory for the architecture, the anatomy of the
cache keys (and why publication epochs make invalidation automatic), and
the α-degradation ladder.

Quick start::

    from repro.serving import QueryServer

    server = QueryServer(beas)
    envelope = server.serve("SELECT ...", alpha=0.1)
    envelope.rows          # the answer
    envelope.served_alpha  # may be < 0.1 under degrade-alpha load
    envelope.eta           # accuracy bound at the served alpha
"""

from .admission import (
    ADMISSION_POLICIES,
    ALPHA_DEGRADE_LADDER,
    DEFAULT_MAX_CONCURRENCY,
    AdmissionController,
    AdmissionTicket,
)
from .cache import (
    DEFAULT_MAX_ENTRIES,
    MISSING,
    CacheBackend,
    LRUTTLCache,
    NullCache,
    make_cache,
)
from .envelope import ServingEnvelope
from .server import QueryServer
from .stats import ServingStats, percentile

__all__ = [
    "ADMISSION_POLICIES",
    "ALPHA_DEGRADE_LADDER",
    "DEFAULT_MAX_CONCURRENCY",
    "DEFAULT_MAX_ENTRIES",
    "MISSING",
    "AdmissionController",
    "AdmissionTicket",
    "CacheBackend",
    "LRUTTLCache",
    "NullCache",
    "QueryServer",
    "ServingEnvelope",
    "ServingStats",
    "make_cache",
    "percentile",
]
