"""Cache backends for the query-serving layer.

The serving facade keeps two caches — answered :class:`~repro.core.framework.QueryResult`\\s
and compiled :class:`~repro.core.plan.BoundedPlan`\\s — behind one small
backend contract, mirroring how storage layouts sit behind
:func:`repro.relational.store.register_backend`.  A backend is a bounded
key/value map; the *keys* carry all the invalidation logic (they embed the
database's publication epoch, so entries computed before a mutation simply
stop being looked up — see ``serving/README.md``), which keeps the backend
contract tiny and dependency-free.

Backends ship in-tree:

``lru-ttl``
    The default: a thread-safe least-recently-used map with optional
    time-to-live expiry.

``none``
    A null cache that stores nothing — every lookup misses.  Selecting it
    turns caching off without any conditional code in the server.

Third parties register their own (memcached, disk, ...) with
:func:`register_cache_backend`.  A server names its backends itself
(``QueryServer(result_cache=...)``, resolved by
:func:`make_cache`); the cache is not among the process-wide settings of
:mod:`repro.config`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple, Type

# Sentinel distinguishing "not cached" from a cached ``None``.
MISSING = object()

DEFAULT_MAX_ENTRIES = 1024


class CacheBackend:
    """Contract every serving cache backend implements.

    Constructors must accept the uniform keyword signature
    ``(max_entries=..., ttl_seconds=...)`` so the server can instantiate any
    registered backend from configuration alone.  Implementations must be
    safe under concurrent access — the serving layer calls them from many
    request threads.
    """

    backend = "?"

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        ttl_seconds: Optional[float] = None,
    ) -> None:
        raise NotImplementedError

    def get(self, key: object) -> object:
        """The cached value for ``key``, or :data:`MISSING`."""
        raise NotImplementedError

    def put(self, key: object, value: object) -> None:
        """Store ``value`` under ``key`` (evicting as needed)."""
        raise NotImplementedError

    def invalidate(self, key: object) -> bool:
        """Drop one entry; returns whether it was present."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop every entry."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def info(self) -> dict:
        """Size / capacity / hit counters, for observability snapshots."""
        raise NotImplementedError


class LRUTTLCache(CacheBackend):
    """Bounded in-memory LRU cache with optional per-entry TTL expiry.

    Eviction is least-recently-used once ``max_entries`` is reached; when
    ``ttl_seconds`` is set, entries older than the TTL expire lazily at
    lookup time *and* are swept first on overflow — a ``put`` that would
    evict only discards a live entry after every dead one is gone (TTL is
    measured on the monotonic clock, so wall-clock jumps cannot resurrect
    or mass-expire entries).  All operations take one internal
    lock — the critical sections are a handful of dict operations, far
    cheaper than the plan/execute work the cache saves.
    """

    backend = "lru-ttl"

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        ttl_seconds: Optional[float] = None,
    ) -> None:
        max_entries = int(max_entries)
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0, got {ttl_seconds}")
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self._lock = threading.Lock()
        self._entries: "OrderedDict[object, Tuple[float, object]]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    def get(self, key: object) -> object:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return MISSING
            stamp, value = entry
            if (
                self.ttl_seconds is not None
                and time.monotonic() - stamp > self.ttl_seconds
            ):
                del self._entries[key]
                self._expirations += 1
                self._misses += 1
                return MISSING
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: object, value: object) -> None:
        with self._lock:
            now = time.monotonic()
            self._entries[key] = (now, value)
            self._entries.move_to_end(key)
            if len(self._entries) > self.max_entries and self.ttl_seconds is not None:
                # On overflow, drop dead entries before sacrificing live
                # ones: TTL-expired entries would never be served again
                # anyway, and counting them as expirations (not evictions)
                # keeps the two counters meaningful.
                expired = [
                    entry_key
                    for entry_key, (stamp, _) in self._entries.items()
                    if now - stamp > self.ttl_seconds
                ]
                for entry_key in expired:
                    del self._entries[entry_key]
                    self._expirations += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def invalidate(self, key: object) -> bool:
        with self._lock:
            return self._entries.pop(key, MISSING) is not MISSING

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def info(self) -> dict:
        with self._lock:
            return {
                "backend": self.backend,
                "size": len(self._entries),
                "max_entries": self.max_entries,
                "ttl_seconds": self.ttl_seconds,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "expirations": self._expirations,
            }


class NullCache(CacheBackend):
    """A cache that caches nothing — every ``get`` misses, ``put`` is a no-op.

    Selecting it (``QueryServer(result_cache="none")``) disables caching
    uniformly: the server code path is identical, only nothing is ever
    found.
    """

    backend = "none"

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        ttl_seconds: Optional[float] = None,
    ) -> None:
        self._misses = 0

    def get(self, key: object) -> object:
        self._misses += 1
        return MISSING

    def put(self, key: object, value: object) -> None:
        pass

    def invalidate(self, key: object) -> bool:
        return False

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def info(self) -> dict:
        return {
            "backend": self.backend,
            "size": 0,
            "max_entries": 0,
            "ttl_seconds": None,
            "hits": 0,
            "misses": self._misses,
            "evictions": 0,
            "expirations": 0,
        }


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------

_CACHE_BACKENDS: Dict[str, Type[CacheBackend]] = {
    LRUTTLCache.backend: LRUTTLCache,
    NullCache.backend: NullCache,
}


def register_cache_backend(name: str, cache_class: Type[CacheBackend]) -> None:
    """Register a third-party :class:`CacheBackend` subclass under ``name``."""
    if not name:
        raise ValueError("cache backend name must be non-empty")
    _CACHE_BACKENDS[name] = cache_class


def list_cache_backends() -> Tuple[str, ...]:
    """Names of all registered cache backends (in registration order)."""
    return tuple(_CACHE_BACKENDS)


def cache_backend_class(name: str) -> Type[CacheBackend]:
    """The :class:`CacheBackend` subclass registered under ``name``."""
    try:
        return _CACHE_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown cache backend {name!r}; available: {sorted(_CACHE_BACKENDS)}"
        ) from None


def make_cache(
    spec: object = None,
    max_entries: int = DEFAULT_MAX_ENTRIES,
    ttl_seconds: Optional[float] = None,
) -> CacheBackend:
    """Resolve a cache spec to a live backend instance.

    ``None`` builds an :class:`LRUTTLCache`; a string builds that registered
    backend (``"none"`` disables caching); a :class:`CacheBackend` instance is
    returned as-is (``max_entries`` / ``ttl_seconds`` are ignored for
    instances — they were fixed at construction).
    """
    if isinstance(spec, CacheBackend):
        return spec
    if spec is None:
        spec = LRUTTLCache.backend
    if not isinstance(spec, str):
        raise ValueError(
            f"cache spec must be None, a backend name, or a CacheBackend "
            f"instance, got {type(spec).__name__}"
        )
    return cache_backend_class(spec)(max_entries=max_entries, ttl_seconds=ttl_seconds)
