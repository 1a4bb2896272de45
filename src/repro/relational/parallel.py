"""Process-parallel shard execution: shards published as files, one router.

The sharded backend runs its per-shard work (:meth:`ShardedStore.map_shards`
/ :meth:`ShardedStore.eval_mask`) in the caller.  This module is the other
execution mode behind the ``shard_executor`` setting (:mod:`repro.config`):
worker processes that map each shard's column buffers from a file and run
one operation on it, the fused select+gather.  There is one of each
mechanism:

* **Publication = files.**  The first process-mode query against a sharded
  store builds its :class:`ShardPublication`: one ``.rpro`` file per shard
  (:mod:`repro.relational.mmapstore`).  A shard that already lives in a
  mapped file hands out that file; any other shard (column, row, nested
  sharded) is written once, without an fsync, as a ``pub-*`` file under
  :func:`~repro.relational.mmapstore.get_store_dir`.  Every handle has one
  shape, ``(token, path)``: workers :meth:`MmapStore.open
  <repro.relational.mmapstore.MmapStore.open>` the path — typed columns are
  read in place through the page cache, nothing is copied or decoded — and
  keep the mapped store in a per-process LRU cache keyed by the token, which
  also pins the file's identity (inode, mtime, size).  A store whose object
  values do not pickle is remembered as unpublishable and stays in the
  caller.
* **Invalidation** is by replacement: mutating a sharded store retires its
  publication (the files it wrote are unlinked; see
  :meth:`ShardedStore._retire_publication`), as do garbage collection of
  the store, :func:`shutdown` and interpreter exit, and the next query
  publishes fresh files under new names.  The worker's store cache is keyed
  by token, so a stale entry can never answer a query; it ages out of the
  LRU.
* **Start method: forkserver, never fork.**  Pools are created lazily, so
  the parent may run threads by then (a server's request threads), and a
  child forked from a threaded parent can inherit a lock held by a thread
  that does not exist in the child and wait on it forever.  Workers
  therefore fork from the single-threaded forkserver,
  which preloads this package once so a respawn costs about what a fork
  does; platforms without forkserver use ``spawn``.
* **Dispatch = the affinity router.**  The :class:`_AffinityRouter` keeps
  one dedicated single-worker queue (*slot*) per configured worker and
  routes every task by **rendezvous hashing** its handle token — the home
  slot is the argmax over slots of ``blake2b(token | slot index | slot
  generation)``, deterministic across processes and hash seeds.  Each
  shard's mapped store therefore lives on exactly one warm worker across
  queries.  Overflow **work-stealing** keeps slots busy when shards
  outnumber workers: a task whose home slot already has a queue is diverted
  to an idle slot (any worker can resolve any handle — stealing costs cache
  warmth, never correctness).  Routing counters are exposed through
  :func:`affinity_stats`.
* **Retire = kill.**  A slot whose worker died (``BrokenProcessPool``) or
  overran the dispatch deadline is repaired alone: its pool is retired by
  :func:`_retire_pool` — shut down, then the worker process killed and
  joined, because ``shutdown(wait=False)`` merely abandons a running task
  and a wedged worker would otherwise outlive the deadline and block
  interpreter exit — and its *generation* is bumped, which re-draws that
  slot's rendezvous scores: tokens only ever move from or to the repaired
  slot.  :func:`shutdown` and :func:`reset_process_pool` (a full re-hash)
  retire slots with work in flight the same way.
* **Settings travel by value.**  A worker imports the package afresh, so
  every pool's initializer receives the parent's
  :class:`~repro.config.Config` and installs it unchanged; the worker flag
  (``_IN_PROCESS_WORKER``) alone keeps a worker from dispatching further.
  Changing a setting the workers read (``checksum_mode``) or the pool width
  (``shard_workers``) retires the router, so no worker outlives the
  settings it was spawned with; the
  settings this module reads — ``process_min_rows``, ``retry_backoff``,
  ``breaker_cooldown`` — are documented in :mod:`repro.config`.

**One operation ships: the fused select+gather.**  A worker runs exactly one
kind of shard task, :func:`_worker_select_gather` — the one whole-shard
operation whose reply (a mask plus the surviving rows) is smaller than its
input.  :func:`process_select_gather` sends each shard's worker ``(pickled
masker, output column positions, optional per-shard α-budget slice
⌈α·|shard|⌉)`` and receives ``(mask bytes, packed typed-column payloads)`` —
the gathered buffers in :func:`_encode_buffer` form, typed ``array``
columns as raw bytes — so a select→gather crosses the process boundary
exactly once per shard.  Workers short-circuit the payload (``None``) when
every row survives or there is nothing to gather; budget slices truncate
with the same :func:`~repro.relational.store._truncate_mask` the caller's
path uses.  :meth:`ShardedStore.select_gather` adopts the returned buffers
as fresh column stores; :func:`select_gather_stats` accounts the round-trip
bytes.  Everything else a sharded store does — bare masks, gathers,
distance-kernel and KD-tree probes — runs in the parent, in the caller.
Those used to ship as well; on the benchmark's ``tfacc_sharded`` workload
(``cpu_count`` 2, one full pass) the fused operator was called 309 times
and shipped 43, while the mask round-trip (266 calls), kernel radius
batches (5) and nearest-neighbour / KD batches (0) never shipped and the
gather shipped once, and running all of them in the parent left the pass
time and every answer unchanged.

**Fallbacks.**  Everything here degrades to the caller: the parent returns
``None`` (and the caller computes the answer itself) when the store is
smaller than the ``process_min_rows`` setting, when the work, its parameters
or the store's object values fail to pickle, when called from inside a
worker (no nested pools), or after repeated pool failures (the circuit
breaker).  Results are bit-identical across ``"serial"`` and ``"process"``
modes — the cross-backend conformance matrix and the hypothesis properties
in ``tests/test_parallel.py`` enforce this.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import threading
import time
import weakref
from array import array
from collections import OrderedDict
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FuturesTimeoutError
from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import config, faults
from ..errors import CorruptShardError
from .mmapstore import MmapStore, forget_anonymous, write_anonymous
from .store import (
    ColumnStore,
    Store,
    _KIND_EMPTY,
    _KIND_FLOAT,
    _KIND_INT,
    _KIND_OBJECT,
    _truncate_mask,
)

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

# A published shard: ``(token, path)`` of the ``.rpro`` file workers map.
# The token keys the worker-side store cache and the router's rendezvous hash.
Handle = Tuple[str, str]

# Fixed bounds of the dispatch path, read at call time (the fault tests
# shrink them with ``monkeypatch.setattr``).  ``DISPATCH_RETRIES`` is the
# number of extra submission rounds a failed per-shard dispatch may retry on
# alternate slots; ``DISPATCH_DEADLINE`` the seconds one round may wait for
# its shard results, so a wedged worker stalls a query for at most
# ``deadline × (1 + retries)`` before the caller answers it itself;
# ``PROBE_TIMEOUT`` the seconds :func:`probe_process_executor` and
# :func:`worker_cache_stats` wait for a round trip, so a pool that wedges
# during spawn trips the breaker promptly instead of stalling the caller.
DISPATCH_RETRIES = 2
DISPATCH_DEADLINE = 30.0
PROBE_TIMEOUT = 10.0


# benchmarks/e2e calls this name (``None`` = the default); it goes when the
# benchmark's own PR re-points it at ``configure``.
def set_process_min_rows(count: Optional[int]) -> int:
    return config.configure(process_min_rows=count).process_min_rows


# ---------------------------------------------------------------------------
# Result codec: gathered column buffers on the trip back
# ---------------------------------------------------------------------------

_TYPECODE_KINDS = {"d": _KIND_FLOAT, "q": _KIND_INT}


def _encode_buffer(buffer: Sequence[object]) -> Tuple[str, Optional[str], object]:
    """Encode one gathered column buffer for the result trip back."""
    if isinstance(buffer, array):
        return ("arr", buffer.typecode, buffer.tobytes())
    return ("obj", None, list(buffer))


def _decode_buffer(encoded: Tuple[str, Optional[str], object]) -> Sequence[object]:
    tag, typecode, data = encoded
    if tag == "arr":
        buf = array(typecode)
        buf.frombytes(data)
        return buf
    return list(data)


# ---------------------------------------------------------------------------
# Publication: one mapped file per shard
# ---------------------------------------------------------------------------

_publish_lock = threading.Lock()

# Live publications, so shutdown() can unlink the files they wrote without
# knowing which stores hold them.
_publications: "weakref.WeakSet[ShardPublication]" = weakref.WeakSet()


def _forget_files(paths: Sequence[str]) -> None:
    for path in paths:
        forget_anonymous(path)


class ShardPublication:
    """A sharded store's shards as files worker processes can map.

    Created lazily by :func:`publication_for` on the first process-mode
    query and owned by the store (``ShardedStore._publication``).  A mapped
    :class:`~repro.relational.mmapstore.MmapStore` shard hands out its own
    file, which stays the store's; every other shard is written once by
    :func:`~repro.relational.mmapstore.write_anonymous`, and those files are
    unlinked when the publication retires — on mutation of the store, its
    garbage collection, :func:`shutdown` or interpreter exit.
    """

    __slots__ = ("handles", "written", "_finalizer", "__weakref__")

    def __init__(self, store: Store) -> None:
        handles: List[Handle] = []
        written: List[str] = []
        try:
            for shard in store.shards:
                handle = shard.file_handle() if isinstance(shard, MmapStore) else None
                if handle is None:
                    handle = write_anonymous(shard)
                    written.append(handle[1])
                handles.append(handle)
        except Exception:
            # A shard that cannot be written (an unpicklable value in an
            # object column) must not leak the siblings written before it.
            _forget_files(written)
            raise
        self.handles = handles
        self.written = written  # paths of the files this publication owns
        # GC of an unretired publication must not leak files either; the
        # finalizer is the one idempotent release path retire() shares.
        self._finalizer = weakref.finalize(self, _forget_files, written)

    def retire(self) -> None:
        """Unlink the files this publication wrote (idempotent)."""
        self._finalizer()


class _Unpublishable:
    """Sentinel publication for stores whose shards cannot be written.

    Remembered on the store so every later process-mode query skips
    straight to the caller's path instead of re-attempting (and re-failing)
    the per-shard encode.  Mutation clears it like any publication, so a
    store that sheds its unpicklable values becomes publishable again.
    """

    handles: Tuple[Handle, ...] = ()

    def retire(self) -> None:
        pass


_UNPUBLISHABLE = _Unpublishable()


def _publication_live(publication) -> bool:
    """Whether every file behind ``publication``'s handles still exists.

    :func:`shutdown` retires every live publication without telling the
    stores that hold them, and a dataset file can be deleted out from under
    a long-lived store; either way the store must republish (or fall back)
    rather than hand workers paths that only raise ENOENT.
    """
    return all(os.path.exists(path) for _token, path in publication.handles)


def publication_for(store: Store):
    """The store's live publication, created (or re-created) on first use.

    Returns ``None`` — the caller computes the answer itself — when the
    store's shards cannot be published (unpicklable object-column values);
    the failure is remembered until the next mutation.  A publication whose
    files were unlinked behind the store's back (a :func:`shutdown` between
    queries) is replaced with a fresh one.
    """
    publication = getattr(store, "_publication", None)
    if publication is not None and publication is not _UNPUBLISHABLE:
        if _publication_live(publication):
            return publication
    with _publish_lock:
        publication = store._publication
        if publication is _UNPUBLISHABLE:
            return None
        if publication is None or not _publication_live(publication):
            if publication is not None:
                publication.retire()
            try:
                publication = ShardPublication(store)
            except Exception:  # repro: ignore[EXC001] unpublishable payload is remembered; callers compute in place
                store._publication = _UNPUBLISHABLE
                return None
            _publications.add(publication)
            store._publication = publication
            if faults.inject("parallel.publish.unlink"):
                # Simulated unlink race: one freshly published file vanishes
                # before any worker maps it.  Workers then hit
                # FileNotFoundError, dispatch strikes the breaker and falls
                # back; the next query notices the dead handle via
                # _publication_live and republishes.
                _forget_files(publication.written[:1])
    return publication


# ---------------------------------------------------------------------------
# Process pool lifecycle
# ---------------------------------------------------------------------------

_router = None  # the live _AffinityRouter, created on first use
_pool_lock = threading.Lock()

# -- circuit breaker state (all guarded by _pool_lock) -----------------------
# _pool_failures counts *consecutive* dispatch failures; at
# _MAX_POOL_FAILURES the breaker is OPEN: process dispatch is refused until
# the ``breaker_cooldown`` setting's seconds pass, after which exactly one dispatch is
# admitted HALF-OPEN as a recovery probe — success closes the breaker
# (counter reset), failure re-opens it and restarts the cooldown.  A healed
# pool therefore re-enables itself without anyone calling
# reset_process_pool(), which used to be the only way back.
_pool_failures = 0
_MAX_POOL_FAILURES = 3
_breaker_opened_at: Optional[float] = None
_breaker_probe_inflight = False
_breaker_trips = 0
_breaker_recoveries = 0

# Monotonic pool-incarnation counter: each spawned slot pool gets the next
# value as its worker's fault-plan nonce, so a repaired worker's
# injected-fault draws differ from its dead predecessor's — a kill/heal
# cycle terminates instead of re-killing every replacement.
_pool_incarnation = 0
_cleanup_registered = False

# Set by the worker initializer: worker processes must never publish or
# spawn nested pools.
_IN_PROCESS_WORKER = False


_cleanup_lock = threading.Lock()


def _register_cleanup() -> None:
    """Register the single process-wide cleanup hook (:func:`shutdown`)."""
    global _cleanup_registered
    with _cleanup_lock:
        if not _cleanup_registered:
            _cleanup_registered = True
            atexit.register(shutdown)


def shutdown() -> None:
    """Stop every worker and unlink every published file.

    Registered once with :mod:`atexit` on first use; safe to call directly
    (e.g. by a benchmark harness) — the next process-mode query republishes
    and starts fresh workers.  Returns promptly even with a task in flight:
    that worker is killed, not waited for.
    """
    reset_process_pool()
    with _publish_lock:
        live = list(_publications)
    for publication in live:
        publication.retire()


def reset_process_pool() -> None:
    """Retire the router so the next query re-creates it as configured.

    Called when a setting the workers carry changes (:func:`_on_configure`)
    and by :func:`repro.faults.set_fault_plan`; publications stay alive
    (they are sized by the data, not the pool).  Discarding the router is
    the *full re-hash*: the replacement starts with fresh slots at
    generation zero, so every token is rendezvous-scored anew.
    """
    global _router
    with _pool_lock:
        stale, _router = _router, None
    if stale is not None:
        stale.close()


def _on_configure(previous: config.Config, new: config.Config) -> None:
    """Retire the router when what it was built from changes.

    That is the one setting its workers read (``checksum_mode``) and its
    width (``shard_workers``, resolved); the workers the next dispatch
    spawns carry the new values.  Nothing else does: executor flips and
    threshold changes are parent-side decisions, so they keep the warm
    pools.
    """
    if (previous.checksum_mode, previous.worker_count) != (new.checksum_mode, new.worker_count):
        reset_process_pool()


config.subscribe(_on_configure)


_RETIRE_JOIN_SECONDS = 5.0


def _retire_pool(pool) -> None:
    """Shut down a pool whose running task will never be awaited.

    ``shutdown(wait=False, cancel_futures=True)`` cancels what is queued but
    only abandons the task a worker is running, so a wedged worker would
    live until it woke (never, for a real wedge) and block interpreter exit
    on ``concurrent.futures``' join.  The workers are killed instead.
    """
    # ProcessPoolExecutor grows kill_workers() only in 3.14; on 3.9-3.12 the
    # worker table is the private ``_processes`` dict (pid -> Process), which
    # shutdown() drops — so it is read first, and only here.
    workers = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for worker in workers:
        worker.kill()
    for worker in workers:
        worker.join(_RETIRE_JOIN_SECONDS)


def _mp_context():
    """The start method of every worker: ``forkserver``, else ``spawn``.

    Never ``fork``: pools are created lazily and respawned on repair, when
    the parent may run threads (a server's request threads), and a child
    forked then can wait forever on a lock some parent thread held at that
    instant.  The forkserver is single-threaded and
    imports this package once, so each later worker is a cheap fork of it.
    """
    import multiprocessing

    try:
        context = multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - platform without forkserver
        return multiprocessing.get_context("spawn")
    context.set_forkserver_preload(["__main__", __name__])
    return context


def _worker_initargs() -> Tuple[config.Config, Optional[str], str]:
    """Initializer arguments for a fresh pool's worker.

    Ships the parent's settings by value (a worker imports the package
    afresh and would otherwise run under the defaults), the active
    fault-plan spec (workers must run the same chaos the parent does) and
    this pool's incarnation number as the plan nonce (see
    :data:`_pool_incarnation`).
    """
    global _pool_incarnation
    with _pool_lock:
        _pool_incarnation += 1
        incarnation = _pool_incarnation
    return (config.current(), faults.active_spec(), str(incarnation))


_pool_create_lock = threading.Lock()


# ---------------------------------------------------------------------------
# Affinity router: sticky shard→worker routing over rendezvous hashing
# ---------------------------------------------------------------------------

# A home slot with this many tasks already in flight may overflow to an idle
# slot (work stealing).  Below it, tasks queue behind their home worker —
# keeping a shard's next query on the same warm cache is worth a short wait;
# a real backlog (shards ≫ workers) spills to whoever is free.
_STEAL_THRESHOLD = 2


class _AffinitySlot:
    """One dedicated worker queue of the router: a single-worker process pool.

    ``generation`` feeds the rendezvous score, so repairing a dead slot
    (which bumps it) re-draws only this slot's scores; ``inflight`` is the
    router's load signal for work stealing.
    """

    __slots__ = ("index", "pool", "inflight", "generation")

    def __init__(self, index: int) -> None:
        self.index = index
        self.pool = None  # created lazily on the first routed task
        self.inflight = 0
        self.generation = 0


class _AffinityRouter:
    """Rendezvous-hash table from publication token to dedicated worker slot.

    The home slot of a token is the slot maximizing
    ``blake2b(token | slot index | slot generation)`` — deterministic across
    processes and ``PYTHONHASHSEED`` values (``hash()`` is salted; a salted
    route table would scatter shards differently every run).  Resolved homes
    are memoized in ``_route_cache`` and the cache is dropped whenever any
    generation changes.

    Tokens never queue anywhere *but* their home unless the home already has
    :data:`_STEAL_THRESHOLD` tasks in flight and another slot is idle — then
    the overflow task is stolen by the least-loaded idle slot (counted in
    ``steals``; results are identical either way, the thief merely maps the
    file cold).  A dead or wedged worker repairs only its own slot via
    :meth:`repair`: the pool is retired (worker killed), the generation
    bumped — after which a token's assignment can change only *from* or *to*
    the repaired slot, because every other slot's scores are untouched.
    """

    def __init__(self, slot_count: int) -> None:
        self._slots = [_AffinitySlot(index) for index in range(slot_count)]
        self._lock = threading.Lock()
        self._route_cache: Dict[str, int] = {}
        self.hits = 0
        self.steals = 0
        self.rehashes = 0
        self.reroutes = 0

    @property
    def slot_count(self) -> int:
        return len(self._slots)

    @staticmethod
    def _score(token: str, slot: _AffinitySlot) -> bytes:
        payload = f"{token}|{slot.index}|{slot.generation}".encode("utf-8")
        return hashlib.blake2b(payload, digest_size=8).digest()

    def home_index(self, token: str) -> int:
        """The token's home slot index (memoized rendezvous argmax)."""
        with self._lock:
            cached = self._route_cache.get(token)
            if cached is not None:
                return cached
            best = max(self._slots, key=lambda slot: self._score(token, slot))
            self._route_cache[token] = best.index
            return best.index

    def submit(self, token: str, fn: Callable, *args) -> Tuple[object, _AffinitySlot]:
        """Submit ``fn(*args)`` onto the token's home slot (or steal)."""
        home = self._slots[self.home_index(token)]
        with self._lock:
            slot = home
            if home.inflight >= _STEAL_THRESHOLD and len(self._slots) > 1:
                idlest = min(self._slots, key=lambda s: (s.inflight, s.index))
                if idlest.inflight == 0:
                    slot = idlest
            if slot is home:
                self.hits += 1
            else:
                self.steals += 1
            pool = self._reserve_locked(slot)
        return self._finish_submit(slot, pool, fn, args)

    def submit_avoiding(
        self, token: str, avoid_index: int, fn: Callable, *args
    ) -> Tuple[object, _AffinitySlot]:
        """Submit onto the least-loaded slot that is *not* ``avoid_index``.

        The retry path's re-route: a task whose home slot just failed it
        (broken worker, deadline timeout) lands on a different, presumably
        healthy slot instead of queueing behind the repair.  With a single
        slot there is nothing to avoid and the home submit applies.
        """
        if len(self._slots) <= 1:
            return self.submit(token, fn, *args)
        with self._lock:
            candidates = [s for s in self._slots if s.index != avoid_index]
            slot = min(candidates, key=lambda s: (s.inflight, s.index))
            self.reroutes += 1
            pool = self._reserve_locked(slot)
        return self._finish_submit(slot, pool, fn, args)

    def _reserve_locked(self, slot: _AffinitySlot):
        """Claim one inflight unit on ``slot``; caller holds ``self._lock``."""
        slot.inflight += 1
        pool = slot.pool
        if pool is None:
            try:
                pool = slot.pool = self._create_pool()
            except Exception:
                slot.inflight -= 1
                raise
        return pool

    def _finish_submit(
        self, slot: _AffinitySlot, pool, fn: Callable, args: Tuple
    ) -> Tuple[object, _AffinitySlot]:
        """Submit outside the router lock (the done callback re-takes it)."""
        try:
            future = pool.submit(fn, *args)
        except Exception:
            with self._lock:
                slot.inflight -= 1
            raise
        future.add_done_callback(lambda _future, slot=slot: self._task_done(slot))
        return future, slot

    @staticmethod
    def _create_pool():
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=_mp_context(),
            initializer=_worker_init,
            initargs=_worker_initargs(),
        )

    def _task_done(self, slot: _AffinitySlot) -> None:
        with self._lock:
            slot.inflight = max(0, slot.inflight - 1)

    def repair(self, slot: _AffinitySlot) -> None:
        """Retire a dead or wedged slot's pool and re-draw its rendezvous scores."""
        with self._lock:
            stale, slot.pool = slot.pool, None
            slot.generation += 1
            slot.inflight = 0
            self.rehashes += 1
            self._route_cache.clear()
        if stale is not None:
            _retire_pool(stale)

    def close(self) -> None:
        """Stop every slot's worker (the router is dead afterwards).

        An idle worker exits on its own; one with a task in flight is
        killed, so closing never waits for a task.
        """
        with self._lock:
            stale = [
                (slot.pool, slot.inflight > 0)
                for slot in self._slots
                if slot.pool is not None
            ]
            for slot in self._slots:
                slot.pool = None
                slot.inflight = 0
            self._route_cache.clear()
        for pool, busy in stale:
            if busy:
                _retire_pool(pool)
            else:
                pool.shutdown(wait=True, cancel_futures=True)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "steals": self.steals,
                "rehashes": self.rehashes,
                "reroutes": self.reroutes,
                "slots": len(self._slots),
            }


def _ensure_router() -> _AffinityRouter:
    """The affinity router at the current worker count.

    Created lazily — one single-worker slot per configured worker, pools
    spawned on first routed task.  A worker-count change discards it via
    :func:`reset_process_pool` (full re-hash); slot-level failures repair in
    place instead.
    """
    global _router
    workers = config.current().worker_count
    with _pool_lock:
        if _router is not None and _router.slot_count == workers:
            return _router
    with _pool_create_lock:
        with _pool_lock:
            if _router is not None and _router.slot_count == workers:
                return _router
            stale, _router = _router, None
        if stale is not None:
            stale.close()
        router = _AffinityRouter(workers)
        _register_cleanup()
        with _pool_lock:
            _router = router
    return router


def affinity_stats() -> Dict[str, int]:
    """Parent-side routing counters (all zero until the router exists).

    ``hits`` counts tasks executed on their rendezvous home slot, ``steals``
    tasks diverted to an idle slot by work-stealing overflow, ``rehashes``
    slot repairs after worker deaths, ``slots`` the router width.  The
    counters are process-wide; :meth:`QueryServer.cache_info
    <repro.serving.server.QueryServer.cache_info>` reports them.
    """
    router = _router
    if router is None:
        return {"hits": 0, "steals": 0, "rehashes": 0, "reroutes": 0, "slots": 0}
    return router.stats()


def _strike_locked() -> None:
    """One consecutive-failure strike; caller holds ``_pool_lock``.

    Reaching the threshold (re)opens the breaker and (re)starts the
    cooldown — a failed half-open probe therefore waits a full cooldown
    before the next probe, instead of hammering a still-broken pool.
    """
    global _pool_failures, _breaker_opened_at, _breaker_trips
    _pool_failures += 1  # repro: ignore[STATE001] caller holds _pool_lock
    if _pool_failures >= _MAX_POOL_FAILURES:
        if _breaker_opened_at is None:
            _breaker_trips += 1  # repro: ignore[STATE001] caller holds _pool_lock
        _breaker_opened_at = time.monotonic()  # repro: ignore[STATE001] caller holds _pool_lock


def _breaker_strike() -> None:
    """One consecutive-failure strike that keeps healthy router slots warm."""
    with _pool_lock:
        _strike_locked()


def _breaker_allows() -> bool:
    """Whether process dispatch may be attempted right now.

    ``True`` while the breaker is closed, and for the half-open recovery
    window (cooldown elapsed, no probe already in flight).  Also stamps the
    open timestamp lazily when the failure counter was pushed over the
    threshold directly (tests do this to disable process mode) so the
    cooldown starts counting from the first refusal.
    """
    global _breaker_opened_at
    with _pool_lock:
        if _pool_failures < _MAX_POOL_FAILURES:
            return True
        now = time.monotonic()
        if _breaker_opened_at is None:
            _breaker_opened_at = now
            return False
        if now - _breaker_opened_at < config.current().breaker_cooldown:
            return False
        return not _breaker_probe_inflight


def _breaker_enter() -> Optional[str]:
    """Claim permission to dispatch: ``"closed"``, ``"probe"``, or ``None``.

    ``"closed"`` — breaker closed, dispatch normally (any number of
    concurrent holders).  ``"probe"`` — breaker was open, the cooldown
    elapsed, and this caller is the *single* half-open recovery probe.
    ``None`` — refused (open and cooling down, or a probe is already in
    flight); the caller computes in place.  Every non-``None`` token must
    be paired with exactly one :func:`_breaker_exit`.
    """
    global _breaker_opened_at, _breaker_probe_inflight
    with _pool_lock:
        if _pool_failures < _MAX_POOL_FAILURES:
            return "closed"
        now = time.monotonic()
        if _breaker_opened_at is None:
            _breaker_opened_at = now
            return None
        if now - _breaker_opened_at < config.current().breaker_cooldown:
            return None
        if _breaker_probe_inflight:
            return None
        _breaker_probe_inflight = True
        return "probe"


def _breaker_exit(token: Optional[str], success: Optional[bool]) -> None:
    """Release a :func:`_breaker_enter` token with a verdict.

    ``success=True`` closes the breaker (consecutive-failure counter back
    to zero; counted as a recovery when it was open), ``False`` strikes it,
    and ``None`` releases without a verdict — used when the dispatch
    neither proved nor disproved pool health (a concurrent reset cancelled
    it, or the computation itself raised an application error).
    """
    global _pool_failures, _breaker_opened_at, _breaker_probe_inflight
    global _breaker_recoveries
    if token is None:
        return
    with _pool_lock:
        if token == "probe":
            _breaker_probe_inflight = False
        if success is True:
            if _pool_failures >= _MAX_POOL_FAILURES:
                _breaker_recoveries += 1
            _pool_failures = 0
            _breaker_opened_at = None
        elif success is False:
            _strike_locked()


def breaker_state() -> Dict[str, object]:
    """The circuit breaker's observable state (a snapshot copy).

    ``state`` is ``"closed"`` (process dispatch allowed), ``"open"``
    (refused, cooling down — ``seconds_until_probe`` says for how much
    longer), or ``"half-open"`` (the next dispatch is admitted as a
    recovery probe).  ``trips``/``recoveries`` count open transitions and
    successful recoveries over the process lifetime.
    """
    with _pool_lock:
        failures = _pool_failures
        opened_at = _breaker_opened_at
        probing = _breaker_probe_inflight
        trips = _breaker_trips
        recoveries = _breaker_recoveries
        cooldown = config.current().breaker_cooldown
    if failures < _MAX_POOL_FAILURES:
        state = "closed"
        remaining = 0.0
    else:
        elapsed = 0.0 if opened_at is None else time.monotonic() - opened_at
        remaining = max(0.0, cooldown - elapsed)
        state = "open" if (remaining > 0 or probing) else "half-open"
    return {
        "state": state,
        "failures": failures,
        "threshold": _MAX_POOL_FAILURES,
        "cooldown_seconds": cooldown,
        "seconds_until_probe": remaining,
        "trips": trips,
        "recoveries": recoveries,
    }


def process_eligible(store: Store) -> bool:
    """Whether a whole-store computation on ``store`` should try the pool."""
    settings = config.current()
    return (
        not _IN_PROCESS_WORKER
        and len(getattr(store, "shards", ())) > 1
        and len(store) >= settings.process_min_rows
        and settings.worker_count > 1
        and _breaker_allows()
    )


def probe_process_executor() -> bool:
    """Whether a worker round-trip actually works on this platform.

    Spawns the probe token's home router slot if needed and runs one
    trivial task; used by test harnesses to decide whether process-mode legs
    are meaningful.  The wait is bounded by :data:`PROBE_TIMEOUT` — a
    pool that wedges during spawn trips the failure breaker and the probe
    reports ``False`` promptly instead of stalling the first query behind a
    60-second result wait.  When the breaker is open, a successful probe
    through the half-open window closes it again — the explicit recovery
    check harnesses can call.
    """
    if _IN_PROCESS_WORKER:
        return False
    token = _breaker_enter()
    if token is None:
        return False
    try:
        future, _slot = _ensure_router().submit("__probe__", _worker_ping)
        alive = bool(future.result(timeout=PROBE_TIMEOUT))
        _breaker_exit(token, alive)
        return alive
    except Exception:
        _breaker_exit(token, False)
        reset_process_pool()
        return False


# Cumulative dispatch-resilience accounting (parent side).  ``retries``
# counts re-submission rounds, ``timeouts`` futures abandoned at the
# dispatch deadline, ``reroutes`` tasks re-routed away from a failed slot,
# ``fallbacks`` dispatches that gave up to the caller, ``fatal``
# publication-level failures (vanished or corrupt shard file).
_dispatch_lock = threading.Lock()
_DISPATCH_COUNTS = {
    "retries": 0,
    "timeouts": 0,
    "fallbacks": 0,
    "fatal": 0,
}


def _note_dispatch(name: str, increment: int = 1) -> None:
    with _dispatch_lock:
        _DISPATCH_COUNTS[name] += increment


def dispatch_stats() -> Dict[str, object]:
    """Dispatch-resilience counters plus the live breaker snapshot."""
    with _dispatch_lock:
        counts = dict(_DISPATCH_COUNTS)
    counts["configured_retries"] = DISPATCH_RETRIES
    counts["deadline_seconds"] = DISPATCH_DEADLINE
    counts["breaker"] = breaker_state()
    return counts


class _RoundOutcome:
    """One dispatch round's verdict: which tasks failed, and how."""

    __slots__ = ("failed", "fatal", "cancelled")

    def __init__(self) -> None:
        self.failed: List[int] = []
        self.fatal = False
        self.cancelled = False


def _dispatch_round(
    router: _AffinityRouter,
    fn: Callable,
    tasks: Sequence[Tuple[Handle, Tuple]],
    pending: Sequence[int],
    avoid: Dict[int, int],
    results: List[object],
) -> _RoundOutcome:
    """Submit and await one round of per-shard tasks.

    Successful task results land in ``results``; everything else is
    classified into the outcome: per-task failures (broken worker, deadline
    timeout — eligible for retry on another slot), a *fatal* publication
    failure (vanished, corrupt or missing shard file — retrying the same
    handles cannot help), or a no-verdict cancellation by a concurrent pool
    reset.
    """
    from concurrent.futures.process import BrokenProcessPool

    outcome = _RoundOutcome()
    futures: Dict[int, object] = {}
    slots: Dict[int, _AffinitySlot] = {}
    try:
        for index in pending:
            handle, args = tasks[index]
            if faults.inject("parallel.dispatch.broken"):
                raise BrokenProcessPool("injected dispatch fault")
            previous_slot = avoid.get(index, -1)
            if previous_slot >= 0:
                future, slot = router.submit_avoiding(
                    handle[0], previous_slot, fn, handle, *args
                )
            else:
                future, slot = router.submit(handle[0], fn, handle, *args)
            futures[index] = future
            slots[index] = slot
    except (BrokenProcessPool, RuntimeError, OSError, ValueError, ImportError):
        # The pool broke (or was shut down under us) at submission time —
        # infrastructure, not the computation.  Reset so the next round
        # re-creates the router, and mark everything not yet submitted
        # (plus whatever was) as failed for retry.
        for future in futures.values():
            future.cancel()
        reset_process_pool()
        outcome.failed = list(pending)
        return outcome

    deadline = DISPATCH_DEADLINE
    started = time.monotonic()
    repaired: set = set()
    for index, future in sorted(futures.items()):
        remaining = max(0.0, deadline - (time.monotonic() - started))
        try:
            results[index] = future.result(timeout=remaining)
        except (FuturesTimeoutError, BrokenProcessPool) as exc:
            # A worker wedged past the dispatch deadline (or a fault-injected
            # sleep), or a dead one.  Repairing its slot kills the worker, so
            # the deadline holds for the worker too and it cannot poison the
            # next round; the task retries elsewhere.
            if isinstance(exc, FuturesTimeoutError):
                _note_dispatch("timeouts")
                future.cancel()
            slot = slots[index]
            if slot.index not in repaired:
                repaired.add(slot.index)
                router.repair(slot)
            avoid[index] = slot.index
            outcome.failed.append(index)
        # repro: ignore[EXC001] either this round's own repair of the slot
        # cancelled the task queued behind the wedged one (it failed with its
        # slot: retry elsewhere), or a concurrent reset_process_pool did — the
        # resetter already replaced the router, so no breaker verdict.
        except CancelledError:
            if slots[index].index in repaired:
                avoid[index] = slots[index].index
                outcome.failed.append(index)
            else:
                outcome.cancelled = True
        # repro: ignore[EXC001] fatal publication loss: the caller exits its
        # breaker token with a strike and computes in place; the
        # next query republishes (_publication_live sees the dead handle).
        except (FileNotFoundError, CorruptShardError):
            outcome.fatal = True
            break
    if outcome.fatal or outcome.cancelled:
        for index, future in futures.items():
            if results[index] is None:
                future.cancel()
    return outcome


def _dispatch_with_retries(
    publication, fn: Callable, args_per_shard: Sequence[Tuple]
) -> Tuple[Optional[List[object]], Optional[bool]]:
    """Run every shard task with bounded retry; ``(results, verdict)``.

    The verdict feeds :func:`_breaker_exit`: ``True`` on success, ``False``
    when the dispatch gave up (strike), ``None`` when cancelled by a
    concurrent reset (no verdict).  Failed tasks are re-routed to an
    alternate affinity slot on the next round, with exponential backoff
    between rounds so a repairing slot has time to respawn.
    """
    tasks = list(zip(publication.handles, args_per_shard))
    results: List[object] = [None] * len(tasks)
    pending: List[int] = list(range(len(tasks)))
    avoid: Dict[int, int] = {}
    for attempt in range(DISPATCH_RETRIES + 1):
        if attempt:
            _note_dispatch("retries")
            backoff = config.current().retry_backoff * (2 ** (attempt - 1))
            if backoff > 0:
                time.sleep(backoff)
        outcome = _dispatch_round(_ensure_router(), fn, tasks, pending, avoid, results)
        if outcome.cancelled:
            return None, None
        if outcome.fatal:
            _note_dispatch("fatal")
            _note_dispatch("fallbacks")
            return None, False
        pending = outcome.failed
        if not pending:
            return results, True
    _note_dispatch("fallbacks")
    return None, False


def _submit_per_shard(
    store: Store, fn: Callable, args_per_shard: Sequence[Tuple]
) -> Optional[List[object]]:
    """Run ``fn(handle, *args)`` for every shard; ``None`` on infra failure.

    Every task is routed through the affinity router by its handle token —
    the shard's dedicated warm worker, with work-stealing overflow.
    Infrastructure failures (a broken pool, a worker past the dispatch
    deadline, a file that vanished under a concurrent mutation) are
    retried up to :data:`DISPATCH_RETRIES` times on alternate
    slots, then leave the work to the caller; genuine application errors
    raised by the shipped computation propagate to the caller exactly as
    they would in the caller's own computation.  Every dispatch holds a
    circuit-breaker token: success closes the breaker, exhausted retries
    strike it, and an open breaker refuses dispatch up front (the half-open
    recovery probe being the one exception).
    """
    publication = publication_for(store)
    if publication is None:  # unpublishable payloads: the caller computes
        return None
    token = _breaker_enter()
    if token is None:
        return None
    verdict: Optional[bool] = None
    try:
        results, verdict = _dispatch_with_retries(publication, fn, args_per_shard)
        return results
    finally:
        # An application error propagating out of the worker leaves
        # verdict=None: the pool round-tripped fine (infrastructure is
        # healthy), but the computation failed — neither close nor strike.
        _breaker_exit(token, verdict)


# ---------------------------------------------------------------------------
# Parent-side operations
# ---------------------------------------------------------------------------

def _dumps(obj: object) -> Optional[bytes]:
    """Pickle ``obj`` for the trip to a worker; ``None`` when it cannot go."""
    try:
        return pickle.dumps(obj, _PICKLE_PROTOCOL)
    except Exception:
        return None


# Fused select+gather accounting (parent side): how many fused calls ran,
# and how many payload bytes came back across the boundary — the benchmark
# harness reads the deltas to audit the one-crossing contract.
_stats_lock = threading.Lock()
_select_gather_calls = 0
_select_gather_result_bytes = 0
_select_gather_object_values = 0


def select_gather_stats() -> Dict[str, int]:
    """Cumulative fused select+gather accounting.

    ``calls`` counts :func:`process_select_gather` rounds that completed on
    the pool (one boundary crossing per shard each); ``result_bytes`` the
    exact mask + typed-buffer bytes that crossed back; ``object_values`` the
    number of object-column values that crossed by pickle (their byte size
    is codec-dependent, so they are counted, not sized).
    """
    with _stats_lock:
        return {
            "calls": _select_gather_calls,
            "result_bytes": _select_gather_result_bytes,
            "object_values": _select_gather_object_values,
        }


def adopt_gathered(buffers: Sequence[Sequence[object]], length: int) -> ColumnStore:
    """Adopt one shard's fused-gather buffers as a fresh column store.

    ``buffers`` are :func:`_decode_buffer` outputs in column-position order
    — typed ``array`` buffers stay typed, object columns are plain lists —
    exactly the buffer kinds :meth:`ColumnStore.select_mask` would have
    produced locally, so the fused path's derived stores are
    indistinguishable from the fallback's.
    """
    kinds: List[str] = []
    cols: List[Sequence[object]] = []
    for buffer in buffers:
        if not len(buffer):
            kinds.append(_KIND_EMPTY)
            cols.append([])
        elif isinstance(buffer, array) and buffer.typecode in _TYPECODE_KINDS:
            kinds.append(_TYPECODE_KINDS[buffer.typecode])
            cols.append(buffer)
        else:
            kinds.append(_KIND_OBJECT)
            cols.append(list(buffer))
    shell = ColumnStore(len(cols))
    return shell._adopt(kinds, cols, length)


def process_select_gather(
    store: Store,
    masker: Callable[[Store], Sequence[int]],
    positions: Sequence[int],
    shard_limits: Optional[Sequence[Optional[int]]] = None,
) -> Optional[Tuple[List[bytearray], List[Optional[List[Sequence[object]]]]]]:
    """Fused select+gather per shard in one boundary crossing each.

    Wire format per shard — shipped: ``(pickled masker, output column
    positions, α-budget slice or None)``; received: ``(mask bytes, packed
    column payloads)`` where the payloads are :func:`_encode_buffer` tuples
    for the *selected* rows of every requested column, or ``None`` when the
    worker short-circuited (every row survived / nothing to gather) and the
    parent materializes from its own shard copy instead.

    Returns ``(per-shard masks, per-shard decoded buffer lists)`` in shard
    order, or ``None`` (the caller computes) when the store is too small, the
    masker does not pickle, or the pool is unavailable.
    """
    global _select_gather_calls, _select_gather_result_bytes, _select_gather_object_values
    if not process_eligible(store):
        return None
    payload = _dumps(masker)
    if payload is None:
        return None
    positions = list(positions)
    shards = store.shards
    limits = (
        list(shard_limits) if shard_limits is not None else [None] * len(shards)
    )
    if len(limits) != len(shards):
        raise ValueError(
            f"expected {len(shards)} shard limits, got {len(limits)}"
        )
    results = _submit_per_shard(
        store,
        _worker_select_gather,
        [(payload, positions, limit) for limit in limits],
    )
    if results is None:
        return None
    masks: List[bytearray] = []
    buffers: List[Optional[List[Sequence[object]]]] = []
    returned_bytes = 0
    object_values = 0
    for mask_bytes, encoded in results:
        masks.append(bytearray(mask_bytes))
        returned_bytes += len(mask_bytes)
        if encoded is None:
            buffers.append(None)
            continue
        decoded: List[Sequence[object]] = []
        for item in encoded:
            tag, _typecode, data = item
            if tag == "arr":
                returned_bytes += len(data)
            else:
                object_values += len(data)
            decoded.append(_decode_buffer(item))
        buffers.append(decoded)
    with _stats_lock:
        _select_gather_calls += 1
        _select_gather_result_bytes += returned_bytes
        _select_gather_object_values += object_values
    return masks, buffers


# Pinned by benchmarks/e2e: ``spans.install`` wraps these five names, so they
# must exist.  Nothing in the package calls them — they are the operations
# that used to ship besides the fused select+gather — and they go when the
# benchmark's own PR stops naming them.
def _not_shipped(*_args, **_kwargs) -> None:
    return None


process_eval_mask = process_gather = _not_shipped
radius_matches_many = nn_min_distance_many = kd_within_radius_many = _not_shipped


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

_STORE_CACHE: "OrderedDict[str, Store]" = OrderedDict()
_STORE_CACHE_LIMIT = 64

# Worker-private cold-work counter: how many shard files this worker mapped.
# Under sticky affinity a repeated query should add zero — _worker_cache_stats
# ships it back so tests and the benchmark can assert/score cache warmth per
# slot.
_CACHE_STATS = {"store_decodes": 0}


def _worker_cache_stats() -> Dict[str, int]:
    """This worker's cold-work counters (a snapshot copy)."""
    return dict(_CACHE_STATS)


def worker_cache_stats(timeout: Optional[float] = None) -> Optional[List[Dict[str, int]]]:
    """Per-slot worker cold-work counters, in slot order.

    Queries every *live* slot of the affinity router (slots whose pool has
    never spawned report zeros without spawning one).  Returns ``None``
    while no router exists — there are no workers to ask.
    """
    router = _router
    if router is None:
        return None
    wait = PROBE_TIMEOUT if timeout is None else timeout
    stats: List[Dict[str, int]] = []
    for slot in router._slots:
        row = {"store_decodes": 0}
        if slot.pool is not None:
            try:
                row = slot.pool.submit(_worker_cache_stats).result(timeout=wait)
            except Exception:
                pass
        # "index_builds" is pinned by benchmarks/e2e (replay.py sums it); no
        # worker builds an index.  It goes when the benchmark stops reading it.
        row["index_builds"] = 0
        stats.append(row)
    return stats


def _worker_init(
    settings: config.Config, fault_spec: Optional[str] = None, fault_nonce: str = ""
) -> None:
    """Initializer run in every worker process.

    Marks the process as a worker (no nested pools, no publications) and
    installs the parent's settings unchanged.  The parent's active fault
    plan ships along as its spec, re-seeded under this pool's incarnation
    nonce so each worker generation draws its own deterministic fault
    sequence (see :func:`_worker_initargs`).
    """
    global _IN_PROCESS_WORKER
    # The initializer runs once per worker process before any task is
    # scheduled, so this write cannot race with anything.
    _IN_PROCESS_WORKER = True  # repro: ignore[STATE001] pre-task worker init
    faults._install_worker_plan(fault_spec, fault_nonce)
    config.configure(settings)


def _worker_ping() -> bool:
    return True


def _worker_fault_probe() -> None:
    """Fault-injection probes every shard task runs on entry (worker side).

    ``parallel.worker.kill`` exits the worker hard — exactly what the OOM
    killer or a segfault does to a real worker; the parent sees
    ``BrokenProcessPool``.  ``parallel.worker.slow`` sleeps the rule's
    ``arg`` seconds first — a wedged or overloaded worker; long enough, the
    parent's dispatch deadline fires.  Both are no-ops without a plan.
    """
    if faults.inject("parallel.worker.kill"):
        os._exit(13)
    if faults.inject("parallel.worker.slow"):
        time.sleep(faults.fault_arg("parallel.worker.slow", 0.05))


def _resolve_store(handle: Handle) -> Store:
    """The mapped shard store for ``handle`` (worker-side LRU cache).

    The worker ``mmap``s the shard's file and reads the typed columns in
    place — the buffers never cross the process boundary.  The token pins
    the file's identity (path, inode, mtime, size), so a rewritten file can
    never be answered from a stale cache entry.
    """
    token, path = handle
    cached = _STORE_CACHE.get(token)
    if cached is not None:
        # Worker-process-private caches: pool workers execute tasks strictly
        # sequentially, so no lock is needed (or wanted) on this hot path.
        _STORE_CACHE.move_to_end(token)  # repro: ignore[STATE001] worker-private cache
        return cached
    store = MmapStore.open(path)
    _CACHE_STATS["store_decodes"] += 1  # repro: ignore[STATE001] worker-private counter
    _STORE_CACHE[token] = store  # repro: ignore[STATE001] worker-private cache
    while len(_STORE_CACHE) > _STORE_CACHE_LIMIT:
        _STORE_CACHE.popitem(last=False)  # repro: ignore[STATE001] worker-private cache
    return store


def _worker_select_gather(
    handle: Handle,
    masker_payload: bytes,
    positions: Sequence[int],
    limit: Optional[int],
) -> Tuple[bytes, Optional[List[Tuple[str, Optional[str], object]]]]:
    """The fused operator: mask, budget-truncate, and gather in one task.

    Returns ``(mask bytes, encoded column payloads)``; the payloads are
    ``None`` when every row survived (the parent's own shard copy is
    cheaper than shipping the whole shard back) or when there are no
    columns to gather.
    """
    _worker_fault_probe()
    store = _resolve_store(handle)
    masker = pickle.loads(masker_payload)
    mask = bytearray(masker(store))
    if limit is not None:
        _truncate_mask(mask, limit)
    if not positions or mask.count(1) == len(mask):
        return bytes(mask), None
    indices = list(compress(range(len(mask)), mask))
    return bytes(mask), [
        _encode_buffer(store.gather_column(position, indices))
        for position in positions
    ]
