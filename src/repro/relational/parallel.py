"""Process-parallel shard execution: shards published as files, one worker pool.

The sharded backend answers every read in the caller, from its flat column
view.  This module is the other execution mode behind the ``shard_executor``
setting (:mod:`repro.config`): worker processes that map each shard's column
buffers from a file and evaluate one thing on it, the mask of the fused
select+gather.  There is one of each mechanism:

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
* **Start method: forkserver, never fork.**  The pool is created lazily, so
  the parent may run threads by then (a server's request threads), and a
  child forked from a threaded parent can inherit a lock held by a thread
  that does not exist in the child and wait on it forever.  Workers
  therefore fork from the single-threaded forkserver,
  which preloads this package once so a respawn costs about what a fork
  does; platforms without forkserver use ``spawn``.
* **Dispatch = one pool.**  One ``ProcessPoolExecutor`` of ``shard_workers``
  processes, created on first use.  A query submits one task per shard
  handle and awaits them all against one :data:`DISPATCH_DEADLINE`; any
  worker answers any shard, and each worker's LRU soon holds every shard
  file it is asked about.
* **Retire = kill.**  A pool with a dead worker (``BrokenProcessPool``) or a
  task past the deadline is retired whole by :func:`_retire_pool` — shut
  down, then every worker killed and joined, because
  ``shutdown(wait=False)`` merely abandons a running task and a wedged
  worker would otherwise outlive the deadline and block interpreter exit.
  Nothing is retried: that query answers in the caller and the next one
  creates a fresh pool.  :func:`shutdown` and :func:`reset_process_pool`
  retire the pool the same way.
* **Settings travel by value.**  A worker imports the package afresh, so
  the pool's initializer receives the parent's
  :class:`~repro.config.Config` and installs it unchanged; the worker flag
  (``_IN_PROCESS_WORKER``) alone keeps a worker from dispatching further.
  Changing a setting the workers read (``checksum_mode``) or the pool width
  (``shard_workers``) retires the pool, so no worker outlives the
  settings it was spawned with; the
  settings this module reads — ``process_min_rows`` and
  ``breaker_cooldown`` — are documented in :mod:`repro.config`.

**One operation ships: the mask of the fused select+gather.**  A worker runs
exactly one kind of shard task, :func:`_worker_select_gather`.
:func:`process_select_gather` sends each shard's worker the pickled masker
and receives the shard's mask bytes — one byte per row, nothing else, so an
object column's values never cross the boundary.
:meth:`ShardedStore.select_gather` stitches the masks into global order and
selects the survivors from its flat column view in the parent;
:func:`select_gather_stats` accounts the returned bytes.  Everything else a
sharded store does — bare masks, gathers, distance-kernel probes — runs
in the parent, in the caller.  Shipping the survivors'
columns back instead costs about eight times the bytes (on the benchmark's
``tfacc_sharded`` workload, ``cpu_count`` 2: 1.59 MB a pass against
0.20 MB of masks) and hands the parent per-shard buffers it would have to
re-interleave for every later read.

**Fallbacks.**  Everything here degrades to the caller: the parent returns
``None`` (and the caller computes the answer itself) when the store is
smaller than the ``process_min_rows`` setting, when the work, its parameters
or the store's object values fail to pickle, when called from inside a
worker (no nested pools), when the dispatch fails (a dead or wedged worker,
a lost or corrupt shard file), or after repeated failures (the circuit
breaker).  Results are bit-identical across ``"serial"`` and ``"process"``
modes — the cross-backend conformance matrix and the hypothesis properties
in ``tests/test_parallel.py`` enforce this.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import CancelledError, Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import config, faults
from ..errors import CorruptShardError
from .mmapstore import MmapStore, forget_anonymous, write_anonymous
from .store import Store

# A published shard: ``(token, path)`` of the ``.rpro`` file workers map.
# The token keys the worker-side store cache.
Handle = Tuple[str, str]

# Fixed bounds of the dispatch path, read at call time (the fault tests
# shrink them with ``monkeypatch.setattr``).  ``DISPATCH_DEADLINE`` is the
# seconds a dispatch may wait for its shard results, so a wedged worker
# stalls a query for at most that long before the caller answers it itself;
# ``PROBE_TIMEOUT`` the seconds :func:`probe_process_executor` waits for a
# round trip, so a pool that wedges during spawn trips the breaker promptly
# instead of stalling the caller.
DISPATCH_DEADLINE = 30.0
PROBE_TIMEOUT = 10.0


# benchmarks/e2e calls this name (``None`` = the default); it goes when the
# benchmark's own PR re-points it at ``configure``.
def set_process_min_rows(count: Optional[int]) -> int:
    return config.configure(process_min_rows=count).process_min_rows


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

_pool = None  # the live ProcessPoolExecutor, created on first use
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

# Monotonic pool-incarnation counter: each pool gets the next value as its
# workers' fault-plan nonce, so a respawned worker's injected-fault draws
# differ from its dead predecessor's — a kill/heal cycle terminates instead
# of re-killing every replacement.
_pool_incarnation = 0

# Set by the worker initializer: worker processes must never publish or
# spawn nested pools.
_IN_PROCESS_WORKER = False


def shutdown() -> None:
    """Stop every worker and unlink every published file.

    Registered with :mod:`atexit`; safe to call directly (e.g. by a
    benchmark harness) — the next process-mode query republishes and starts
    fresh workers.  Returns promptly even with a task in flight: the
    workers are killed, not waited for.
    """
    reset_process_pool()
    with _publish_lock:
        live = list(_publications)
    for publication in live:
        publication.retire()


atexit.register(shutdown)


def reset_process_pool() -> None:
    """Retire the pool so the next query re-creates it as configured.

    Called when a setting the workers carry changes (:func:`_on_configure`)
    and by :func:`repro.faults.set_fault_plan`; publications stay alive
    (they are sized by the data, not the pool).
    """
    global _pool
    with _pool_lock:
        stale, _pool = _pool, None
    if stale is not None:
        _retire_pool(stale)


def _on_configure(previous: config.Config, new: config.Config) -> None:
    """Retire the pool when what it was built from changes.

    That is the one setting its workers read (``checksum_mode``) and its
    width (``shard_workers``, resolved); the workers the next dispatch
    spawns carry the new values.  Nothing else does: executor flips and
    threshold changes are parent-side decisions, so they keep the warm
    pool.
    """
    if (previous.checksum_mode, previous.worker_count) != (new.checksum_mode, new.worker_count):
        reset_process_pool()


config.subscribe(_on_configure)


_RETIRE_JOIN_SECONDS = 5.0


def _retire_pool(pool) -> None:
    """Shut down a pool whose running tasks will never be awaited.

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

    Never ``fork``: the pool is created lazily and re-created after a
    failure, when the parent may run threads (a server's request threads),
    and a child forked then can wait forever on a lock some parent thread
    held at that instant.  The forkserver is single-threaded and
    imports this package once, so each later worker is a cheap fork of it.
    """
    import multiprocessing

    try:
        context = multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - platform without forkserver
        return multiprocessing.get_context("spawn")
    context.set_forkserver_preload(["__main__", __name__])
    return context


def _ensure_pool():
    """The worker pool at the configured width, created on first use.

    No worker starts until a task is submitted.  The initializer ships the
    parent's settings by value (a worker imports the package afresh and
    would otherwise run under the defaults), the active fault-plan spec
    (workers must run the same chaos the parent does) and this pool's
    incarnation number as the plan nonce (see :data:`_pool_incarnation`).
    """
    global _pool, _pool_incarnation
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ProcessPoolExecutor

            _pool_incarnation += 1
            settings = config.current()
            _pool = ProcessPoolExecutor(
                max_workers=settings.worker_count,
                mp_context=_mp_context(),
                initializer=_worker_init,
                initargs=(settings, faults.active_spec(), str(_pool_incarnation)),
            )
        return _pool


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
    """One consecutive-failure strike, outside any dispatch."""
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

    Spawns the pool if needed and runs one trivial task; used by test
    harnesses to decide whether process-mode legs are meaningful.  The wait
    is bounded by :data:`PROBE_TIMEOUT` — a pool that wedges during spawn
    trips the failure breaker and the probe reports ``False`` promptly
    instead of stalling the first query behind a long result wait.  When
    the breaker is open, a successful probe through the half-open window
    closes it again — the explicit recovery check harnesses can call.
    """
    if _IN_PROCESS_WORKER:
        return False
    token = _breaker_enter()
    if token is None:
        return False
    try:
        alive = bool(_ensure_pool().submit(_worker_ping).result(timeout=PROBE_TIMEOUT))
        _breaker_exit(token, alive)
        return alive
    except Exception:
        _breaker_exit(token, False)
        reset_process_pool()
        return False


# Cumulative dispatch accounting (parent side): ``tasks`` counts shard tasks
# submitted to the pool, ``timeouts`` dispatches that hit the deadline,
# ``fatal`` dispatches that lost a shard file (vanished or corrupt),
# ``fallbacks`` dispatches that gave up to the caller with a strike.
_dispatch_lock = threading.Lock()
_DISPATCH_COUNTS = {
    "tasks": 0,
    "timeouts": 0,
    "fallbacks": 0,
    "fatal": 0,
}


def _note_dispatch(name: str, increment: int = 1) -> None:
    with _dispatch_lock:
        _DISPATCH_COUNTS[name] += increment


def dispatch_stats() -> Dict[str, object]:
    """Dispatch counters plus the live breaker snapshot."""
    with _dispatch_lock:
        counts = dict(_DISPATCH_COUNTS)
    # "retries" is pinned by benchmarks/e2e (replay.py reads it); nothing
    # retries.  It goes when the benchmark stops reading it.
    counts["retries"] = 0
    counts["deadline_seconds"] = DISPATCH_DEADLINE
    counts["breaker"] = breaker_state()
    return counts


def _abandon(futures: Sequence[Future], pool=None) -> None:
    """Give a failed dispatch up: cancel its queued tasks and retire ``pool``.

    A pool is handed over when it is what failed — a dead worker, a task
    past the deadline, a pool that would not take the tasks — and every
    worker in it is killed (:func:`_retire_pool`); the next dispatch creates
    a fresh one.  One that a concurrent reset already replaced is killed
    all the same.
    """
    global _pool
    for future in futures:
        future.cancel()
    if pool is not None:
        with _pool_lock:
            if _pool is pool:
                _pool = None
        _retire_pool(pool)


def _dispatch(
    publication: ShardPublication, masker_payload: bytes
) -> Tuple[Optional[List[bytes]], Optional[bool]]:
    """Run one fused select+gather task per shard on the pool: ``(masks, verdict)``.

    Every task is awaited against one :data:`DISPATCH_DEADLINE`.  The
    verdict feeds :func:`_breaker_exit`: ``True`` with the masks; otherwise
    the masks are ``None`` and the caller computes — ``False`` (a strike)
    when a worker died, the deadline passed or a shard file was lost, and
    ``None`` when a concurrent reset cancelled a task.  An error the masker
    itself raises in a worker propagates.
    """
    from concurrent.futures.process import BrokenProcessPool

    pool = None
    futures: List[Future] = []
    try:
        pool = _ensure_pool()
        for handle in publication.handles:
            if faults.inject("parallel.dispatch.broken"):
                raise BrokenProcessPool("injected dispatch fault")
            futures.append(pool.submit(_worker_select_gather, handle, masker_payload))
    except (BrokenProcessPool, RuntimeError, OSError, ValueError, ImportError):
        # No pool could start, or it broke (or a reset shut it down) while
        # taking the tasks — infrastructure, not the computation.
        _abandon(futures, pool)
        return None, False
    _note_dispatch("tasks", len(futures))
    deadline = time.monotonic() + DISPATCH_DEADLINE
    try:
        masks = [future.result(timeout=max(0.0, deadline - time.monotonic())) for future in futures]
    except (FuturesTimeoutError, BrokenProcessPool) as exc:
        # A worker wedged past the deadline (or a fault-injected sleep), or
        # a dead one.  Retiring the pool kills its workers, so the deadline
        # holds for the workers too and none can poison the next dispatch.
        if isinstance(exc, FuturesTimeoutError):
            _note_dispatch("timeouts")
        _abandon(futures, pool)
        return None, False
    except CancelledError:
        # A concurrent reset retired the pool under this dispatch: the
        # resetter already replaced it, so this says nothing about its health.
        _abandon(futures)
        return None, None
    except (FileNotFoundError, CorruptShardError):
        # A shard file vanished or failed its checksum: the workers are fine,
        # and the next query republishes (_publication_live sees the dead
        # handle, a quarantined file has moved away).
        _note_dispatch("fatal")
        _abandon(futures)
        return None, False
    return masks, True


# ---------------------------------------------------------------------------
# Parent-side operations
# ---------------------------------------------------------------------------

# Fused select+gather accounting (parent side): how many fused calls ran,
# and how many mask bytes came back across the boundary — the benchmark
# harness reads the deltas to audit the one-crossing contract.
_stats_lock = threading.Lock()
_select_gather_calls = 0
_select_gather_result_bytes = 0


def select_gather_stats() -> Dict[str, int]:
    """Cumulative fused select+gather accounting.

    ``calls`` counts :func:`process_select_gather` rounds that completed on
    the pool (one boundary crossing per shard each); ``result_bytes`` the
    mask bytes that crossed back — one per row of the store.
    """
    with _stats_lock:
        return {"calls": _select_gather_calls, "result_bytes": _select_gather_result_bytes}


def process_select_gather(
    store: Store, masker: Callable[[Store], Sequence[int]]
) -> Optional[List[bytes]]:
    """Evaluate ``masker`` on every shard's worker, one boundary crossing each.

    Ships the pickled masker; each worker answers with its shard's mask
    bytes (shard-local row order).  Returns those masks in shard order, or
    ``None`` (the caller computes) when the store is too small or cannot be
    published, the masker does not pickle, the breaker is open, or the
    dispatch failed.  Every dispatch holds a circuit-breaker token: success
    closes the breaker and a failed dispatch strikes it.
    """
    global _select_gather_calls, _select_gather_result_bytes
    if not process_eligible(store):
        return None
    try:
        payload = pickle.dumps(masker, pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None
    publication = publication_for(store)
    if publication is None:  # unpublishable payloads: the caller computes
        return None
    token = _breaker_enter()
    if token is None:
        return None
    verdict: Optional[bool] = None
    try:
        masks, verdict = _dispatch(publication, payload)
    finally:
        # An error the masker raised in a worker propagates with verdict
        # None: the pool round-tripped fine, so neither close nor strike.
        _breaker_exit(token, verdict)
    if masks is None:
        if verdict is False:
            _note_dispatch("fallbacks")
        return None
    with _stats_lock:
        _select_gather_calls += 1
        _select_gather_result_bytes += sum(map(len, masks))
    return masks


# Pinned by benchmarks/e2e: ``spans.install`` wraps the five operation names
# and ``replay.py`` reads the two stats, so they must exist.  Nothing in the
# package calls them — the operations used to ship besides the fused
# select+gather, the stats described a router that is gone — and they go
# when the benchmark's own PR stops naming them.
def _not_shipped(*_args, **_kwargs) -> None:
    return None


process_eval_mask = process_gather = worker_cache_stats = _not_shipped
radius_matches_many = nn_min_distance_many = kd_within_radius_many = _not_shipped


def affinity_stats() -> Dict[str, int]:
    """Every dispatched task as a "hit"; nothing is ever stolen."""
    with _dispatch_lock:
        return {"hits": _DISPATCH_COUNTS["tasks"], "steals": 0}


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

_STORE_CACHE: "OrderedDict[str, Store]" = OrderedDict()
_STORE_CACHE_LIMIT = 64


def _worker_init(
    settings: config.Config, fault_spec: Optional[str] = None, fault_nonce: str = ""
) -> None:
    """Initializer run in every worker process.

    Marks the process as a worker (no nested pools, no publications) and
    installs the parent's settings unchanged.  The parent's active fault
    plan ships along as its spec, re-seeded under the pool's incarnation
    nonce so each pool draws its own deterministic fault sequence (see
    :func:`_ensure_pool`).
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
    _STORE_CACHE[token] = store  # repro: ignore[STATE001] worker-private cache
    while len(_STORE_CACHE) > _STORE_CACHE_LIMIT:
        _STORE_CACHE.popitem(last=False)  # repro: ignore[STATE001] worker-private cache
    return store


def _worker_select_gather(handle: Handle, masker_payload: bytes) -> bytes:
    """The worker half of the fused select+gather: the shard's mask bytes."""
    _worker_fault_probe()
    masker = pickle.loads(masker_payload)
    return bytes(masker(_resolve_store(handle)))
