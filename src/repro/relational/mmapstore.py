"""Persistent mmap-backed storage tier: on-disk typed columns, zero-copy reads.

Every other backend is RAM-resident and rebuilt from scratch on restart.
:class:`MmapStore` keeps a store's column buffers in one file under the
dataset directory, laid out so that a reader needs **no decode step** — the
file is ``mmap``'d and each typed column becomes a ``memoryview`` cast
straight over the mapping.  Reads are zero-copy and a reopened store is
bit-identical to the one that was saved.  The same file is how shard buffers
reach worker processes: an mmap-backed shard hands out its own
``(token, path)`` handle (:meth:`MmapStore.file_handle`), any other shard is
written once by :func:`write_anonymous`, and workers :meth:`MmapStore.open`
either (see :class:`repro.relational.parallel.ShardPublication`).

Saving and reopening a dataset::

    save_database(db, "/data/my-dataset")     # any source backend
    db = open_database("/data/my-dataset")    # mmap-backed relations

    store = MmapStore.from_rows(3, rows)      # persists anonymously, reads via mmap
    store.save("/data/emp.rpro")              # durable, atomic (tmp + rename)
    again = MmapStore.open("/data/emp.rpro")  # maps in place; epoch restored

What survives a restart: every value bit-identically (NaN, ``-0.0``,
mixed-type columns), the shard count and shard sizes of sharded sources
(their shards are contiguous row ranges, one file each), each store's
mutation epoch and the database's publication epoch — a restart is not a
mutation, so serving-layer cache keys minted before it stay valid after it.
A schema with unpicklable distance callables is left out of the manifest;
pass ``schema=`` to :func:`open_database` then.

File format (``RPROMM02``)::

    magic (8 bytes) | header length (8 bytes LE) | pickled header dict
    | crc32(header) (4 bytes LE) | zero padding to an 8-byte boundary
    | column payloads (8-byte aligned)

The header records ``{width, length, epoch, meta, columns, column_crcs}``
where each column descriptor is ``(tag, typecode, offset, nbytes)`` —
``"arr"`` columns are raw ``array('d')``/``array('q')`` bytes (cast in place
on open), ``"obj"`` columns are pickled value lists, ``"empty"`` columns
carry no payload.  Offsets are relative to the aligned payload base; 8-byte
alignment is what makes ``memoryview.cast`` legal on the typed slices.

Integrity (the ``checksum_mode`` setting — ``off``, ``header`` (default) or
``full``; see :mod:`repro.config`): the header trailer carries
``zlib.crc32`` of the pickled header, and ``column_crcs`` carries one CRC
per column payload.  ``header`` verifies the structural metadata on every
open; ``full`` additionally reads and verifies every payload.  A failed
check raises :exc:`~repro.errors.CorruptShardError` after *quarantining*
the damaged file (renamed aside with a ``.quarantined`` suffix) so a
crash-restart loop cannot spin on the same bad bytes — callers on the
parallel read path treat it as fatal and compute in the caller over the
in-memory buffers.  The ``mmap.open.missing`` / ``mmap.open.corrupt``
fault sites (:mod:`repro.faults`) fire here; injected corruption never
quarantines a healthy file.

Store states:

* **mapped** — ``_mapped`` holds the live :class:`_MappedFile`; typed columns
  are read-only memoryviews over the mapping, object columns are the
  unpickled lists.  Derivations (``take``/``project``/``head``) thaw into
  ordinary in-memory buffers; any mutation first :meth:`materializes
  <MmapStore._materialize>` the store into private buffers and detaches it
  from the file (the file itself is never modified in place).
* **detached** — a plain :class:`ColumnStore` in every respect; an explicit
  :meth:`MmapStore.save` (or the anonymous persist on construction)
  re-attaches it to a file.

Construction persists **anonymously**: ``from_rows``/``from_columns`` write
``anon-*.rpro`` under :func:`get_store_dir` and reopen through the mapping,
so every mmap-backed store in the conformance matrix genuinely reads from
disk.  Anonymous files are reference-counted via their ``_MappedFile`` (a
``weakref.finalize`` unlinks the file when the last mapping dies) and an
``atexit`` sweep (:func:`cleanup_store_dir`) unlinks any leftovers, so test
runs leave no stray dataset files behind.  They are written without an
``fsync`` — scratch that dies with the process has nothing to make durable —
whereas :meth:`MmapStore.save` and :func:`save_database` flush every file.

Dataset directories: :func:`save_database` writes one file per relation (per
shard for sharded sources) plus a manifest carrying the schema and the
database's publication epoch; :func:`open_database` rebuilds the whole
database over mapped stores and restores the persisted epoch exactly.

Settings (:mod:`repro.config`): ``store_dir`` fixes the dataset directory
(default: a lazily-created temporary directory), ``checksum_mode`` how much
is verified on open, and ``default_backend="mmap"`` makes the tier the
process-wide default.
"""

from __future__ import annotations

import atexit
import mmap
import os
import pickle
import tempfile
import threading
import uuid
import weakref
import zlib
from array import array
from typing import Dict, List, Optional, Sequence, Tuple, Type

from .. import config, faults
from ..errors import CorruptShardError
from .database import Database
from .relation import Relation
from .schema import DatabaseSchema
from .store import (
    ColumnStore,
    ShardedStore,
    Store,
    _KIND_EMPTY,
    _KIND_FLOAT,
    _KIND_INT,
    _KIND_OBJECT,
    _typed_buffer,
    register_backend,
)

_MAGIC = b"RPROMM02"
_ALIGN = 8
_CRC_BYTES = 4
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

FILE_SUFFIX = ".rpro"
MANIFEST_NAME = "manifest.rpro"
MANIFEST_VERSION = 2

_TYPECODE_KINDS = {"d": _KIND_FLOAT, "q": _KIND_INT}
_KIND_TYPECODES = {_KIND_FLOAT: "d", _KIND_INT: "q"}


# ---------------------------------------------------------------------------
# Store directory
# ---------------------------------------------------------------------------

_store_dir_lock = threading.Lock()
_temp_dir: Optional[str] = None  # created, and removed at exit, by this module


def get_store_dir() -> str:
    """The directory anonymous dataset files are written under.

    The ``store_dir`` setting (:mod:`repro.config`) when there is one, else
    a lazily-created temporary directory (removed at interpreter exit once
    empty).  The directory is created if missing.
    """
    global _temp_dir
    directory = config.current().store_dir
    if directory is None:
        with _store_dir_lock:
            if _temp_dir is None:
                _temp_dir = tempfile.mkdtemp(prefix="repro-store-")
                _register_cleanup_locked()
            directory = _temp_dir
    os.makedirs(directory, exist_ok=True)
    return directory


# benchmarks/e2e imports this name; it goes when the benchmark's own PR
# re-points it at ``configure``.
def set_store_dir(path: Optional[str]) -> Optional[str]:
    return config.configure(store_dir=path).store_dir


CHECKSUM_MODES = config.CHECKSUM_MODES


# ---------------------------------------------------------------------------
# Anonymous-file lifecycle
# ---------------------------------------------------------------------------

# Paths of anonymous files not yet released: a store's ``anon-*`` file is
# unlinked by a finalizer when its last mapping dies, a publication's
# ``pub-*`` files when it retires; the atexit sweep catches whatever the GC
# had not collected yet, so a test session leaves neither kind behind.
_ANON_LOCK = threading.Lock()
_ANON_FILES: set = set()
_cleanup_registered = False


def _register_cleanup_locked() -> None:
    # Caller holds either module lock; atexit.register is itself idempotent
    # enough, the flag just keeps us from stacking duplicate hooks.
    global _cleanup_registered
    if not _cleanup_registered:
        _cleanup_registered = True  # repro: ignore[STATE001] callers hold _ANON_LOCK or _store_dir_lock
        atexit.register(cleanup_store_dir)


def forget_anonymous(path: str) -> None:
    """Unlink one anonymous file now (idempotent)."""
    with _ANON_LOCK:
        _ANON_FILES.discard(path)
    try:
        os.unlink(path)
    except OSError:
        pass


def _write_anonymous(prefix: str, blob: bytes) -> str:
    """Write ``blob``, without an fsync, to a fresh tracked file under the store directory."""
    path = os.path.join(get_store_dir(), f"{prefix}-{uuid.uuid4().hex}{FILE_SUFFIX}")
    _write_blob(path, blob, durable=False)
    with _ANON_LOCK:
        _ANON_FILES.add(path)
        _register_cleanup_locked()
    return path


def cleanup_store_dir() -> None:
    """Unlink anonymous dataset files and remove the default temp directory.

    Registered with :mod:`atexit` on first use; safe to call directly (the
    CI tmpdir-hygiene leg does).  Files written by explicit
    :meth:`MmapStore.save` / :func:`save_database` calls are *not* touched —
    durability is the point of those.
    """
    with _ANON_LOCK:
        leftovers = sorted(_ANON_FILES)
        _ANON_FILES.clear()
    for path in leftovers:
        try:
            os.unlink(path)
        except OSError:
            pass
    with _store_dir_lock:
        directory = _temp_dir
    if directory is not None:
        try:
            os.rmdir(directory)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# File codec
# ---------------------------------------------------------------------------

def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _encode_file(
    width: int,
    length: int,
    epoch: int,
    kinds: Sequence[str],
    cols: Sequence[Sequence[object]],
    meta: Optional[dict] = None,
) -> bytes:
    """Serialize column buffers into one self-describing ``RPROMM02`` blob.

    CRCs (one per payload in ``column_crcs``, plus the header trailer) are
    always recorded — verification cost is the open-time knob, not write
    cost.  Raises whatever :mod:`pickle` raises for unpicklable
    object-column values; callers on the anonymous path catch and stay
    in-memory.
    """
    descriptors: List[Tuple[str, Optional[str], int, int]] = []
    chunks: List[bytes] = []
    crcs: List[int] = []
    offset = 0
    for kind, col in zip(kinds, cols):
        if kind in _KIND_TYPECODES:
            tag: str = "arr"
            typecode: Optional[str] = _KIND_TYPECODES[kind]
            data = col.tobytes() if isinstance(col, (array, memoryview)) else array(typecode, col).tobytes()
        elif kind == _KIND_EMPTY:
            tag, typecode, data = "empty", None, b""
        else:
            tag, typecode, data = "obj", None, pickle.dumps(list(col), _PICKLE_PROTOCOL)
        descriptors.append((tag, typecode, offset, len(data)))
        chunks.append(data)
        crcs.append(zlib.crc32(data))
        offset = _aligned(offset + len(data))
    header = pickle.dumps(
        {
            "width": width,
            "length": length,
            "epoch": epoch,
            "meta": meta,
            "columns": descriptors,
            "column_crcs": crcs,
        },
        _PICKLE_PROTOCOL,
    )
    base = _aligned(len(_MAGIC) + 8 + len(header) + _CRC_BYTES)
    blob = bytearray()
    blob += _MAGIC
    blob += len(header).to_bytes(8, "little")
    blob += header
    blob += zlib.crc32(header).to_bytes(_CRC_BYTES, "little")
    blob += b"\x00" * (base - len(blob))
    for (_, _, chunk_offset, _), data in zip(descriptors, chunks):
        blob += b"\x00" * (base + chunk_offset - len(blob))
        blob += data
    return bytes(blob)


def _write_blob(path: str, blob: bytes, durable: bool = True) -> None:
    """Atomically publish ``blob`` at ``path`` (write-temp, fsync, rename).

    ``durable=False`` leaves the fsync out.  It is for anonymous files only:
    nothing names them after the process that wrote them is gone, so a flush
    to the device protects no data — and the executor builds one such file
    per fetch step, which put a disk wait of 0.3 ms (median; 75 ms worst
    seen) on every step of every answer over an mmap-backed database.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    temp = os.path.join(directory, f".tmp-{uuid.uuid4().hex}")
    try:
        with open(temp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            if durable:
                os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


class _MappedFile:
    """One live mapping of an on-disk store file.

    Shared between a mapped store and its copies — the anonymous-file
    finalizer hangs off this object, so the file outlives every store that
    still reads through it.  The file descriptor is closed right after
    mapping (``mmap`` duplicates it internally); the mapping itself is
    released by reference counting — never ``close()``d explicitly, which
    would raise :exc:`BufferError` while column views are exported.
    """

    __slots__ = ("path", "token", "mm", "finalizer", "__weakref__")

    def __init__(self, path: str, mm: mmap.mmap, token: str) -> None:
        self.path = path
        self.token = token
        self.mm = mm
        self.finalizer = None


def _file_token(path: str, stat: os.stat_result) -> str:
    """The file's identity (path, inode, mtime, size) as a worker cache key.

    A rewritten file gets a new token, so a worker-side cache entry can never
    answer for it.
    """
    return f"{path}:{stat.st_ino}:{stat.st_mtime_ns}:{stat.st_size}"


def _quarantine_file(path: str) -> Optional[str]:
    """Rename a damaged dataset file aside; returns the new path (or None).

    Quarantining keeps a crash-restart loop from re-opening the same bad
    bytes forever: the next open of ``path`` raises a clean
    :exc:`FileNotFoundError` (and a rebuild can write a fresh file there)
    while the damaged bytes stay on disk for diagnosis.
    """
    target = f"{path}.quarantined"
    if os.path.exists(target):
        target = f"{path}.{uuid.uuid4().hex}.quarantined"
    try:
        os.replace(path, target)
    except OSError:
        return None
    with _ANON_LOCK:
        _ANON_FILES.discard(path)
    return target


def _map_file(path: str):
    """Map ``path`` and decode its header: ``(mapped, header, kinds, cols)``.

    Typed columns come back as read-only memoryviews cast over the mapping
    (zero-copy); object columns are unpickled lists.  Structural damage and
    checksum mismatches (per the ``checksum_mode`` setting) quarantine the file
    and raise :exc:`~repro.errors.CorruptShardError`; a file that is not a
    dataset file at all (bad magic) raises plain :exc:`ValueError` and is
    left where it is.
    """
    if faults.inject("mmap.open.missing"):
        raise FileNotFoundError(2, "injected missing dataset file", path)
    if faults.inject("mmap.open.corrupt"):
        raise CorruptShardError(path, "injected corruption", injected=True)

    def corrupt(reason: str) -> None:
        raise CorruptShardError(path, reason, quarantined_to=_quarantine_file(path))

    verify = config.current().checksum_mode
    with open(path, "rb") as handle:
        stat = os.fstat(handle.fileno())
        if stat.st_size < len(_MAGIC) + 8:
            corrupt("truncated before header")
        mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    data = memoryview(mm)
    if bytes(data[: len(_MAGIC)]) != _MAGIC:
        raise ValueError(f"{path!r} is not a repro dataset file (bad magic)")
    header_length = int.from_bytes(data[len(_MAGIC): len(_MAGIC) + 8], "little")
    header_end = len(_MAGIC) + 8 + header_length
    if header_end + _CRC_BYTES > stat.st_size:
        corrupt("truncated header")
    header_bytes = data[len(_MAGIC) + 8: header_end]
    if verify != "off":
        expected = int.from_bytes(data[header_end: header_end + _CRC_BYTES], "little")
        if zlib.crc32(header_bytes) != expected:
            corrupt("header checksum mismatch")
    try:
        header = pickle.loads(header_bytes)
        descriptors = list(header["columns"])
        column_crcs = header["column_crcs"]
    except Exception as exc:
        corrupt(f"undecodable header ({type(exc).__name__})")
    base = _aligned(header_end + _CRC_BYTES)
    kinds: List[str] = []
    cols: List[Sequence[object]] = []
    for index, (tag, typecode, offset, nbytes) in enumerate(descriptors):
        if base + offset + nbytes > stat.st_size:
            corrupt(f"column {index} payload truncated")
        chunk = data[base + offset: base + offset + nbytes]
        if verify == "full" and zlib.crc32(chunk) != column_crcs[index]:
            corrupt(f"column {index} payload checksum mismatch")
        if tag == "arr":
            view = chunk.cast(typecode)
            if len(view):
                kinds.append(_TYPECODE_KINDS[typecode])
                cols.append(view)
            else:
                kinds.append(_KIND_EMPTY)
                cols.append([])
        elif tag == "empty":
            kinds.append(_KIND_EMPTY)
            cols.append([])
        else:
            try:
                values = list(pickle.loads(chunk))
            except Exception as exc:
                corrupt(f"column {index} payload undecodable ({type(exc).__name__})")
            kinds.append(_KIND_OBJECT if values else _KIND_EMPTY)
            cols.append(values)
    return _MappedFile(path, mm, _file_token(path, stat)), header, kinds, cols


def _thaw(buffer: Sequence[object]) -> Sequence[object]:
    """A private in-memory buffer for ``buffer`` (mapped views become arrays)."""
    if isinstance(buffer, memoryview):
        out = array(buffer.format)
        out.frombytes(buffer.tobytes())
        return out
    return buffer


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class MmapStore(ColumnStore):
    """Columnar backend whose typed buffers live in an mmap'd file.

    Construction persists the buffers anonymously under
    :func:`get_store_dir` and reopens them through the mapping, so reads go
    through the same zero-copy path a restarted process would use.  Any
    mutation detaches the store from its file first (files are immutable);
    :meth:`save` re-attaches to an explicit path and :meth:`open` maps an
    existing file with no decode step — including the persisted mutation
    epoch, so caches keyed on it stay correct across a restart.
    """

    backend = "mmap"
    __slots__ = ("_mapped",)

    def __init__(self, width: int) -> None:
        super().__init__(width)
        self._mapped: Optional[_MappedFile] = None

    # -- persistence ---------------------------------------------------------
    @classmethod
    def open(cls, path: os.PathLike) -> "MmapStore":
        """Map an existing dataset file (no decode step, epoch restored)."""
        store = cls(0)
        store._attach(os.fspath(path), anonymous=False)
        return store

    def save(self, path: os.PathLike, meta: Optional[dict] = None) -> str:
        """Write this store to ``path`` atomically and re-attach through it.

        Unlike the anonymous construction-time persist, failures here
        propagate — an explicit save that cannot encode (unpicklable
        object-column values) or cannot write must not succeed silently.
        """
        path = os.fspath(path)
        blob = _encode_file(
            self.width, self._length, self.epoch, self._kinds, self._cols, meta
        )
        _write_blob(path, blob)
        self._attach(path, anonymous=False)
        return path

    def _attach(self, path: str, anonymous: bool) -> None:
        mapped, header, kinds, cols = _map_file(path)
        if anonymous:
            mapped.finalizer = weakref.finalize(mapped, forget_anonymous, path)
        self.width = header["width"]
        self._kinds = kinds
        self._cols = cols
        self._length = header["length"]
        self._row_cache = None
        self._epoch = header["epoch"]
        self._mapped = mapped

    def _persist_anonymous(self) -> None:
        """Write freshly-built buffers to an anonymous file and map them.

        A store whose object columns cannot pickle stays detached — it is
        still a fully valid (bit-identical) in-memory store.
        """
        if self._mapped is not None or self._length == 0:
            return
        try:
            blob = _encode_file(
                self.width, self._length, self.epoch, self._kinds, self._cols
            )
        except Exception:
            return
        path = _write_anonymous("anon", blob)
        try:
            self._attach(path, anonymous=True)
        except (CorruptShardError, FileNotFoundError, OSError):
            # The reopen failed (or a fault plan made it fail): stay
            # detached — the in-memory buffers are still bit-identical —
            # and drop the orphaned file.
            forget_anonymous(path)

    def _materialize(self) -> None:
        """Thaw every mapped buffer into a private in-memory one.

        Called before any mutation: the file is immutable and its buffers
        (typed views *and* unpickled object lists) may be shared with
        copies, so mutation always detaches onto fresh buffers first.  The
        epoch is kept — the mutation about to happen bumps it, exactly as if
        the store had never been mapped.
        """
        if self._mapped is None:
            return
        self._cols = [
            _thaw(col) if isinstance(col, memoryview) else list(col)
            for col in self._cols
        ]
        self._mapped = None

    @property
    def is_mapped(self) -> bool:
        """Whether reads currently go through an mmap'd file."""
        return self._mapped is not None

    @property
    def path(self) -> Optional[str]:
        """The backing file's path, or ``None`` when detached."""
        mapped = self._mapped
        return mapped.path if mapped is not None else None

    def file_handle(self) -> Optional[Tuple[str, str]]:
        """The ``(token, path)`` handle process workers map, if mapped.

        Detached stores return ``None`` — a publication then writes their
        buffers with :func:`write_anonymous`.
        """
        mapped = self._mapped
        if mapped is None:
            return None
        return (mapped.token, mapped.path)

    # -- mutation ------------------------------------------------------------
    def append(self, row: Sequence[object]) -> None:
        self._materialize()
        super().append(row)

    # -- derivation ----------------------------------------------------------
    def project(self, positions: Sequence[int]) -> ColumnStore:
        if self._mapped is None:
            return super().project(positions)
        kinds = [self._kinds[p] for p in positions]
        cols = [_thaw(self._cols[p][:]) for p in positions]
        return self._adopt(kinds, cols, self._length)

    def head(self, count: int) -> ColumnStore:
        if self._mapped is None:
            return super().head(count)
        count = max(0, min(count, self._length))
        kinds = [k if count else _KIND_EMPTY for k in self._kinds]
        cols = [_thaw(col[:count]) if count else [] for col in self._cols]
        return self._adopt(kinds, cols, count)

    def copy(self) -> "MmapStore":
        out = MmapStore.__new__(MmapStore)
        out.width = self.width
        out._kinds = list(self._kinds)
        out._length = self._length
        out._row_cache = None
        if self._mapped is not None:
            # Copies share the mapping (reads are immutable); the shared
            # _MappedFile keeps the file alive until the last copy dies, and
            # mutation of any copy materializes private buffers first.
            out._cols = list(self._cols)
            out._mapped = self._mapped
        else:
            out._cols = [col[:] for col in self._cols]
            out._mapped = None
        return out

    # -- construction --------------------------------------------------------
    @classmethod
    def in_memory_class(cls) -> Type[ColumnStore]:
        return ColumnStore

    @classmethod
    def from_columns(cls, width: int, columns: Sequence[Sequence[object]]) -> "MmapStore":
        store = super().from_columns(width, columns)
        store._persist_anonymous()
        return store

    # -- pickling ------------------------------------------------------------
    def __reduce__(self):
        # Mapped stores hold memoryviews and an mmap object — neither
        # pickles.  Ship the typed buffers as raw bytes instead; the rebuilt
        # store is detached (parallel.py ships file handles instead).
        columns: List[Tuple[Optional[str], object]] = []
        for kind, col in zip(self._kinds, self._cols):
            typecode = _KIND_TYPECODES.get(kind)
            if typecode is not None:
                data = col.tobytes() if isinstance(col, (array, memoryview)) else array(typecode, col).tobytes()
                columns.append((typecode, data))
            else:
                columns.append((None, list(col)))
        return (_rebuild_detached, (self.width, self._length, self.epoch, columns))


def _rebuild_detached(
    width: int,
    length: int,
    epoch: int,
    columns: Sequence[Tuple[Optional[str], object]],
) -> MmapStore:
    store = MmapStore(width)
    kinds: List[str] = []
    cols: List[Sequence[object]] = []
    for typecode, data in columns:
        if typecode is not None:
            buf = array(typecode)
            buf.frombytes(data)
            if len(buf):
                kinds.append(_TYPECODE_KINDS[typecode])
                cols.append(buf)
            else:
                kinds.append(_KIND_EMPTY)
                cols.append([])
        else:
            values = list(data)
            kinds.append(_KIND_OBJECT if values else _KIND_EMPTY)
            cols.append(values)
    store._kinds = kinds
    store._cols = cols
    store._length = length
    if epoch:
        store._epoch = epoch
    return store


# The sharded variant: mmap-backed shards.  Whole-column reads concatenate
# the mapped views at C speed, and every shard hands out its own file, so a
# process-mode publication writes nothing.
MmapShardedStore = ShardedStore.configured(4, name="mmap-sharded", shard_backend=MmapStore.backend)

register_backend(MmapStore.backend, MmapStore)
register_backend(MmapShardedStore.backend, MmapShardedStore)


# ---------------------------------------------------------------------------
# Dataset directories: whole databases on disk
# ---------------------------------------------------------------------------

def _store_buffers(store: Store) -> Tuple[List[str], List[Sequence[object]]]:
    """Column kinds/buffers for any store (columnar layouts read directly)."""
    if isinstance(store, ColumnStore):
        return list(store._kinds), list(store._cols)
    kinds: List[str] = []
    cols: List[Sequence[object]] = []
    for position in range(store.width):
        kind, buf = _typed_buffer(store.column(position))
        kinds.append(kind)
        cols.append(buf)
    return kinds, cols


def _store_blob(store: Store) -> bytes:
    kinds, cols = _store_buffers(store)
    return _encode_file(store.width, len(store), store.epoch, kinds, cols)


def _write_store_file(path: str, store: Store) -> None:
    _write_blob(path, _store_blob(store))


def write_anonymous(store: Store) -> Tuple[str, str]:
    """Write any store's buffers to a ``pub-*`` file; its ``(token, path)`` handle.

    How a shard with no file of its own reaches worker processes, which
    :meth:`MmapStore.open` the path.  An empty store is written too — the
    worker needs the file to learn its width.  Raises whatever :mod:`pickle`
    raises for unpicklable object-column values.  The caller owns the file
    and releases it with :func:`forget_anonymous`.
    """
    path = _write_anonymous("pub", _store_blob(store))
    return (_file_token(path, os.stat(path)), path)


def save_database(database: Database, directory: os.PathLike) -> str:
    """Write every relation of ``database`` into a dataset directory.

    One ``.rpro`` file per relation (per shard, in shard order, for sharded
    sources — the shard count and sizes are preserved), plus a manifest
    recording the schema (when it pickles; pass ``schema=`` to
    :func:`open_database` otherwise) and the database's publication epoch.  Any source backend works; reopening
    always yields mmap-backed stores.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    entries: List[Dict[str, object]] = []
    for name in database.relation_names:
        store = database.relation(name).store
        if isinstance(store, ShardedStore):
            files = []
            for index, shard in enumerate(store.shards):
                filename = f"{name}.shard{index}{FILE_SUFFIX}"
                _write_store_file(os.path.join(directory, filename), shard)
                files.append(filename)
            entries.append({"name": name, "layout": "sharded", "files": files, "epoch": store.epoch})
        else:
            filename = f"{name}{FILE_SUFFIX}"
            _write_store_file(os.path.join(directory, filename), store)
            entries.append(
                {"name": name, "layout": "plain", "files": [filename], "epoch": store.epoch}
            )
    manifest = {
        "format": _MAGIC.decode("ascii"),
        "version": MANIFEST_VERSION,
        "publication_epoch": database.publication_epoch,
        "relations": entries,
    }
    try:
        payload = pickle.dumps({**manifest, "schema": database.schema}, _PICKLE_PROTOCOL)
    except Exception:
        # Schemas with unpicklable distance callables still get a dataset;
        # the reopener must then supply the schema explicitly.
        payload = pickle.dumps({**manifest, "schema": None}, _PICKLE_PROTOCOL)
    _write_blob(os.path.join(directory, MANIFEST_NAME), payload)
    return directory


def open_database(
    directory: os.PathLike, schema: Optional[DatabaseSchema] = None
) -> Database:
    """Reopen a :func:`save_database` dataset as mmap-backed relations.

    Stores map their files directly (no decode step); sharded sources come
    back as mmap-sharded stores over the saved shard files, in file order.
    The persisted publication epoch is restored exactly, so serving-layer
    cache keys minted before a restart stay valid after it.  A manifest of
    any other :data:`MANIFEST_VERSION` raises :exc:`ValueError`: version 1
    datasets may hold interleaved shards, which version 2 would reopen with
    their rows reordered.
    """
    directory = os.fspath(directory)
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    with open(manifest_path, "rb") as handle:
        manifest = pickle.loads(handle.read())
    if manifest.get("format") != _MAGIC.decode("ascii"):
        raise ValueError(f"{manifest_path!r} is not a repro dataset manifest")
    version = manifest.get("version")
    if version != MANIFEST_VERSION:
        raise ValueError(
            f"{manifest_path!r} has manifest version {version!r}; this release "
            f"reads version {MANIFEST_VERSION} only"
        )
    if schema is None:
        schema = manifest.get("schema")
    if schema is None:
        raise ValueError(
            "dataset manifest carries no schema (it did not pickle at save "
            "time); pass schema= to open_database"
        )
    database = Database(schema)
    for entry in manifest["relations"]:
        name = entry["name"]
        if entry["layout"] == "sharded":
            shards: List[Store] = [
                MmapStore.open(os.path.join(directory, filename))
                for filename in entry["files"]
            ]
            cls = ShardedStore.configured(len(shards), shard_backend=MmapStore.backend)
            store: Store = cls(shards[0].width, shards)
        else:
            store = MmapStore.open(os.path.join(directory, entry["files"][0]))
        store._epoch = entry["epoch"]
        database.set_relation(name, Relation(schema.relation(name), store=store))
    database.restore_publication_epoch(manifest["publication_epoch"])
    return database
