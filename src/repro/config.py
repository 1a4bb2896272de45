"""Configuration: the one process-wide settings object.

The paper gives its user one knob, the resource ratio α, and that one is an
argument of every call.  Everything *else* this reproduction lets a process
tune lives here, in one frozen :class:`Config` that is swapped whole:

* :func:`current` reads it — one call and one attribute, no lock.  Code
  reads ``config.current().x`` at the moment it needs ``x`` (never binds a
  field at import), so a :func:`configure` is seen by the next operation.
* :func:`configure` changes it — every override is validated before
  anything changes, ``None`` means "the field's default", and the previous
  :class:`Config` comes back so ``configure(previous)`` restores it.
* The ``REPRO_*`` table (:data:`ENV`) seeds it once, when this module is
  imported.  Blank or unset means the default; a value that does not parse
  raises :exc:`ValueError` naming the variable and what it accepts.

==========================  =========  ==============================  ====================  =======
field                       default    legal values                    environment           workers
==========================  =========  ==============================  ====================  =======
``shard_executor``          "serial"   "serial", "process"             REPRO_SHARD_EXECUTOR  no
``shard_workers``           None       None (= ``os.cpu_count()``)     REPRO_SHARD_WORKERS   yes
                                       or an integer >= 1
``process_min_rows``        4096       an integer >= 1                 —                     no
``default_backend``         "column"   a registered backend name       REPRO_DEFAULT_BACKEND no
``store_dir``               None       None (= a lazily created temp   REPRO_STORE_DIR       no
                                       dir) or a creatable path
``checksum_mode``           "header"   "off", "header", "full"         REPRO_CHECKSUM        yes
``breaker_cooldown``        30.0       finite seconds > 0              —                     no
==========================  =========  ==============================  ====================  =======

What each one means:

``shard_executor``
    Where a :class:`~repro.relational.store.ShardedStore` evaluates the
    mask of its fused select+gather: in the caller, or on the worker
    processes of :mod:`repro.relational.parallel`.  Every other operation,
    and every dispatch that cannot or does not complete (a small store, an
    unpicklable masker, an open breaker, a dispatch that fails), runs in
    the caller; results are bit-identical.
``shard_workers``
    Width of the process pool: its number of worker processes.  ``1`` keeps
    all work in the caller.  A change retires the running workers; the next
    dispatch re-creates them.
``process_min_rows``
    Stores smaller than this stay in the caller in process mode: shipping
    work to another process only pays once per-shard work dominates the
    pickling and the round trip.
``default_backend``
    The store layout behind ``Relation(..., backend=None)``.  Checked
    against the backend registry as it stands when :func:`configure` is
    called (third-party backends register at run time).
``store_dir``
    Where :mod:`~repro.relational.mmapstore` writes anonymous dataset files
    and process-mode publications (``mmapstore.get_store_dir()`` resolves
    and creates it).  :func:`configure` creates the directory, so a bad path
    fails there and not at the first persist.
``checksum_mode``
    How much of a ``.rpro`` file is CRC-verified when it is opened: nothing,
    the structural header, or the header and every column payload.  CRCs
    are always written.
``breaker_cooldown``
    Seconds the tripped process-dispatch circuit breaker stays open before
    it admits one half-open recovery probe.

**Workers.**  A worker process imports the package afresh, so the parent
ships its :class:`Config` by value with the pool's initializer arguments
and the worker installs it unchanged; a worker never dispatches further,
whatever its ``shard_executor`` says.  Changing a field marked *yes*
retires the worker pool (``checksum_mode`` is read inside workers,
``shard_workers`` is the pool's width), and the next dispatch spawns
workers that carry the new value.

This module imports nothing from the package.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = ["Config", "ENV", "configure", "current", "declare_backend", "subscribe"]

EXECUTOR_MODES = ("serial", "process")
CHECKSUM_MODES = ("off", "header", "full")

_lock = threading.Lock()  # guards every write to this module's state

# The names ``default_backend`` may take: the keys of the store registry,
# which declares each one here as it registers the class (this module cannot
# import the registry).
_backend_names: List[str] = []


def declare_backend(name: str) -> None:
    """Make ``name`` a legal ``default_backend`` (``store.register_backend`` calls this)."""
    with _lock:
        if name not in _backend_names:
            _backend_names.append(name)


def _one_of(choices: Tuple[str, ...]) -> Callable[[str, object], str]:
    def check(field: str, value: object) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ValueError(f"{field} must be one of {choices}, got {value!r}")
        return value

    return check


def _integer(minimum: int) -> Callable[[str, object], int]:
    def check(field: str, value: object) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{field} must be an integer >= {minimum}, got {value!r}")
        if value < minimum:
            raise ValueError(f"{field} must be an integer >= {minimum}, got {value!r}")
        return value

    return check


def _seconds(field: str, value: object) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{field} must be a finite number of seconds > 0, got {value!r}")
    seconds = float(value)
    if not math.isfinite(seconds) or seconds <= 0:
        raise ValueError(f"{field} must be a finite number of seconds > 0, got {value!r}")
    return seconds


def _optional(check: Callable[[str, object], object]) -> Callable[[str, object], object]:
    return lambda field, value: None if value is None else check(field, value)


def _backend_name(field: str, value: object) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{field} must be a registered backend name, got {value!r}")
    return value


def _directory(field: str, value: object) -> str:
    if not isinstance(value, (str, os.PathLike)):
        raise TypeError(f"{field} must be a path or None, got {value!r}")
    if not os.fspath(value):
        raise ValueError(f"{field} must be a non-empty path or None, got {value!r}")
    return os.path.abspath(os.path.expanduser(os.fspath(value)))


_CHECKS: Dict[str, Callable[[str, object], object]] = {
    "shard_executor": _one_of(EXECUTOR_MODES),
    "shard_workers": _optional(_integer(1)),
    "process_min_rows": _integer(1),
    "default_backend": _backend_name,
    "store_dir": _optional(_directory),
    "checksum_mode": _one_of(CHECKSUM_MODES),
    "breaker_cooldown": _seconds,
}


@dataclass(frozen=True)
class Config:
    """One immutable value of every process-wide setting (see the module table).

    Constructing one validates and normalizes every field, so any
    :class:`Config` that exists is legal; it pickles by value, which is how
    it reaches worker processes.
    """

    shard_executor: str = "serial"
    shard_workers: Optional[int] = None
    process_min_rows: int = 4096
    default_backend: str = "column"
    store_dir: Optional[str] = None
    checksum_mode: str = "header"
    breaker_cooldown: float = 30.0

    def __post_init__(self) -> None:
        for name, check in _CHECKS.items():
            object.__setattr__(self, name, check(name, getattr(self, name)))

    @property
    def worker_count(self) -> int:
        """``shard_workers`` resolved: ``None`` means ``os.cpu_count()``."""
        if self.shard_workers is not None:
            return self.shard_workers
        return max(1, os.cpu_count() or 1)


_DEFAULTS: Dict[str, object] = {field.name: field.default for field in fields(Config)}


def _parse_int(raw: str) -> object:
    try:
        return int(raw)
    except ValueError:
        return raw  # the field's check rejects the string and says what is accepted


# The one environment table: variable -> (field, parser of the stripped
# value).  REPRO_DEFAULT_BACKEND cannot be checked against the registry while
# this module loads (no backend is registered yet); ``repro.relational``
# re-checks it once its backends are.
ENV: Dict[str, Tuple[str, Callable[[str], object]]] = {
    "REPRO_SHARD_EXECUTOR": ("shard_executor", str.lower),
    "REPRO_SHARD_WORKERS": ("shard_workers", _parse_int),
    "REPRO_DEFAULT_BACKEND": ("default_backend", str.lower),
    "REPRO_STORE_DIR": ("store_dir", str),
    "REPRO_CHECKSUM": ("checksum_mode", str.lower),
}


def _from_env(environ: Mapping[str, str]) -> Config:
    """The :class:`Config` that ``environ``'s ``REPRO_*`` variables describe."""
    config = Config()
    for variable, (field, parse) in ENV.items():
        raw = environ.get(variable, "").strip()
        if raw:
            try:
                config = replace(config, **{field: parse(raw)})
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{variable}={raw!r}: {exc}") from None
    return config


_current = _from_env(os.environ)
_subscribers: List[Callable[[Config, Config], None]] = []


def current() -> Config:
    """The installed :class:`Config` (lock-free: the object is immutable)."""
    return _current


def subscribe(callback: Callable[[Config, Config], None]) -> None:
    """Call ``callback(previous, new)`` after every :func:`configure` that changed something.

    For package modules that own a resource sized by a setting (the worker
    pool); callbacks run outside the configuration lock.
    """
    with _lock:
        _subscribers.append(callback)


def configure(base: Optional[Config] = None, **overrides: object) -> Config:
    """Install ``base`` (default: the current settings) with ``overrides``; returns the previous :class:`Config`.

    ``None`` for a field restores its default.  An unknown field raises
    :exc:`TypeError`, an illegal value :exc:`ValueError` or :exc:`TypeError`;
    either way nothing has changed.  The swap is atomic: a concurrent
    :func:`current` sees the old object or the new one, never a mixture.
    """
    global _current
    if base is not None and not isinstance(base, Config):
        raise TypeError(f"configure() base must be a Config or None, got {type(base).__name__}")
    values = {
        name: _DEFAULTS.get(name) if value is None else value for name, value in overrides.items()
    }
    with _lock:
        previous = _current
        # Validates every value, and raises TypeError for a name that is no field.
        new = replace(previous if base is None else base, **values)
        if "default_backend" in values and new.default_backend not in _backend_names:
            raise ValueError(
                f"default_backend must be a registered backend name "
                f"{tuple(_backend_names)}, got {new.default_backend!r}"
            )
        if "store_dir" in values and new.store_dir is not None:
            try:
                os.makedirs(new.store_dir, exist_ok=True)
            except OSError as exc:
                raise ValueError(f"store_dir {new.store_dir!r} is not usable: {exc}") from exc
        _current = new
        subscribers = list(_subscribers)
    if new != previous:
        for callback in subscribers:
            callback(previous, new)
    return previous
