"""KNOB001 good fixture: validated setters, documented env override."""

import os

_chunk_rows = 4096
_mode = "thread"


def _parse_worker_count(name):
    raw = os.environ.get(name)
    if raw is None:
        return None
    value = int(raw)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


_workers = _parse_worker_count("REPRO_SHARD_WORKERS")


def set_chunk_rows(count):
    global _chunk_rows
    count = int(count)
    if count < 1:
        raise ValueError(f"chunk rows must be >= 1, got {count}")
    _chunk_rows = count


def _validate_mode(mode):
    if mode not in ("serial", "thread", "process"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def set_mode(mode):
    global _mode
    _mode = _validate_mode(mode)


# Serving-layer knob vocabulary: documented env overrides read through a
# parameterized helper, and a validated policy setter.
def _parse_choice(name, choices, default):
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    value = raw.strip().lower()
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {raw!r}")
    return value


_cache_backend = _parse_choice("REPRO_SERVING_CACHE", ("lru-ttl", "none"), "lru-ttl")
_policy = _parse_choice(
    "REPRO_SERVING_POLICY", ("reject", "queue", "degrade-alpha"), "queue"
)
# Shard-executor knob vocabulary: a documented mode env override read
# through the same parameterized helper, plus a validated setter.
_executor = _parse_choice(
    "REPRO_SHARD_EXECUTOR", ("serial", "thread", "process"), "thread"
)


def set_executor(mode):
    global _executor
    if mode not in ("serial", "thread", "process"):
        raise ValueError(f"executor mode must be serial/thread/process, got {mode!r}")
    _executor = mode


def set_admission_policy(policy):
    global _policy
    if policy not in ("reject", "queue", "degrade-alpha"):
        raise ValueError(f"unknown admission policy {policy!r}")
    _policy = policy


# Storage-tier knob vocabulary: the dataset directory and the process-wide
# default backend, both in the documented allowlist.
def _parse_path(name):
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    return raw.strip()


_store_dir = _parse_path("REPRO_STORE_DIR")
_default_backend = _parse_path("REPRO_DEFAULT_BACKEND")


def set_store_dir(path):
    global _store_dir
    if path is not None and not isinstance(path, str):
        raise TypeError(f"store directory must be a path or None, got {path!r}")
    _store_dir = path


# Resilience knob vocabulary (PR 10): the fault plan, the dispatch retry
# bound and the storage checksum mode — all in the documented allowlist,
# all behind validating setters.
_fault_plan = _parse_path("REPRO_FAULT_PLAN")
_dispatch_retries = _parse_worker_count("REPRO_DISPATCH_RETRIES")
_checksum_mode = _parse_choice("REPRO_CHECKSUM", ("off", "header", "full"), "header")


def set_fault_plan(spec):
    global _fault_plan
    if spec is not None and not isinstance(spec, str):
        raise ValueError(f"fault plan must be a spec string or None, got {spec!r}")
    _fault_plan = spec


def set_dispatch_retries(count):
    global _dispatch_retries
    if count is not None:
        count = int(count)
        if count < 0:
            raise ValueError(f"dispatch retries must be >= 0, got {count}")
    _dispatch_retries = count


def set_checksum_mode(mode):
    global _checksum_mode
    if mode not in ("off", "header", "full"):
        raise ValueError(f"checksum mode must be off/header/full, got {mode!r}")
    _checksum_mode = mode
