"""The one process-wide ``Config``: what it accepts, how it changes, what it seeds from.

Table-driven: one row per field gives its default, legal values (boundaries
included) and one junk value per way of being wrong.  Every row runs through
the same ``configure`` — there is no per-setting validator left to test.  The
environment table is driven the way a deployment meets it: ``import repro``
in a fresh interpreter with one ``REPRO_*`` variable set.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro import Config, configure, current_config
from repro.config import ENV
from repro.relational import parallel
from repro.relational import store as store_module
from repro.relational.store import RowStore, register_backend

INF, NAN = float("inf"), float("nan")

# field -> (default, legal values, junk values)
FIELDS = {
    "shard_executor": ("serial", ["serial", "process"], ["thread", "", "PROCESS", 0, 1.5, b"serial"]),
    "shard_workers": (None, [1, 2, 64], [0, -1, 2.5, "4", True, INF, NAN]),
    "process_min_rows": (4096, [1, 7, 10**9], [0, -5, 1.5, "7", False, INF, NAN]),
    # an unregistered name: test_default_backend_is_checked_against_the_registry_at_the_call
    "default_backend": ("row", ["column", "sharded", "mmap", "row"], ["", 0, 1.5]),
    "store_dir": (None, [], [123, 1.5, "", b"bytes"]),  # legal paths: TestStoreDir
    "checksum_mode": ("header", ["off", "header", "full"], ["paranoid", "FULL", "", 2]),
    "admission_policy": ("queue", ["reject", "queue", "degrade-alpha"], ["best-effort", "", 0]),
    "program_cache_capacity": (0, [0, 1, 256], [-1, 1.5, "8", INF, NAN]),
    "retry_backoff": (0.05, [0, 0.0, 0.01, 5], [-0.1, INF, -INF, NAN, "fast", True]),
    "breaker_cooldown": (30.0, [0.001, 0.25, 30], [0, 0.0, -1, INF, NAN, "soon"]),
}

LEGAL = [(name, value) for name, (_d, legal, _j) in FIELDS.items() for value in legal]
JUNK = [(name, value) for name, (_d, _l, junk) in FIELDS.items() for value in junk]


def test_the_table_covers_exactly_the_fields():
    assert [field.name for field in dataclasses.fields(Config)] == list(FIELDS)
    assert Config() == Config(**{name: default for name, (default, _l, _j) in FIELDS.items()})


@pytest.mark.parametrize("name, value", LEGAL, ids=repr)
def test_legal_values_are_installed_and_none_restores_the_default(name, value):
    before = current_config()
    assert configure(**{name: value}) is before  # the previous Config comes back
    assert getattr(current_config(), name) == value
    assert current_config() == dataclasses.replace(before, **{name: value})  # nothing else moved
    configure(**{name: None})
    assert getattr(current_config(), name) == FIELDS[name][0]


@pytest.mark.parametrize("name, value", JUNK, ids=repr)
def test_junk_raises_and_changes_nothing(name, value):
    before = current_config()
    with pytest.raises((ValueError, TypeError), match=name):
        configure(**{name: value})
    assert current_config() is before
    with pytest.raises((ValueError, TypeError), match=name):
        Config(**{name: value})  # a Config that exists is legal


def test_unknown_settings_raise_and_change_nothing():
    before = current_config()
    with pytest.raises(TypeError, match="mask_chunk_size"):
        configure(mask_chunk_size=512)
    with pytest.raises(TypeError):
        configure("serial")  # the positional slot takes a whole Config
    assert current_config() is before


def test_configure_is_atomic():
    before = current_config()
    with pytest.raises(ValueError, match="process_min_rows"):
        configure(retry_backoff=0.5, checksum_mode="off", process_min_rows=0)
    assert current_config() is before


def test_configure_previous_restores():
    before = current_config()
    previous = configure(retry_backoff=1.5, admission_policy="reject", process_min_rows=3)
    assert previous is before and current_config() != before
    configure(previous)
    assert current_config() == before
    # A base plus overrides: the whole object, then the named fields.
    configure(Config(), breaker_cooldown=2)
    assert current_config() == Config(breaker_cooldown=2.0)


def test_config_is_frozen_normalized_and_picklable(tmp_path):
    config = Config(retry_backoff=1, store_dir=tmp_path / "a" / ".." / "b")
    assert isinstance(config.retry_backoff, float)
    assert config.store_dir == str(tmp_path / "b")
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.retry_backoff = 2.0
    assert pickle.loads(pickle.dumps(config)) == config
    assert Config(shard_workers=3).worker_count == 3
    assert Config().worker_count == max(1, os.cpu_count() or 1)


def test_default_backend_is_checked_against_the_registry_at_the_call():
    class LateStore(RowStore):
        backend = "late-registered"

    with pytest.raises(ValueError, match="late-registered"):
        configure(default_backend="late-registered")
    register_backend("late-registered", LateStore)
    try:
        configure(default_backend="late-registered")
        assert isinstance(store_module.make_store(2), LateStore)
    finally:
        configure(default_backend=None)
        store_module._BACKENDS.pop("late-registered")
        repro.config._backend_names.remove("late-registered")


class TestStoreDir:
    def test_configure_creates_the_directory(self, tmp_path):
        target = tmp_path / "deep" / "er"
        configure(store_dir=target)
        assert current_config().store_dir == str(target) and target.is_dir()

    def test_an_unusable_path_raises_value_error(self, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("occupied")
        before = current_config()
        with pytest.raises(ValueError, match="store_dir"):
            configure(store_dir=blocker / "child")  # cannot mkdir under a file
        assert current_config() is before


def test_only_what_the_workers_carry_retires_the_router():
    workers = current_config().worker_count
    router = parallel._ensure_router()  # slots spawn no worker until a task is routed
    configure(shard_workers=workers)  # the value it already has
    configure(shard_executor="process", process_min_rows=1, retry_backoff=0.0)
    assert parallel._ensure_router() is router  # parent-side decisions keep it warm
    configure(checksum_mode="off" if current_config().checksum_mode != "off" else "full")
    assert parallel._router is None  # a setting the workers read
    router = parallel._ensure_router()
    configure(shard_workers=workers + 1)
    fresh = parallel._ensure_router()
    assert fresh is not router and fresh.slot_count == workers + 1


def test_concurrent_configure_and_current_never_tear():
    """8 threads: writers move *pairs* of fields together, readers must never
    see a pair disagree, and no writer's last update may be lost."""
    # (two fields, the two value pairs their writer alternates between)
    pairs = [
        ("retry_backoff", "breaker_cooldown", [(0.25, 0.25), (2.0, 2.0)]),
        ("process_min_rows", "program_cache_capacity", [(3, 3), (11, 11)]),
        ("shard_executor", "admission_policy", [("serial", "reject"), ("process", "queue")]),
    ]
    rounds = 300
    torn, errors = [], []
    done = threading.Event()

    def write(first, second, values):
        for step in range(rounds):
            left, right = values[step % 2]
            configure(**{first: left, second: right})

    def read():
        while not done.is_set():
            seen = current_config()
            if seen.retry_backoff != seen.breaker_cooldown:
                torn.append(seen)
            if seen.process_min_rows != seen.program_cache_capacity:
                torn.append(seen)
            if (seen.shard_executor == "serial") != (seen.admission_policy == "reject"):
                torn.append(seen)

    def guarded(fn, *args):
        try:
            fn(*args)
        except Exception as exc:  # surfaced below: a thread must not die silently
            errors.append(exc)

    for first, second, values in pairs:  # start consistent, at the value each writer ends on
        configure(**dict(zip((first, second), values[1])))
    writers = [threading.Thread(target=guarded, args=(write, *pair)) for pair in pairs]
    readers = [threading.Thread(target=guarded, args=(read,)) for _ in range(5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(60)
        done.set()
        for thread in readers:
            thread.join(60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers + writers)
    assert not errors and not torn
    last = current_config()  # every writer's final step landed: no lost update
    assert (last.retry_backoff, last.process_min_rows, last.shard_executor) == (2.0, 11, "process")


# ---------------------------------------------------------------------------
# The environment table, as a deployment meets it
# ---------------------------------------------------------------------------

SRC = str(Path(repro.__file__).resolve().parent.parent)

# variable -> (what to print, a valid value and what it prints, a junk value or None)
ENV_CASES = {
    "REPRO_SHARD_EXECUTOR": ("repro.current_config().shard_executor", " Process ", "process", "thread"),
    "REPRO_SHARD_WORKERS": ("repro.current_config().shard_workers", "8", "8", "four"),
    "REPRO_DEFAULT_BACKEND": ("repro.current_config().default_backend", "MMAP", "mmap", "parquet"),
    "REPRO_STORE_DIR": ("repro.current_config().store_dir", "/tmp/repro-env-probe", "/tmp/repro-env-probe", None),
    "REPRO_CHECKSUM": ("repro.current_config().checksum_mode", "full", "full", "ful"),
    "REPRO_SERVING_POLICY": ("repro.current_config().admission_policy", "degrade-alpha", "degrade-alpha", "yolo"),
    "REPRO_FAULT_PLAN": ("repro.faults.active_spec()", "seed=5;test.x:at=1", "seed=5;test.x:at=1", "no.such.site:p=1"),
}


def import_repro_with(variable, value, expression):
    environment = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    environment.update({"PYTHONPATH": SRC, variable: value})
    return subprocess.run(
        [sys.executable, "-c", f"import repro; print({expression})"],
        env=environment, capture_output=True, text=True, timeout=60,
    )


def test_the_cases_cover_the_table():
    assert set(ENV_CASES) == set(ENV) | {"REPRO_FAULT_PLAN"}


@pytest.mark.parametrize("variable", ENV_CASES)
def test_environment_valid_blank_junk(variable):
    expression, valid, printed, junk = ENV_CASES[variable]
    done = import_repro_with(variable, valid, expression)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == printed
    blank = import_repro_with(variable, "   ", expression)
    assert blank.returncode == 0, blank.stderr
    default = import_repro_with("REPRO_UNRELATED", "x", expression)
    assert blank.stdout == default.stdout  # blank means unset
    if junk is not None:  # any non-blank REPRO_STORE_DIR is a path
        refused = import_repro_with(variable, junk, expression)
        assert refused.returncode != 0
        message = refused.stderr.strip().splitlines()[-1]  # the exception, not the traceback's source lines
        assert message.startswith("ValueError") and variable in message and junk in message
