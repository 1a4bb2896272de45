"""Shared fixtures: small deterministic datasets, BEAS instances, and the
cross-backend conformance machinery.

Any test that takes a ``backend`` fixture argument is automatically
parametrized over **every registered storage backend**
(:func:`repro.relational.store.list_backends`) at collection time — row,
column, the sharded defaults, the 1-/7-shard variants registered below, and
any backend a later PR registers at import time — **crossed with the shard
executors** that matter for that platform: every backend case runs under
the default ``"thread"`` executor and again under ``"process"`` (the
worker processes of :mod:`repro.relational.parallel`, which map each shard
from a published file), with the process-mode size threshold forced to 1 so
even the small test relations genuinely round-trip through worker
processes.  Use :func:`assert_identical` / :func:`to_backend` to phrase
differential assertions against the row-backed reference.

:func:`pytest_unconfigure` is the suite's exit watchdog: a run whose
interpreter is still alive 15 s after the last test is killed with exit
status 3 and a list of the children it was waiting for.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import sys
import threading

import pytest

from repro import Beas, ConstraintSpec, Database, FamilySpec, Relation, configure, current_config
from repro.algebra.ast import check_difference_types
from repro.errors import QueryError
from repro.relational import parallel
from repro.relational.distance import CATEGORICAL, NUMERIC, numeric_scaled
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema
from repro.relational.store import ShardedStore, list_backends, register_backend
from repro.workloads import social, tpch

# ---------------------------------------------------------------------------
# Cross-backend conformance matrix
# ---------------------------------------------------------------------------

# The sharded backend at 1 and 7 shards (the default "sharded" is 4), with
# partitioners chosen so the matrix exercises all three strategies: range
# (contiguous fast paths), round_robin (the default interleave), hash.
for _name, _cls in (
    ("sharded1", ShardedStore.configured(1, "range", name="sharded1")),
    ("sharded7", ShardedStore.configured(7, "hash", name="sharded7")),
):
    if _name not in list_backends():
        register_backend(_name, _cls)

# Shard-parallel execution needs more than one worker to engage; single-core
# CI boxes would otherwise silently test the sequential fallback only.
if current_config().worker_count < 2:
    configure(shard_workers=2)

# One process pool for the whole session (probing spawns it); when the
# platform cannot run worker processes at all, the matrix collapses to the
# thread executor instead of failing every process leg.
SHARD_EXECUTORS = (
    ("thread", "process") if parallel.probe_process_executor() else ("thread",)
)


@pytest.fixture(autouse=True)
def _restore_config():
    """Every test leaves the process-wide settings as it found them.

    Tests therefore just call ``configure(...)``; nothing they set
    needs a ``try``/``finally``.  (Restoring ``checksum_mode`` or
    ``shard_workers`` retires the worker pool, as changing them did.)
    """
    snapshot = current_config()
    yield
    if current_config() != snapshot:
        configure(snapshot)


@pytest.fixture
def backend(request):
    """One (storage backend, shard executor) conformance-matrix cell.

    Yields the backend name (what tests pass to ``Relation(...,
    backend=...)``); the executor half is applied process-wide for the
    test's duration.  Process legs drop the size threshold to 1 so the tiny
    test relations actually cross into the worker processes.
    """
    name, executor = request.param
    configure(shard_executor=executor)
    if executor == "process":
        configure(process_min_rows=1)
    return name


@pytest.fixture
def store_dir(tmp_path):
    """Pin the anonymous / published file directory to this test's tmpdir."""
    directory = tmp_path / "store"
    configure(store_dir=directory)
    return str(directory)


def pytest_generate_tests(metafunc):
    """Parametrize ``backend``-taking tests over backends × shard executors."""
    if "backend" in metafunc.fixturenames:
        metafunc.parametrize(
            "backend",
            [
                pytest.param((name, executor), id=f"{name}-{executor}")
                for name in list_backends()
                for executor in SHARD_EXECUTORS
            ],
            indirect=True,
        )


EXIT_WATCHDOG_SECONDS = 15.0


def pytest_unconfigure(config):
    """Stop the workers, then refuse to let the interpreter hang at exit.

    A worker that outlives :func:`parallel.shutdown` is joined by
    ``concurrent.futures``' exit hook, which used to stall the suite for a
    minute or for ever after its last test.  The daemon timer turns such a
    stall into a red run that names the children responsible.
    """
    parallel.shutdown()

    def still_alive():
        children = [(child.pid, child.name) for child in multiprocessing.active_children()]
        print(
            f"\nexit watchdog: interpreter still alive {EXIT_WATCHDOG_SECONDS:.0f} s "
            f"after the last test; live children: {children}",
            file=sys.stderr,
            flush=True,
        )
        os._exit(3)

    watchdog = threading.Timer(EXIT_WATCHDOG_SECONDS, still_alive)
    watchdog.daemon = True
    watchdog.start()


def identity_key(row):
    """Sortable key distinguishing types and NaN (``1`` != ``1.0`` here)."""
    return tuple(f"{type(v).__name__}:{v!r}" for v in row)


def assert_identical(left: Relation, right: Relation):
    """Bit-identical contents: same multiset of (typed) rows, same order."""
    assert left.schema.attribute_names == right.schema.attribute_names
    lrows, rrows = list(left), list(right)
    assert [identity_key(r) for r in lrows] == [identity_key(r) for r in rrows]


def union_compatible(ast, schema) -> bool:
    """Every ``except`` pairs numeric with numeric columns (else the engine refuses the query)."""
    try:
        check_difference_types(ast, schema)
    except QueryError:
        return False
    return True


def to_backend(database: Database, backend: str) -> Database:
    """Rebuild every relation of ``database`` on ``backend``."""
    relations = [
        Relation(
            database.relation(name).schema,
            database.relation(name).rows,
            backend=backend,
        )
        for name in database.relation_names
    ]
    return Database.from_relations(relations)


@pytest.fixture(scope="session")
def social_workload():
    """A small instance of the Example-1 social workload."""
    return social.generate(persons=300, pois=1500, cities=15, max_friends=6, seed=11)


@pytest.fixture(scope="session")
def social_db(social_workload):
    return social_workload.database


@pytest.fixture(scope="session")
def social_beas(social_workload):
    return Beas(
        social_workload.database,
        constraints=social_workload.constraints,
        families=social_workload.families,
    )


@pytest.fixture(scope="session")
def tpch_workload():
    """A scale-1 TPC-H-like workload."""
    return tpch.generate(scale=1, seed=13)


@pytest.fixture(scope="session")
def tpch_beas(tpch_workload):
    return Beas(
        tpch_workload.database,
        constraints=tpch_workload.constraints,
        families=tpch_workload.families,
    )


@pytest.fixture()
def tiny_schema():
    """A tiny two-relation schema used by unit tests."""
    return DatabaseSchema(
        [
            RelationSchema(
                "emp",
                [
                    Attribute("eid"),
                    Attribute("dept"),
                    Attribute("salary", numeric_scaled(100.0)),
                    Attribute("grade", CATEGORICAL),
                ],
            ),
            RelationSchema(
                "dept",
                [Attribute("did"), Attribute("name", CATEGORICAL), Attribute("budget", NUMERIC)],
            ),
        ]
    )


@pytest.fixture()
def tiny_db(tiny_schema):
    """A tiny deterministic database over :func:`tiny_schema`."""
    rng = random.Random(5)
    emp_rows = [
        (i, i % 5, round(30 + (i * 7) % 70 + rng.random(), 2), f"g{i % 3}")
        for i in range(60)
    ]
    dept_rows = [(d, f"dept_{d}", 1000.0 + 100 * d) for d in range(5)]
    return Database(
        tiny_schema,
        {
            "emp": Relation(tiny_schema.relation("emp"), emp_rows),
            "dept": Relation(tiny_schema.relation("dept"), dept_rows),
        },
    )


@pytest.fixture()
def tiny_beas(tiny_db):
    return Beas(
        tiny_db,
        constraints=[
            ConstraintSpec("dept", ("did",), ("name", "budget"), n=1),
            ConstraintSpec("emp", ("eid",), ("dept", "salary", "grade"), n=1),
        ],
        families=[
            FamilySpec("emp", ("dept",), ("salary", "grade", "eid")),
        ],
    )
