"""The four workloads: what each sets up, which operations it replays, and why.

Inputs come in two parts.  The *corpus* of a workload — its dataset and its
generated queries — is pinned (``DATA_SEED``, ``QUERY_SEED``): the paper's
query mix is heavy-tailed (one RA query in fifty can cost as much as the other
forty-nine), so a corpus redrawn per seed moves every timing metric by
20-50 % and no bound below that could ever gate a change.  The *schedule* —
the order in which positions are replayed, and on ``social_serving`` which
request of the Zipf stream arrives when, hence which requests are cache hits,
plan-hit recomputes or cold misses — is drawn from ``--seed``.

A *position* is one ``(query, alpha, op kind)`` of the schedule.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import build_beas
from repro.relational import parallel
from repro.relational.distance import resolve
from repro.relational.mmapstore import open_database, save_database
from repro.relational.relation import Relation
from repro.relational.store import set_shard_executor, set_shard_workers
from repro.serving import QueryServer
from repro.workloads import airca, social, tfacc, tpch
from repro.workloads.querygen import GeneratedQuery, QueryGenerator

DATA_SEED = 20170301  # the corpus is pinned; see the module docstring
QUERY_SEED = 7


@dataclass(frozen=True)
class Position:
    query: int  # index into the workload's query list
    alpha: float  # 0.0 for ``exact`` operations (unbounded evaluation)
    kind: str  # "answer" | "exact" | "serve"


@dataclass
class Engine:
    """Everything one set-up builds; dropped (and rebuilt) between set-up repetitions."""

    beas: object
    server: Optional[QueryServer] = None
    timings: Dict[str, float] = field(default_factory=dict)


def union_compatible(query: GeneratedQuery, schema) -> bool:
    """Whether every ``except`` branch pairs numeric with numeric columns.

    ``QueryGenerator.ra`` makes branches union-compatible by arity only, so
    some generated queries subtract a string column from a numeric one and
    raise ``ValueError: could not convert string to float`` as soon as two
    such rows are compared (whether that happens depends on alpha).  Those
    queries are dropped from the corpus — every operation of a workload
    must be able to succeed — and listed in the run's output.
    """
    for node in query.ast.walk():
        if type(node).__name__ != "Difference":
            continue
        left = node.left.output_schema(schema).attributes
        right = node.right.output_schema(schema).attributes
        for a, b in zip(left, right):
            if resolve(a.distance).numeric != resolve(b.distance).numeric:
                return False
    return True


class Bench:
    """One workload.  Subclasses fix the dataset, the engine configuration and the operations."""

    name = ""
    why = ""
    full: Dict[str, object] = {}
    smoke: Dict[str, object] = {}
    operations: Sequence[Tuple[str, float]] = ()  # (kind, alpha), replayed for every query

    def sizes(self, smoke: bool) -> Dict[str, object]:
        return dict(self.smoke if smoke else self.full)

    # -- corpus ------------------------------------------------------------
    def generate(self, sizes):
        raise NotImplementedError

    def corpus(self, sizes) -> Tuple[List[GeneratedQuery], List[str]]:
        """The pinned query list, and the names of the generated queries dropped from it."""
        workload = self.generate(sizes)
        wanted = int(sizes["queries"])
        generated = QueryGenerator(workload, seed=QUERY_SEED).workload_mix(wanted + wanted // 4 + 2)
        kept: List[GeneratedQuery] = []
        dropped: List[str] = []
        for query in generated:
            if union_compatible(query, workload.database.schema):
                kept.append(query)
            else:
                dropped.append(query.name)
        if len(kept) < wanted:
            raise RuntimeError(f"{self.name}: only {len(kept)} of {wanted} generated queries are usable")
        return kept[:wanted], dropped

    def canonical(self, queries, sizes) -> List[Position]:
        """Every position once, operation-major; the verified sample is taken from this list."""
        return [Position(q, alpha, kind) for kind, alpha in self.operations for q in range(len(queries))]

    def schedule(self, queries, sizes, seed: int) -> List[Position]:
        positions = self.canonical(queries, sizes)
        random.Random(seed).shuffle(positions)
        return positions

    # -- engine ------------------------------------------------------------
    def setup(self, sizes, workdir: str) -> Engine:
        raise NotImplementedError

    def teardown(self, engine: Engine) -> None:
        pass

    def begin_pass(self, engine: Engine) -> None:
        pass

    def reference(self, sizes):
        """A second engine whose rows every verified answer must equal (``None``: no such check)."""
        return None

    def writes(self, sizes) -> int:
        """Requests between two writes (0 = the workload never writes)."""
        return 0

    def write(self, engine: Engine) -> None:
        raise NotImplementedError


def _convert(database, backend: str) -> None:
    for name in database.relation_names:
        database.set_relation(name, database.relation(name).with_backend(backend))


def _timed_setup(generate, backend: Optional[str]) -> Tuple[object, Dict[str, float]]:
    timings: Dict[str, float] = {}
    start = time.perf_counter()
    workload = generate()
    timings["generate_s"] = time.perf_counter() - start
    if backend is not None:
        start = time.perf_counter()
        _convert(workload.database, backend)
        timings["convert_s"] = time.perf_counter() - start
    start = time.perf_counter()
    beas = build_beas(workload)
    timings["build_s"] = time.perf_counter() - start
    return beas, timings


class TpchLowAlpha(Bench):
    name = "tpch_lowalpha"
    why = (
        "small alpha on the row store: chase + plan generation is most of every answer, "
        "so core planning work shows here and fetch/evaluate/kernel work must not"
    )
    full = {"scale": 4, "queries": 40}
    smoke = {"scale": 1, "queries": 6}
    operations = (("answer", 0.01), ("answer", 0.02), ("answer", 0.05))

    def generate(self, sizes):
        return tpch.generate(scale=sizes["scale"], seed=DATA_SEED)

    def setup(self, sizes, workdir):
        beas, timings = _timed_setup(lambda: self.generate(sizes), None)
        return Engine(beas, timings=timings)


class AircaHighAlpha(Bench):
    name = "airca_highalpha"
    why = (
        "large alpha on the column store: fetch, evaluate and the distance kernels (difference "
        "guard, relaxed joins) do most of the work and produce the heavy tail"
    )
    full = {"flights": 6000, "airports": 80, "queries": 50}
    smoke = {"flights": 800, "airports": 30, "queries": 6}
    operations = (("answer", 0.5), ("answer", 1.0))

    def generate(self, sizes):
        return airca.generate(flights=sizes["flights"], airports=sizes["airports"], seed=DATA_SEED)

    def setup(self, sizes, workdir):
        beas, timings = _timed_setup(lambda: self.generate(sizes), "column")
        return Engine(beas, timings=timings)


class TfaccSharded(Bench):
    name = "tfacc_sharded"
    why = (
        "sharded store on the process executor: the only workload where relational.parallel runs; "
        "exact positions scan the same stores that answer positions fetch through indexes"
    )
    full = {"accidents": 2200, "stops": 900, "queries": 35, "process_min_rows": None}  # None: the default
    smoke = {"accidents": 500, "stops": 200, "queries": 6, "process_min_rows": 64}  # or nothing would ship
    operations = (("answer", 0.25), ("answer", 1.0), ("exact", 0.0))

    def generate(self, sizes):
        return tfacc.generate(accidents=sizes["accidents"], stops=sizes["stops"], seed=DATA_SEED)

    def setup(self, sizes, workdir):
        set_shard_executor("process")
        set_shard_workers(2)
        parallel.set_process_min_rows(sizes["process_min_rows"])
        beas, timings = _timed_setup(lambda: self.generate(sizes), "sharded")
        start = time.perf_counter()
        if not parallel.probe_process_executor():
            raise RuntimeError("tfacc_sharded: the process executor does not work on this machine")
        timings["probe_s"] = time.perf_counter() - start
        return Engine(beas, timings=timings)

    def teardown(self, engine):
        parallel.shutdown()  # the next set-up repetition starts its own workers

    def reference(self, sizes):
        """The same dataset on the unsharded column store (never leaves this process)."""
        workload = self.generate(sizes)
        _convert(workload.database, "column")
        return build_beas(workload)


class SocialServing(Bench):
    name = "social_serving"
    why = (
        "Zipf request stream through QueryServer over mmap files, with writes: p50 is the "
        "parse+fingerprint+cache hit path, p90 the recompute path, so neither can hide the other"
    )
    full = {
        "persons": 1000, "pois": 5000, "cities": 40, "max_friends": 8,
        "queries": 40, "requests": 480, "write_every": 120,
    }
    smoke = {
        "persons": 150, "pois": 600, "cities": 10, "max_friends": 5,
        "queries": 6, "requests": 60, "write_every": 20,
    }
    operations = (("serve", 0.05), ("serve", 0.2))
    zipf_exponent = 1.1

    def generate(self, sizes):
        return social.generate(
            persons=sizes["persons"], pois=sizes["pois"], cities=sizes["cities"],
            max_friends=sizes["max_friends"], seed=DATA_SEED,
        )

    def schedule(self, queries, sizes, seed):
        """A Zipf(1.1) request stream over the canonical keys, in seeded order.

        Key ``r`` (canonical order) gets the share ``r^-1.1`` of the requests,
        rounded by largest remainder, and its requests are dealt evenly over
        the epochs between two writes.  So every seed requests the same
        multiset per epoch — the same number of cold misses, plan-hit
        recomputes and result hits, for the same keys — and the seed draws the
        arrival order within each epoch: which request of a key is the one
        that recomputes, and what surrounds it.
        """
        keys = self.canonical(queries, sizes)
        requests, epoch_size = int(sizes["requests"]), int(sizes["write_every"])
        epochs, leftover = divmod(requests, epoch_size)
        if leftover:
            raise ValueError("requests must be a multiple of write_every")
        weights = [(rank + 1) ** -self.zipf_exponent for rank in range(len(keys))]
        exact = [requests * w / sum(weights) for w in weights]
        counts = [int(x) for x in exact]
        by_remainder = sorted(range(len(keys)), key=lambda i: (counts[i] - exact[i], i))
        for i in by_remainder[: requests - sum(counts)]:
            counts[i] += 1
        streams: List[List[Position]] = [[] for _ in range(epochs)]
        cursor = 0
        for key, count in zip(keys, counts):
            each, extra = divmod(count, epochs)
            for epoch in range(epochs):
                streams[epoch].extend([key] * each)
            for _ in range(extra):
                streams[cursor % epochs].append(key)
                cursor += 1
        rng = random.Random(seed)
        for stream in streams:
            rng.shuffle(stream)
        return [position for stream in streams for position in stream]

    def setup(self, sizes, workdir):
        timings: Dict[str, float] = {}
        start = time.perf_counter()
        workload = self.generate(sizes)
        timings["generate_s"] = time.perf_counter() - start
        dataset = os.path.join(workdir, "social-dataset")
        shutil.rmtree(dataset, ignore_errors=True)
        start = time.perf_counter()
        save_database(workload.database, dataset)
        timings["save_s"] = time.perf_counter() - start
        timings["dataset_bytes"] = sum(
            os.path.getsize(os.path.join(dataset, entry)) for entry in os.listdir(dataset)
        )
        start = time.perf_counter()
        workload.database = open_database(dataset)
        timings["open_s"] = time.perf_counter() - start
        start = time.perf_counter()
        beas = build_beas(workload)
        timings["build_s"] = time.perf_counter() - start
        return Engine(beas, server=QueryServer(beas), timings=timings)

    def begin_pass(self, engine):
        engine.server.clear_caches()

    def writes(self, sizes):
        return int(sizes["write_every"])

    def write(self, engine):
        """Re-install the largest relation with the same rows: the epoch rotates, the data does not."""
        database = engine.beas.database
        sizes = database.relation_sizes()
        name = max(sizes, key=sizes.get)
        relation = database.relation(name)
        database.set_relation(name, Relation(relation.schema, relation.rows, backend="mmap"))


WORKLOADS: Dict[str, Bench] = {
    bench.name: bench for bench in (TpchLowAlpha(), AircaHighAlpha(), TfaccSharded(), SocialServing())
}
