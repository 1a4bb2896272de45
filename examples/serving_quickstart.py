"""Serving quickstart: a long-lived QueryServer over one BEAS instance.

Walks the serving subsystem end to end on the TPC-H-like workload:

1. repeated queries hit the result cache (bit-identical answers, ~10-100x
   faster than re-planning and re-executing);
2. mutating the database advances its *publication epoch*, which rotates
   every cache key — the next request recomputes, no invalidation call
   anywhere;
3. under the ``degrade-alpha`` admission policy, a saturated server steps
   the resource ratio down a documented ladder and reports the served α
   and its η accuracy bound in the response envelope.

Run:  python examples/serving_quickstart.py
"""

from __future__ import annotations

import json

from repro import Beas, QueryServer
from repro.serving import AdmissionController
from repro.workloads import tpch

SQL = (
    "select l.l_extendedprice, l.l_discount from lineitem as l "
    "where l.l_shipyear >= 1995 and l.l_extendedprice <= 20000"
)


def main() -> None:
    workload = tpch.generate(scale=1, seed=13)
    beas = Beas(
        workload.database,
        constraints=workload.constraints,
        families=workload.families,
    )
    server = QueryServer(beas)

    # 1. Cold, then warm: the second request is served from the result cache.
    cold = server.serve(SQL, alpha=0.2)
    warm = server.serve(SQL, alpha=0.2)
    print(f"cold: {cold}")
    print(f"warm: {warm}")
    print(
        f"  warm hit={warm.result_cache_hit}, identical rows={list(cold.rows) == list(warm.rows)}, "
        f"speedup={cold.serve_seconds / max(warm.serve_seconds, 1e-9):.0f}x"
    )

    # 2. Mutate the database: the epoch advances, the stale entry is dead.
    lineitem = workload.database.relation("lineitem")
    lineitem.append(lineitem.rows[0])
    post = server.serve(SQL, alpha=0.2)
    print(
        f"after mutation: hit={post.result_cache_hit} "
        f"(epoch {warm.publication_epoch} -> {post.publication_epoch})"
    )

    # 3. Degrade-alpha under load: occupy every admission slot, then serve.
    # (The policy is an argument of the controller — ``"queue"`` when none
    # is named — and the controller one of the server.  Which cache a server
    # uses is its own argument too: ``QueryServer(beas, result_cache="none")``.
    # Building a server changes no process-wide setting.)
    admission = AdmissionController(max_concurrency=2, policy="degrade-alpha")
    loaded = QueryServer(beas, admission=admission)
    admission.admit(0.2)
    admission.admit(0.2)  # server now "full": next request degrades
    degraded = loaded.serve(SQL, alpha=0.2)
    admission.release()
    admission.release()
    print(
        f"degraded: served_alpha={degraded.served_alpha:g} "
        f"(requested {degraded.requested_alpha:g}), eta={degraded.eta:.3f}"
    )

    # Observability: everything above is visible in the stats snapshot.
    print("\nstats snapshot:")
    print(json.dumps(server.stats.snapshot(), indent=2))


if __name__ == "__main__":
    main()
