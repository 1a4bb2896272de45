"""Deterministic, seedable fault injection for resilience testing.

The paper's contract is *graceful degradation*: a fault may cost latency,
never served α, correctness or availability.  This package makes that
testable.  Production seams carry named **injection probes** —
``faults.inject("parallel.worker.kill")`` — that are compiled to a no-op
fast path (one ``is None`` check) while no plan is installed, and fire
deterministically from a seeded per-site RNG while one is.  The chaos
harness (``benchmarks/bench_chaos.py``), the chaos row of the
``tests-modes`` CI job, and the targeted resilience tests all drive the
same probes, so the failure paths they exercise are the exact branches
production traffic would take.

**Sites.**  Every probe names a seam in :data:`KNOWN_SITES`; installing a
plan that names anything else raises :exc:`ValueError` (catching typos is
the point).  Sites prefixed ``test.`` are exempt — tests may invent them
freely.  The catalogue (see ``src/repro/faults/README.md``):

========================== ====================================================
``parallel.worker.kill``    worker process exits hard (``os._exit``) mid-task
``parallel.worker.slow``    worker sleeps ``arg`` seconds before the task
``parallel.dispatch.broken`` parent-side synthetic ``BrokenProcessPool`` at submit
``parallel.publish.unlink`` a shard's published file vanishes right after
                            publication (the unlink race)
``mmap.open.corrupt``       opening a dataset file raises
                            :exc:`~repro.errors.CorruptShardError` (marked
                            injected — healthy files are never quarantined)
``mmap.open.missing``       opening a dataset file raises ``FileNotFoundError``
``serving.cache.get``       the serving result cache raises on lookup
``serving.cache.put``       the serving result cache raises on store
========================== ====================================================

**Plan format** (``REPRO_FAULT_PLAN`` env override, :func:`set_fault_plan`
knob)::

    seed=42;parallel.worker.kill:p=0.1,count=3;parallel.worker.slow:p=0.2,arg=0.05
    mmap.open.corrupt:at=2|5

Segments are ``;``-separated.  ``seed=N`` seeds every per-site RNG; each
other segment is ``site:key=value,...`` with keys

* ``p`` — fire probability per call, in ``[0, 1]``;
* ``at`` — exact 1-based call numbers (``|``-separated) the site fires on,
  overriding ``p``;
* ``count`` — cap on total fires for the site;
* ``arg`` — a float the probe site interprets (sleep seconds, ...).

**Determinism.**  Each site draws from its own ``random.Random`` seeded by
``blake2b(seed | nonce | site)`` — independent of ``PYTHONHASHSEED`` and of
every other site, so adding a site to a plan never changes when existing
sites fire.  Given the same plan and the same sequence of probe calls, the
same calls fire — across runs, machines, and interpreter versions.  Worker
processes receive the active plan spec at pool creation with a ``nonce``
equal to the pool incarnation number, so a repaired worker's draws differ
from its dead predecessor's (a kill/heal cycle terminates) while remaining
reproducible for a fixed operation sequence from interpreter start.

Installing a plan resets the process pools (workers must pick the plan up);
clearing one does not — healed workers are spawned by slot repair and read
the cleared parent spec naturally.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = [
    "KNOWN_SITES",
    "FaultRule",
    "FaultPlan",
    "active_spec",
    "fault_arg",
    "fault_stats",
    "get_fault_plan",
    "inject",
    "set_fault_plan",
]

# The audited seams.  A plan naming any other site (unless ``test.``-prefixed)
# is rejected — a typo'd site name would otherwise silently never fire.
KNOWN_SITES = frozenset(
    {
        "parallel.worker.kill",
        "parallel.worker.slow",
        "parallel.dispatch.broken",
        "parallel.publish.unlink",
        "mmap.open.corrupt",
        "mmap.open.missing",
        "serving.cache.get",
        "serving.cache.put",
    }
)

_TEST_SITE_PREFIX = "test."


def _validate_site(site: str) -> str:
    if not isinstance(site, str) or not site:
        raise ValueError(f"fault site must be a non-empty string, got {site!r}")
    if site not in KNOWN_SITES and not site.startswith(_TEST_SITE_PREFIX):
        raise ValueError(
            f"unknown fault site {site!r}; known sites: "
            f"{', '.join(sorted(KNOWN_SITES))} (or any 'test.*' site)"
        )
    return site


@dataclass(frozen=True)
class FaultRule:
    """When one site fires: probability or exact schedule, cap, payload.

    ``at`` (1-based call numbers) overrides ``probability`` when non-empty;
    ``count`` caps total fires; ``arg`` is a site-interpreted float (sleep
    seconds for ``parallel.worker.slow``).  Validation happens here so a
    malformed rule can never be installed.
    """

    probability: Optional[float] = None
    count: Optional[int] = None
    at: Tuple[int, ...] = ()
    arg: Optional[float] = None

    def __post_init__(self) -> None:
        if self.probability is not None:
            p = float(self.probability)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"fault probability must be in [0, 1], got {p}")
            object.__setattr__(self, "probability", p)
        if self.count is not None:
            count = int(self.count)
            if count < 1:
                raise ValueError(f"fault count must be >= 1, got {count}")
            object.__setattr__(self, "count", count)
        schedule = tuple(sorted({int(n) for n in self.at}))
        if any(n < 1 for n in schedule):
            raise ValueError(f"fault schedule entries must be >= 1, got {self.at}")
        object.__setattr__(self, "at", schedule)
        if self.arg is not None:
            arg = float(self.arg)
            if not arg >= 0 or arg != arg or arg == float("inf"):
                raise ValueError(f"fault arg must be a finite float >= 0, got {self.arg}")
            object.__setattr__(self, "arg", arg)
        if self.probability is None and not self.at:
            raise ValueError("a fault rule needs a probability (p=) or a schedule (at=)")

    def spec(self) -> str:
        """This rule's canonical ``key=value,...`` spec fragment."""
        parts = []
        if self.at:
            parts.append("at=" + "|".join(str(n) for n in self.at))
        elif self.probability is not None:
            parts.append(f"p={self.probability:g}")
        if self.count is not None:
            parts.append(f"count={self.count}")
        if self.arg is not None:
            parts.append(f"arg={self.arg:g}")
        return ",".join(parts)


def _parse_rule(site: str, body: str) -> FaultRule:
    kwargs: Dict[str, object] = {}
    for assignment in body.split(","):
        assignment = assignment.strip()
        if not assignment:
            continue
        key, _, value = assignment.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            raise ValueError(f"fault rule for {site!r}: {assignment!r} has no value")
        try:
            if key == "p":
                kwargs["probability"] = float(value)
            elif key == "count":
                kwargs["count"] = int(value)
            elif key == "at":
                kwargs["at"] = tuple(int(n) for n in value.split("|"))
            elif key == "arg":
                kwargs["arg"] = float(value)
            else:
                raise ValueError(
                    f"fault rule for {site!r}: unknown key {key!r} "
                    "(expected p, count, at, or arg)"
                )
        except ValueError:
            raise
        except Exception as exc:  # int()/float() TypeErrors become ValueErrors
            raise ValueError(f"fault rule for {site!r}: bad value in {assignment!r}") from exc
    return FaultRule(**kwargs)


@dataclass
class FaultPlan:
    """A seeded set of per-site fault rules plus live fire-counting state.

    Deterministic: each site owns a ``random.Random`` seeded from
    ``blake2b(seed | nonce | site)``, so two plans built from the same spec
    and nonce fire on exactly the same probe calls.  Thread-safe: call
    counters and RNG draws are serialized per plan.
    """

    rules: Dict[str, FaultRule] = field(default_factory=dict)
    seed: int = 0
    nonce: str = ""

    def __post_init__(self) -> None:
        self.seed = int(self.seed)
        self.nonce = str(self.nonce)
        self.rules = {_validate_site(site): rule for site, rule in self.rules.items()}
        for site, rule in self.rules.items():
            if not isinstance(rule, FaultRule):
                raise ValueError(
                    f"rule for site {site!r} must be a FaultRule, got {type(rule).__name__}"
                )
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}
        self._fires: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}

    # -- parsing / serialization ------------------------------------------------
    @classmethod
    def parse(cls, spec: str, nonce: str = "") -> "FaultPlan":
        """Build a plan from its spec string (see the module docstring)."""
        if not isinstance(spec, str):
            raise ValueError(f"fault plan spec must be a string, got {type(spec).__name__}")
        seed = 0
        rules: Dict[str, FaultRule] = {}
        for segment in spec.split(";"):
            segment = segment.strip()
            if not segment:
                continue
            if segment.startswith("seed="):
                try:
                    seed = int(segment[len("seed="):])
                except Exception as exc:
                    raise ValueError(f"bad fault plan seed segment {segment!r}") from exc
                continue
            site, colon, body = segment.partition(":")
            site = site.strip()
            if not colon:
                raise ValueError(
                    f"bad fault plan segment {segment!r} (expected 'site:key=value,...')"
                )
            rules[_validate_site(site)] = _parse_rule(site, body)
        if not rules:
            raise ValueError(f"fault plan spec {spec!r} names no sites")
        return cls(rules=rules, seed=seed, nonce=nonce)

    def spec(self) -> str:
        """The canonical spec string (stable ordering; round-trips parse)."""
        segments = [f"seed={self.seed}"]
        segments.extend(
            f"{site}:{rule.spec()}" for site, rule in sorted(self.rules.items())
        )
        return ";".join(segments)

    def with_nonce(self, nonce: str) -> "FaultPlan":
        """A fresh plan (zeroed counters, new RNG streams) under ``nonce``."""
        return FaultPlan(rules=dict(self.rules), seed=self.seed, nonce=nonce)

    # -- firing ------------------------------------------------------------------
    def _rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            digest = hashlib.blake2b(
                f"{self.seed}|{self.nonce}|{site}".encode("utf-8"), digest_size=8
            ).digest()
            rng = random.Random(int.from_bytes(digest, "big"))
            self._rngs[site] = rng
        return rng

    def should_fire(self, site: str) -> bool:
        """Whether this probe call fires (advances the site's call counter)."""
        rule = self.rules.get(site)
        if rule is None:
            return False
        with self._lock:
            call = self._calls.get(site, 0) + 1
            self._calls[site] = call
            if rule.count is not None and self._fires.get(site, 0) >= rule.count:
                return False
            if rule.at:
                fired = call in rule.at
            else:
                fired = self._rng(site).random() < rule.probability
            if fired:
                self._fires[site] = self._fires.get(site, 0) + 1
            return fired

    def arg(self, site: str, default: float = 0.0) -> float:
        rule = self.rules.get(site)
        if rule is None or rule.arg is None:
            return default
        return rule.arg

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-site probe-call and fire counts (a snapshot copy)."""
        with self._lock:
            return {
                site: {
                    "calls": self._calls.get(site, 0),
                    "fires": self._fires.get(site, 0),
                }
                for site in sorted(self.rules)
            }


# ---------------------------------------------------------------------------
# The process-wide plan (REPRO_FAULT_PLAN knob)
# ---------------------------------------------------------------------------

_plan_lock = threading.Lock()


def _env_fault_plan(name: str) -> Optional[FaultPlan]:
    """Parse a fault-plan environment override (unset/blank means None)."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        return FaultPlan.parse(raw.strip())
    except ValueError as exc:
        raise ValueError(f"{name}={raw!r}: {exc}") from None


_plan: Optional[FaultPlan] = _env_fault_plan("REPRO_FAULT_PLAN")


def get_fault_plan() -> Optional[FaultPlan]:
    """The installed plan, or ``None`` (the fast-path default)."""
    return _plan


def set_fault_plan(
    plan: "Optional[FaultPlan | str]", reset_pools: bool = True
) -> Optional[FaultPlan]:
    """Install (or clear, with ``None``) the process fault plan.

    Accepts a :class:`FaultPlan` or a spec string; anything else — or a
    malformed spec, or an unknown site — raises :exc:`ValueError`.  Returns
    the previous plan.  Installing a non-``None`` plan retires the process
    pools so freshly spawned workers receive the plan spec; clearing one
    deliberately does not (healing worker incarnations are spawned by slot
    repair and naturally read the cleared spec).
    """
    global _plan
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    elif plan is not None and not isinstance(plan, FaultPlan):
        raise ValueError(
            f"fault plan must be a FaultPlan, a spec string, or None, "
            f"got {type(plan).__name__}"
        )
    with _plan_lock:
        previous = _plan
        _plan = plan
    if plan is not None and reset_pools:
        parallel = sys.modules.get(_PARALLEL_MODULE)
        if parallel is not None:
            parallel.reset_process_pool()
    return previous


_PARALLEL_MODULE = __name__.rsplit(".", 1)[0] + ".relational.parallel"


def _install_worker_plan(spec: Optional[str], nonce: str) -> None:
    """Adopt the parent's plan spec inside a worker process (no pool resets)."""
    global _plan
    plan = FaultPlan.parse(spec, nonce=nonce) if spec else None
    with _plan_lock:
        _plan = plan


def active_spec() -> Optional[str]:
    """The installed plan's spec string (for shipping to workers)."""
    plan = _plan
    return plan.spec() if plan is not None else None


def inject(site: str) -> bool:
    """Whether the named probe site fires now.

    The no-plan fast path is a single attribute load and ``is None`` check —
    cheap enough to leave probes permanently compiled into hot seams.
    """
    plan = _plan
    if plan is None:
        return False
    return plan.should_fire(site)


def fault_arg(site: str, default: float = 0.0) -> float:
    """The installed rule's ``arg`` for ``site`` (``default`` when absent)."""
    plan = _plan
    if plan is None:
        return default
    return plan.arg(site, default)


def fault_stats() -> Dict[str, Dict[str, int]]:
    """Per-site probe accounting of the installed plan (empty when none)."""
    plan = _plan
    if plan is None:
        return {}
    return plan.stats()
