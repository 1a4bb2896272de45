"""Admission control for the query-serving layer.

A BEAS deployment promises each query at most ``α·|D|`` tuple accesses —
but a *server* must also bound what concurrent queries cost in aggregate.
The :class:`AdmissionController` gates every request through one of two
policies, named by its ``policy`` argument:

``queue``
    Block the caller until a slot frees (closed-loop backpressure).  The
    default — no request is ever refused or degraded, latency absorbs the
    load.

``degrade-alpha``
    Never block, never refuse: admit immediately but *step the resource
    ratio down* under load.  With ``f`` queries in flight the request is
    served at ``α · LADDER[min(f // max_concurrency, len(LADDER)-1)]`` —
    each full multiple of the concurrency target halves the budget, down to
    a 1/16 floor.  This is the paper's knob turned into a load response:
    under pressure the server trades the accuracy bound η (reported in the
    response envelope) for throughput, instead of latency.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ServingError

ADMISSION_POLICIES = ("queue", "degrade-alpha")
DEFAULT_MAX_CONCURRENCY = 8

# Multiplier ladder for degrade-alpha: rung k serves alpha * LADDER[k],
# where k = in_flight // max_concurrency (capped at the last rung).  Each
# halving halves the access budget; the 1/16 floor keeps budget_for() legal
# (alpha stays > 0) and the answer non-trivial.
ALPHA_DEGRADE_LADDER = (1.0, 0.5, 0.25, 0.125, 0.0625)


@dataclass(frozen=True)
class AdmissionTicket:
    """What admission decided for one request.

    Attributes:
        served_alpha: the resource ratio the query will actually run at
            (equal to the requested α except under ``degrade-alpha`` load).
        degraded: whether served_alpha was stepped down.
        ladder_rung: the degrade ladder rung used (0 = full α).
        wait_seconds: time spent blocked waiting for a slot (``queue`` only).
    """

    served_alpha: float
    degraded: bool
    ladder_rung: int
    wait_seconds: float


class AdmissionController:
    """Gates concurrent queries through one admission policy.

    Thread-safe; one instance guards one :class:`~repro.serving.server.QueryServer`.
    Callers must pair every successful :meth:`admit` with exactly one
    :meth:`release` (the server does this in a ``try/finally``).
    """

    def __init__(
        self,
        max_concurrency: Optional[int] = None,
        policy: str = "queue",
        ladder: Tuple[float, ...] = ALPHA_DEGRADE_LADDER,
    ) -> None:
        if max_concurrency is None:
            max_concurrency = DEFAULT_MAX_CONCURRENCY
        max_concurrency = int(max_concurrency)
        if max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        if policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission policy must be one of {ADMISSION_POLICIES}, got {policy!r}"
            )
        ladder = tuple(ladder)
        if not ladder or ladder[0] != 1.0:
            raise ValueError("degrade ladder must start at multiplier 1.0")
        if any(not 0 < m <= 1 for m in ladder):
            raise ValueError(f"degrade multipliers must be in (0, 1], got {ladder}")
        if any(a <= b for a, b in zip(ladder, ladder[1:])):
            raise ValueError(f"degrade ladder must be strictly decreasing, got {ladder}")
        self.max_concurrency = max_concurrency
        self.policy = policy
        self.ladder = ladder
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self._in_flight = 0

    @property
    def in_flight(self) -> int:
        """Queries currently admitted and not yet released."""
        with self._lock:
            return self._in_flight

    def admit(self, alpha: float) -> AdmissionTicket:
        """Admit one query requesting resource ratio ``alpha``.

        Returns the :class:`AdmissionTicket` saying what α to serve at;
        blocks under ``queue`` until a slot frees.
        """
        if not 0 < alpha <= 1:
            raise ValueError(f"resource ratio alpha must be in (0, 1], got {alpha}")
        with self._slot_freed:
            if self.policy == "queue":
                waited = 0.0
                if self._in_flight >= self.max_concurrency:
                    start = time.monotonic()
                    while self._in_flight >= self.max_concurrency:
                        self._slot_freed.wait()
                    waited = time.monotonic() - start
                self._in_flight += 1
                return AdmissionTicket(alpha, False, 0, waited)
            # degrade-alpha: admit immediately at a load-dependent rung.
            rung = min(self._in_flight // self.max_concurrency, len(self.ladder) - 1)
            self._in_flight += 1
            multiplier = self.ladder[rung]
            return AdmissionTicket(alpha * multiplier, rung > 0, rung, 0.0)

    def release(self) -> None:
        """Return one admission slot (wakes a queued waiter, if any)."""
        with self._slot_freed:
            if self._in_flight <= 0:
                raise ServingError("admission release() without a matching admit()")
            self._in_flight -= 1
            self._slot_freed.notify()
