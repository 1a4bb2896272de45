"""The BEAS framework (Section 4.2): offline index construction + online answering.

:class:`Beas` is the user-facing facade.  Offline, it builds (or accepts) an
access schema over the database — the canonical ``A_t`` plus any declared or
discovered constraints and templates — together with their indexes.  Online,
``answer(query, alpha)`` runs the appropriate approximation scheme
(BEAS_SPC / BEAS_RA / BEAS_agg), executes the α-bounded plan under an access
meter enforcing the budget, and returns the answers with the accuracy bound
``η`` and the access accounting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

from ..access.builder import AccessSchemaBuilder, ConstraintSpec, FamilySpec
from ..access.schema import AccessSchema
from ..algebra.ast import QueryNode, query_fingerprint
from ..algebra.evaluator import evaluate_exact
from ..algebra.spc import classify
from ..algebra.sql import parse_query
from ..errors import QueryError
from ..relational.database import AccessMeter, Database
from ..relational.relation import Relation
from . import bounded
from .beas_agg import plan_aggregate
from .beas_ra import plan_ra, refine_bound_with_induced
from .beas_spc import plan_spc
from .executor import PlanExecutor
from .plan import BoundedPlan

QueryLike = Union[str, QueryNode]

# Distinct SQL texts remembered per engine; a statement is a few hundred
# bytes of frozen AST plus a 64-character digest.
STATEMENT_MEMO_CAPACITY = 1024


def _statement(text: str) -> Tuple[QueryNode, str]:
    """``(AST, fingerprint)`` of a SQL text — what each engine memoises.

    A pure function of the text with a frozen result, so a memoised entry
    is valid for ever: no epoch term, nothing to invalidate.  A text that
    does not parse raises, so it is never stored and raises again next time.
    """
    ast = parse_query(text)
    return ast, query_fingerprint(ast)


@dataclass
class QueryResult:
    """The outcome of answering one query with bounded resources.

    Attributes:
        rows: the (approximate or exact) answers ``ξ_α(D)``.
        eta: the deterministic RC-accuracy lower bound returned with the plan
            (refined after execution for queries with set difference).
        alpha: the requested resource ratio.
        budget: the access budget ``⌊α·|D|⌋``.
        tuples_accessed: tuples actually read while executing the plan.
        exact: whether the plan fetches with zero resolution everywhere (the
            answers are exact answers ``Q(D)``).
        boundedly_evaluable: whether the plan uses access constraints only.
        plan: the bounded plan itself (for inspection / explain output).
        plan_seconds / execution_seconds: wall-clock timings of the two phases.
        query_class: ``"SPC"``, ``"RA"``, ``"agg(SPC)"`` or ``"agg(RA)"``.
        fingerprint: the canonical query fingerprint
            (:func:`repro.algebra.ast.query_fingerprint`) the serving layer
            keys result / plan caches on; ``alpha`` above is the α the answer
            was actually *served* at (admission control may have degraded it
            below the α the client requested — the serving envelope records
            both).
    """

    rows: Relation
    eta: float
    alpha: float
    budget: int
    tuples_accessed: int
    exact: bool
    boundedly_evaluable: bool
    plan: BoundedPlan
    plan_seconds: float
    execution_seconds: float
    query_class: str
    fingerprint: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"QueryResult({len(self.rows)} rows, eta={self.eta:.3f}, "
            f"accessed={self.tuples_accessed}/{self.budget}, exact={self.exact})"
        )


class Beas:
    """Resource-bounded query answering over one database.

    Args:
        database: the instance ``D`` to query.
        access_schema: a prebuilt access schema; when omitted the canonical
            ``A_t`` plus any ``constraints`` / ``families`` passed here is
            built (offline phase, C1 in Fig. 2).
        constraints / families: declarative specs forwarded to
            :class:`~repro.access.builder.AccessSchemaBuilder`.
        max_level: cap on template levels materialised by the builder (useful
            to bound index-construction time on large relations).
    """

    def __init__(
        self,
        database: Database,
        access_schema: Optional[AccessSchema] = None,
        constraints: Sequence[ConstraintSpec] = (),
        families: Sequence[FamilySpec] = (),
        max_level: Optional[int] = None,
    ) -> None:
        self.database = database
        if access_schema is None:
            builder = AccessSchemaBuilder(database, max_level=max_level)
            access_schema = builder.build(constraints=constraints, families=families)
        self.access_schema = access_schema
        #: Bounded LRU memo of :func:`_statement` (thread-safe; ``cache_info()``
        #: / ``cache_clear()``), shared by everything that resolves a text.
        self.statements = lru_cache(maxsize=STATEMENT_MEMO_CAPACITY)(_statement)

    # -- helpers -----------------------------------------------------------------
    def _as_ast(self, query: QueryLike) -> QueryNode:
        if isinstance(query, str):
            return self.statements(query)[0]
        if isinstance(query, QueryNode):
            return query
        raise QueryError(f"unsupported query object {type(query).__name__}")

    def _resolve(self, query: QueryLike) -> Tuple[QueryNode, str]:
        """``(AST, fingerprint)`` of a query; the one place a SQL text is resolved.

        ``answer`` and the serving layer both come through here, so a text
        either of them has seen is neither parsed nor fingerprinted again.
        A :class:`QueryNode` is fingerprinted as it is — hashing it to look
        it up would cost what the fingerprint does.
        """
        if isinstance(query, str):
            return self.statements(query)
        ast = self._as_ast(query)
        return ast, query_fingerprint(ast)

    # -- planning -----------------------------------------------------------------
    def plan(self, query: QueryLike, alpha: float) -> BoundedPlan:
        """Generate the α-bounded plan for ``query`` without executing it."""
        return self._plan_ast(self._as_ast(query), self.database.budget_for(alpha))

    def _plan_ast(self, ast: QueryNode, budget: int) -> BoundedPlan:
        """Plan an already-normalized AST (the shared core of plan/answer).

        ``plan`` and ``answer`` both resolve the query to an AST exactly
        once and route here, so answering never pays the parse/normalize
        work twice — and the serving layer can plan against a budget it
        computed itself (for a degraded α) without re-deriving the AST.
        """
        if ast.has_aggregate():
            return plan_aggregate(ast, self.database.schema, self.access_schema, budget)
        if ast.is_spc():
            return plan_spc(ast, self.database.schema, self.access_schema, budget)
        return plan_ra(ast, self.database.schema, self.access_schema, budget)

    # -- answering -----------------------------------------------------------------
    def answer(
        self,
        query: QueryLike,
        alpha: float,
        enforce_budget: bool = True,
        plan: Optional[BoundedPlan] = None,
    ) -> QueryResult:
        """Answer ``query`` accessing at most ``α·|D|`` tuples (C3 + C4 in Fig. 2).

        ``plan`` optionally supplies a precomputed :class:`BoundedPlan` (the
        serving layer's plan cache reuses plans across requests); it must
        have been generated for the same query at the same budget ``⌊α·|D|⌋``
        — a mismatched budget raises :exc:`ValueError` rather than silently
        executing a plan whose tariff bound belongs to another α.
        """
        ast, fingerprint = self._resolve(query)
        return self._answer_ast(ast, fingerprint, alpha, enforce_budget, plan)

    def _answer_ast(
        self,
        ast: QueryNode,
        fingerprint: str,
        alpha: float,
        enforce_budget: bool,
        plan: Optional[BoundedPlan],
    ) -> QueryResult:
        """:meth:`answer` for an AST whose fingerprint the caller already holds.

        The serving layer fingerprints a request to probe its caches before
        it knows whether it must compute; on a miss it continues here, so a
        recompute walks the AST's canonical form once, not twice.
        """
        budget = self.database.budget_for(alpha)

        start = time.perf_counter()
        if plan is None:
            plan = self._plan_ast(ast, budget)
        elif plan.budget != budget:
            raise ValueError(
                f"precomputed plan was generated for budget {plan.budget}, "
                f"but alpha={alpha} over the current database gives {budget}"
            )
        plan_seconds = time.perf_counter() - start
        boundedly_evaluable = plan.boundedly_evaluable

        if enforce_budget and plan.tariff > budget:
            # The chase must cover every query atom with at least one fetch
            # step, so for very tight budgets even the cheapest plan can carry
            # a tariff above ``α·|D|``.  Executing it would trip the meter
            # mid-fetch; instead refuse to touch ``D`` at all and return the
            # empty answer with the trivially sound bound ``η = 0``.
            return QueryResult(
                rows=Relation(ast.output_schema(self.database.schema)),
                eta=0.0,
                alpha=alpha,
                budget=budget,
                tuples_accessed=0,
                # The (unexecuted) empty answer is never exact, but bounded
                # evaluability is a property of the plan itself — report it.
                exact=False,
                boundedly_evaluable=boundedly_evaluable,
                plan=plan,
                plan_seconds=plan_seconds,
                execution_seconds=0.0,
                query_class=classify(ast),
                fingerprint=fingerprint,
            )

        meter = AccessMeter(budget=budget, enforce=enforce_budget)
        start = time.perf_counter()
        executor = PlanExecutor(self.database, plan, meter)
        rows = executor.execute()
        eta = plan.eta
        if ast.has_difference():
            eta = refine_bound_with_induced(plan, executor, self.database, rows)
        execution_seconds = time.perf_counter() - start

        return QueryResult(
            rows=rows,
            eta=eta,
            alpha=alpha,
            budget=budget,
            tuples_accessed=meter.accessed,
            exact=plan.exact,
            boundedly_evaluable=boundedly_evaluable,
            plan=plan,
            plan_seconds=plan_seconds,
            execution_seconds=execution_seconds,
            query_class=classify(ast),
            fingerprint=fingerprint,
        )

    def answer_exact(self, query: QueryLike, meter: Optional[AccessMeter] = None) -> Relation:
        """Ground-truth answers ``Q(D)`` by full (unbounded) evaluation."""
        return evaluate_exact(self._as_ast(query), self.database, meter)

    # -- analysis -----------------------------------------------------------------
    def alpha_exact(self, query: QueryLike) -> float:
        """Smallest resource ratio at which the plan for ``query`` is exact (Exp-3)."""
        return bounded.alpha_exact(self._as_ast(query), self.database, self.access_schema)

    def is_boundedly_evaluable(self, query: QueryLike) -> bool:
        """Whether ``query`` has a constraints-only (bounded-evaluation) plan."""
        return bounded.is_boundedly_evaluable(
            self._as_ast(query), self.database.schema, self.access_schema
        )

    def explain(self, query: QueryLike, alpha: float) -> str:
        """Human-readable description of the plan BEAS would run."""
        plan = self.plan(query, alpha)
        return plan.describe()
