"""The BEAS framework (Section 4.2): access-schema set-up + online answering.

:class:`Beas` is the user-facing facade.  At set-up it declares (or accepts)
an access schema over the database — the canonical ``A_t`` plus any
declared constraints and templates — and builds the constraint indexes;
each template family's index is built the first time a plan binds the
family, so a family no query reads is never built
(:meth:`~repro.access.schema.AccessSchema.build_all` builds them all up
front).  Online, ``answer(query, alpha)`` runs the appropriate approximation scheme
(BEAS_SPC / BEAS_RA / BEAS_agg), executes the α-bounded plan under an access
meter enforcing the budget, and returns the answers with the accuracy bound
``η`` and the access accounting.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

from ..access.builder import AccessSchemaBuilder, ConstraintSpec, FamilySpec
from ..access.schema import AccessSchema
from ..algebra.ast import QueryNode, check_difference_types, query_fingerprint
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
from .executor import CompiledPlan, PlanExecutor
from .plan import BoundedPlan

QueryLike = Union[str, QueryNode]

# Distinct SQL texts remembered per engine; a statement is a few hundred
# bytes of frozen AST plus a 64-character digest.
STATEMENT_MEMO_CAPACITY = 1024
# Bounded plans remembered per engine, keyed on ``(fingerprint, budget)``; a
# plan is a few fetch steps over shared indexes plus the frozen AST, and its
# compiled form a few schemas, positions and mask programs.
PLAN_MEMO_CAPACITY = 512


def _statement(text: str) -> Tuple[QueryNode, str]:
    """``(AST, fingerprint)`` of a SQL text — what each engine memoises.

    A pure function of the text with a frozen result, so a memoised entry
    is valid for ever: no epoch term, nothing to invalidate.  A text that
    does not parse raises, so it is never stored and raises again next time.
    """
    ast = parse_query(text)
    return ast, query_fingerprint(ast)


class PlanEntry:
    """One entry of :attr:`Beas.plans`: a plan, what every answer reads of it, and its compiled form.

    A memoized plan is read-only, so its tariff, exactness and bounded
    evaluability are read once here; the compiled form is added by the
    first answer that runs the plan.
    """

    __slots__ = ("plan", "tariff", "exact", "boundedly_evaluable", "compiled")

    def __init__(self, plan: BoundedPlan) -> None:
        self.plan = plan
        self.tariff = plan.tariff
        self.exact = plan.exact
        self.boundedly_evaluable = plan.boundedly_evaluable
        self.compiled: Optional[CompiledPlan] = None


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
        plan: the bounded plan itself (for inspection / explain output); its
            ``query`` is the alias-scoped AST, the query as given unless a set
            operation's branches reuse an alias.
        plan_seconds / execution_seconds: wall-clock timings of the two phases.
            The first plan to bind a template family builds that family's
            index, so its ``plan_seconds`` includes the build (call
            ``access_schema.build_all()`` first to time planning alone).
        query_class: ``"SPC"``, ``"RA"``, ``"agg(SPC)"`` or ``"agg(RA)"``.
        fingerprint: the canonical query fingerprint
            (:func:`repro.algebra.ast.query_fingerprint`) the plan memo and
            the serving layer's result cache key on; ``alpha`` above is the α
            the answer was *served* at (the serving envelope also records
            the α the client requested).
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
            declared (C1 in Fig. 2): constraint indexes are built now, each
            template index when a plan first binds its family.
        constraints / families: declarative specs forwarded to
            :class:`~repro.access.builder.AccessSchemaBuilder`.
        max_level: cap on template levels materialised by each template
            index (useful to bound index-construction time on large relations).
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
        #: Bounded LRU ``(fingerprint, budget) → PlanEntry`` behind ``answer``,
        #: ``plan`` and ``explain`` (:meth:`_memo_plan`); written under a lock.
        self.plans: OrderedDict[Tuple[str, int], PlanEntry] = OrderedDict()
        self._plans_lock = threading.Lock()

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
        """The α-bounded plan for ``query`` (from the plan memo), not executed."""
        ast, fingerprint = self._resolve(query)
        return self._memo_plan(ast, fingerprint, self.database.budget_for(alpha))[0].plan

    def _memo_plan(self, ast: QueryNode, fingerprint: str, budget: int) -> Tuple[PlanEntry, bool]:
        """The plan entry for ``ast`` at ``budget``, and whether :attr:`plans` held it.

        Planning reads no data (Section 2.2): a plan is a function of the
        query, the access schema and ``⌊α·|D|⌋``, so an entry stays valid
        for as long as its key does — a mutation that moves the budget
        misses, one that does not hits.  A miss plans outside the lock; when
        two threads race, the first plan stored wins and both return it.
        """
        key = (fingerprint, budget)
        with self._plans_lock:
            entry = self.plans.get(key)
            if entry is not None:
                self.plans.move_to_end(key)
                return entry, True
        entry = PlanEntry(self._plan_ast(ast, budget))
        with self._plans_lock:
            entry = self.plans.setdefault(key, entry)
            while len(self.plans) > PLAN_MEMO_CAPACITY:
                self.plans.popitem(last=False)
        return entry, False

    def _keep_compiled(self, entry: PlanEntry, compiled: CompiledPlan) -> None:
        """Store the compiled form an answer built beside its plan; the first one stored wins.

        Compiling is never eager: the first answer to run a plan compiles it
        (outside the lock), so planning alone and plans no answer runs cost
        nothing more.
        """
        with self._plans_lock:
            if entry.compiled is None:
                entry.compiled = compiled

    def clear_plans(self) -> None:
        """Empty the plan memo."""
        with self._plans_lock:
            self.plans.clear()

    def _plan_ast(self, ast: QueryNode, budget: int) -> BoundedPlan:
        """Plan ``ast`` at ``budget`` — the memo's miss path, never memoised."""
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
    ) -> QueryResult:
        """Answer ``query`` accessing at most ``α·|D|`` tuples (C3 + C4 in Fig. 2).

        The plan comes from the engine's plan memo: the chase and chAT run
        once per query and budget ``⌊α·|D|⌋``, not once per call.
        """
        ast, fingerprint = self._resolve(query)
        return self._answer_ast(ast, fingerprint, alpha, enforce_budget)[0]

    def _answer_ast(
        self,
        ast: QueryNode,
        fingerprint: str,
        alpha: float,
        enforce_budget: bool,
    ) -> Tuple[QueryResult, bool]:
        """:meth:`answer` for a resolved query, and whether the plan was a memo hit.

        The serving layer resolves a request to probe its result cache before
        it knows whether it must compute; on a miss it continues here.
        """
        budget = self.database.budget_for(alpha)

        start = time.perf_counter()
        entry, plan_hit = self._memo_plan(ast, fingerprint, budget)
        plan_seconds = time.perf_counter() - start
        plan = entry.plan
        boundedly_evaluable = entry.boundedly_evaluable

        if enforce_budget and entry.tariff > budget:
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
            ), plan_hit

        meter = AccessMeter(budget=budget, enforce=enforce_budget)
        start = time.perf_counter()
        executor = PlanExecutor(self.database, plan, meter, entry.compiled)
        rows = executor.execute()
        compiled = executor.compiled
        if entry.compiled is None:
            self._keep_compiled(entry, compiled)
        eta = plan.eta
        if compiled.refinement is not None:
            eta = refine_bound_with_induced(plan, executor, self.database, rows)
        execution_seconds = time.perf_counter() - start

        return QueryResult(
            rows=rows,
            eta=eta,
            alpha=alpha,
            budget=budget,
            tuples_accessed=meter.accessed,
            exact=entry.exact,
            boundedly_evaluable=boundedly_evaluable,
            plan=plan,
            plan_seconds=plan_seconds,
            execution_seconds=execution_seconds,
            query_class=compiled.query_class,
            fingerprint=fingerprint,
        ), plan_hit

    def answer_exact(self, query: QueryLike, meter: Optional[AccessMeter] = None) -> Relation:
        """Ground-truth answers ``Q(D)`` by full (unbounded) evaluation.

        An ill-typed query raises :exc:`QueryError` here as it does from
        :meth:`answer`, before any scan.
        """
        ast = self._as_ast(query)
        check_difference_types(ast, self.database.schema)
        return evaluate_exact(ast, self.database, meter)

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
