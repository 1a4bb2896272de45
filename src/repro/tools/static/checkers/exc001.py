"""EXC001 — no silent swallows on the dispatch/publication paths.

The resilience contract (PR 10) is that a failure on the process-dispatch
or publication path always produces a *verdict*: the error propagates to a
typed :class:`~repro.errors.ReproError`, or it strikes/feeds the executor
circuit breaker so the fallback machinery engages.  An ``except`` clause
that quietly eats an exception on those paths converts an infrastructure
failure into a silent wrong behaviour — the exact bug class the
fault-injection layer exists to flush out.

The rule is scoped by naming convention: every ``except`` handler whose
enclosing function name starts with one of the dispatch/publication
prefixes (``submit``/``_submit``, ``dispatch_``/``_dispatch``, ``probe_``,
``publish``/``_publish``/``publication``, ``_release``, ``_worker``,
``_resolve``, ``shutdown``) must do at least one of:

* **re-raise** — contain a ``raise`` statement (bare or typed), or
* **feed the breaker** — call one of the breaker-vocabulary functions
  (``_breaker_strike``, ``_breaker_exit``, ``_strike_locked``,
  ``reset_process_pool``, or ``_abandon``, which gives a failed dispatch
  up so it returns its verdict to the caller's breaker token), or
* carry an explicit ``# repro: ignore[EXC001] <why this swallow is safe>``
  on the ``except`` line (or a justification comment block directly above
  it).

Findings anchor at the ``except`` keyword, so that is where the
suppression comment belongs.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..core import Checker, Finding, ModuleContext, call_name, register_checker

SCOPE_PREFIXES = (
    "submit",
    "_submit",
    "dispatch_",
    "_dispatch",
    "probe_",
    "publish",
    "_publish",
    "publication",
    "_release",
    "_worker",
    "_resolve",
    "shutdown",
)

BREAKER_VOCABULARY = frozenset(
    {
        "_breaker_strike",
        "_breaker_exit",
        "_strike_locked",
        "reset_process_pool",
        "_abandon",
    }
)


def _in_scope(function: Optional[ast.AST]) -> bool:
    if function is None:
        return False
    name = getattr(function, "name", "")
    return name.startswith(SCOPE_PREFIXES)


def _handler_complies(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call) and call_name(node) in BREAKER_VOCABULARY:
            return True
    return False


@register_checker
class DispatchExceptionChecker(Checker):
    rule = "EXC001"
    title = "dispatch/publication except clauses must re-raise or feed the breaker"

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _in_scope(ctx.enclosing_function(node)):
                continue
            if _handler_complies(node):
                continue
            caught = "Exception" if node.type is None else ast.unparse(node.type)
            function = ctx.enclosing_function(node)
            yield self.finding(
                ctx.path,
                node,
                f"except {caught} in {getattr(function, 'name', '?')}() swallows "
                "a dispatch/publication failure: re-raise, call a breaker "
                "function, or justify with # repro: ignore[EXC001] <reason>",
            )
