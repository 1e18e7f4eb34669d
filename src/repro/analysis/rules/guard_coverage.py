"""Rule: every scoring site charges the access counter.

Two contracts ride on the counter: the paper's accessed-records cost
metric (Definition 3.1 — the quantity every experiment reports), and the
budget enforcement of the degradation ladder, where
:class:`~repro.core.guard.BudgetedAccessCounter` aborts a runaway query
— in the compiled kernel or in the snapshot scan ``core/guard.py``
holds — from *inside* ``count_computed``/``count_computed_batch``.  A traversal
that scores records without charging the counter is invisible to both:
its cost is under-reported and a record budget cannot stop it.

Detection: within the engine modules, any function whose body evaluates
the scoring function — a ``function(...)``/``_function(...)`` call or a
``.score_many(...)``/``.score(...)`` call — must also touch a counter
method (``count_computed``, ``count_computed_batch``, or
``count_examined`` for sub-function scans like the N-Way streams).
Nested helpers are analyzed as their own scope: the charge must sit next
to the scoring call, not somewhere up the call chain where a refactor
can separate them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleContext, Rule

#: Names whose call means "a record was scored".
SCORING_NAMES = {"function"}
SCORING_ATTRS = {"score_many", "score", "_function"}

#: AccessCounter methods that charge the access.
COUNTER_ATTRS = {"count_computed", "count_computed_batch", "count_examined"}


def _is_scoring_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name) and func.id in SCORING_NAMES:
        return True
    return isinstance(func, ast.Attribute) and func.attr in SCORING_ATTRS


class GuardCoverageRule(Rule):
    """Scoring without counting is invisible to budgets and cost metrics."""

    id = "guard-coverage"
    summary = (
        "engine code that scores records must charge the access counter "
        "in the same scope"
    )
    hint = (
        "call stats.count_computed(...) / count_computed_batch(...) "
        "beside the scoring call so BudgetedAccessCounter can enforce"
    )
    paths = (
        "core/traveler.py",
        "core/advanced.py",
        "core/compiled.py",
        "core/nway.py",
        "core/progressive.py",
        "core/guard.py",
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for scoring calls in counter-free scopes."""
        yield from self._walk(ctx, ctx.tree)

    def _walk(self, ctx: ModuleContext, node: ast.AST) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(ctx, child)
                yield from self._walk(ctx, child)
            else:
                yield from self._walk(ctx, child)

    def _check_scope(
        self, ctx: ModuleContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        scoring: list[ast.Call] = []
        counted = False
        for node in self._own_nodes(func):
            if isinstance(node, ast.Call) and _is_scoring_call(node):
                scoring.append(node)
            if isinstance(node, ast.Attribute) and node.attr in COUNTER_ATTRS:
                counted = True
        if scoring and not counted and not self._delegates_counting(func):
            for call in scoring:
                yield self.finding(
                    ctx,
                    call,
                    f"{func.name}() scores records without charging an"
                    " access counter",
                )

    def _delegates_counting(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> bool:
        """Whole-program refinement: a resolved callee may charge for us.

        ``batch_top_k``-style kernels charge ``count_computed_batch``
        inside the helper the wrapper dispatches to; with the call graph
        available, a scope is covered when any directly-called resolved
        project function touches a counter method itself.  Without a
        project (plain ``repro lint``) the line-local rule stands.
        """
        project = self.project
        if project is None:
            return False
        info = project.function_for_node(func)
        if info is None:
            return False
        for edge in project.callgraph.callees(info.qualname):
            callee = project.functions.get(edge.callee)
            if callee is None:
                continue
            if any(
                isinstance(node, ast.Attribute)
                and node.attr in COUNTER_ATTRS
                for node in callee.body_nodes()
            ):
                return True
        return False

    @staticmethod
    def _own_nodes(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[ast.AST]:
        """Walk the function body, excluding nested function scopes."""
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
