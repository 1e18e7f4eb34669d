"""Rule: public query entry points accept and forward ``stats=``.

The degradation ladder (:func:`~repro.core.guard.ladder_top_k`)
enforces record and wall-clock budgets by handing both of its rungs — the
compiled kernel and :func:`~repro.core.guard.snapshot_scan` — a
:class:`~repro.core.guard.BudgetedAccessCounter` through the ``stats=``
parameter; no hooks inside traversal kernels.
That only works if *every* public query entry point accepts a caller
counter and actually threads it into the traversal.  An entry point that
silently constructs its own counter is invisible to budgets (and to the
paper's Definition 3.1 accessed-records accounting the experiments
report).

Detection: a public function/method named like a query entry point in
``core/`` or ``serve/`` must declare a ``stats`` parameter and reference
it somewhere in its body.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleContext, Rule

#: Query entry points that must thread ``stats=``.  ``ladder_top_k`` and
#: its callers (``run_query``, ``ServingIndex.query``) are deliberately
#: absent: the ladder *owns* budget enforcement and constructs the
#: BudgetedAccessCounter itself — accepting a caller counter there would
#: bypass the budget contract.
ENTRY_POINTS = {"top_k", "top_k_progressive", "iter_ranked", "snapshot_scan", "exact_top_k"}


def _param_names(args: ast.arguments) -> set[str]:
    names = {a.arg for a in args.posonlyargs}
    names |= {a.arg for a in args.args}
    names |= {a.arg for a in args.kwonlyargs}
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


class StatsThreadingRule(Rule):
    """Query entry points must accept — and use — a ``stats`` counter."""

    id = "stats-threading"
    summary = "public query entry points must accept and forward stats="
    hint = (
        "add `stats: AccessCounter | None = None` and pass it into the "
        "traversal so budget-enforcing counters reach every scored record"
    )
    paths = ("core/", "serve/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield a finding per entry point missing or ignoring ``stats``."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in ENTRY_POINTS or node.name.startswith("_"):
                continue
            if "stats" not in _param_names(node.args):
                yield self.finding(
                    ctx,
                    node,
                    f"query entry point {node.name}() does not accept stats=",
                )
                continue
            if not self._uses_stats(node):
                yield self.finding(
                    ctx,
                    node,
                    f"query entry point {node.name}() accepts stats= but"
                    " never forwards it",
                )

    @staticmethod
    def _uses_stats(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        for stmt in func.body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Name)
                    and node.id == "stats"
                    and isinstance(node.ctx, ast.Load)
                ):
                    return True
        return False
