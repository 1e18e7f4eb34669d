"""Rule: the typed-error discipline (PR 2) holds everywhere.

The robustness contract says a caller can catch
:class:`~repro.errors.ReproError` and know it has covered every
structured failure mode.  Two code patterns erode that contract:

- **broad handlers** — ``except:`` / ``except Exception`` /
  ``except BaseException`` swallow typed errors (including
  ``QueryBudgetExceeded``, which must *never* be silently absorbed)
  together with genuine bugs.  The few intentional sites (the
  degradation ladder's one kernel-fault handler in ``core/guard.py`` and
  the fabric rung in front of it, best-effort salvage in ``io.py``,
  writer poisoning in the serving index, the fault-injection harness)
  carry a ``# repro: noqa[typed-errors] -- reason`` each.
- **builtin raises** — ``raise RuntimeError(...)`` in ``core/`` or
  ``serve/`` where :mod:`repro.errors` has a type (invariant breaches
  should raise :class:`~repro.errors.InvariantViolation`).  ``ValueError``
  / ``TypeError`` for argument validation remain idiomatic and allowed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleContext, Rule

#: Exception names considered too broad to catch.
BROAD = {"Exception", "BaseException"}

#: Builtins that must not be raised where a repro.errors type exists.
BANNED_RAISES = {"RuntimeError", "Exception", "BaseException"}


def _exception_names(node: ast.expr | None) -> list[tuple[str, ast.expr]]:
    """Flatten an except clause's type expression into (name, node) pairs."""
    if node is None:
        return []
    if isinstance(node, ast.Tuple):
        pairs: list[tuple[str, ast.expr]] = []
        for elt in node.elts:
            pairs.extend(_exception_names(elt))
        return pairs
    if isinstance(node, ast.Name):
        return [(node.id, node)]
    if isinstance(node, ast.Attribute):
        return [(node.attr, node)]
    return []


class TypedErrorsRule(Rule):
    """No bare/broad ``except``; no builtin raises where typed ones exist."""

    id = "typed-errors"
    summary = (
        "catch specific exceptions and raise repro.errors types, so "
        "`except ReproError` covers every structured failure"
    )
    hint = (
        "catch the specific exception(s), or raise a repro.errors class "
        "(InvariantViolation for broken internal invariants)"
    )
    paths = ()  # broad handlers are suspect anywhere in the package

    #: Where builtin raises are flagged (repro.errors types exist there).
    raise_paths = ("core/", "serve/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for broad handlers and builtin raises."""
        check_raises = any(
            ctx.relpath.startswith(prefix) for prefix in self.raise_paths
        )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    yield self.finding(
                        ctx, node, "bare `except:` swallows every failure"
                    )
                    continue
                for name, expr in _exception_names(node.type):
                    if name in BROAD:
                        if self._handler_translates(node):
                            continue
                        yield self.finding(
                            ctx,
                            node,
                            f"broad `except {name}` hides typed errors and"
                            " real bugs alike",
                        )
            elif check_raises and isinstance(node, ast.Raise):
                name = self._raised_builtin(node.exc)
                if name is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f"raises builtin {name} where a typed repro.errors"
                        " class belongs",
                    )

    def _handler_translates(self, handler: ast.ExceptHandler) -> bool:
        """Whole-program refinement: a broad handler that re-raises is fine.

        Catching ``Exception`` only to re-raise it (bare ``raise`` /
        ``raise exc``) or to translate it (``raise Typed(...) from exc``
        with ``Typed`` anywhere in the project's ``repro.errors``
        hierarchy) swallows nothing — it is the boundary-translation
        idiom the error contract asks for.  Only applied when the
        project call graph is available: recognising ``Typed`` needs
        the whole-program class hierarchy, and the two exemptions must
        move together or plain-mode findings would differ unpredictably
        from flow-mode ones.
        """
        project = self.project
        if project is None:
            return False
        typed = project.repro_error_names()
        for node in ast.walk(handler):
            if not isinstance(node, ast.Raise):
                continue
            if node.exc is None:
                return True
            if (
                isinstance(node.exc, ast.Name)
                and handler.name is not None
                and node.exc.id == handler.name
            ):
                return True
            if node.cause is not None:
                target = node.exc
                if isinstance(target, ast.Call):
                    target = target.func
                name = (
                    target.attr
                    if isinstance(target, ast.Attribute)
                    else target.id if isinstance(target, ast.Name) else ""
                )
                if name in typed:
                    return True
        return False

    @staticmethod
    def _raised_builtin(exc: ast.expr | None) -> str | None:
        if exc is None:
            return None
        target = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(target, ast.Name) and target.id in BANNED_RAISES:
            return target.id
        return None
