"""Guarded query execution: budgets, deadlines, one degradation ladder.

**Budgets.**  :class:`BudgetedAccessCounter` subclasses the
:class:`~repro.metrics.counters.AccessCounter` every engine already
charges its scored records to (the paper's "accessed records" metric,
Definition 3.1), and raises :class:`~repro.errors.QueryBudgetExceeded`
the moment the tally passes a record budget or a wall-clock deadline —
mid-traversal, with no hook in any kernel.

**Degradation.**  :func:`ladder_top_k` answers over one immutable
snapshot — a :class:`~repro.core.compiled.CompiledDG` plus, while writes
are parked, its :class:`~repro.core.overlay.DeltaOverlay` — on two
rungs::

    compiled   the layer-sweep kernel (batch_top_k / overlay_batch_top_k),
       |       behind the "tier:compiled" breaker and a RetryPolicy
       v
    naive      snapshot_scan: one exact full scan of the same snapshot

One exception policy covers both.  A budget or deadline trip propagates
with ``.tier`` set and charges no breaker: the scan reads every record,
so degrading would only spend more.  An open breaker skips to the scan.
Any other exception charges the breaker once per call and degrades to
the scan under a :class:`~repro.errors.DegradedResultWarning` (or
propagates, with ``fallback=False``).  The rung that answered is
:attr:`repro.core.result.TopKResult.tier`.  The scan is the oracle the
test suite checks every engine against, so degrading costs latency,
never correctness.

Callers: :meth:`repro.serve.index.ServingIndex.query`, the in-process
half of its ``query_batch`` and :func:`run_query`, which compiles a
mutable graph first.
"""

from __future__ import annotations

import time
import warnings
from typing import Sequence

import numpy as np

from repro.core.compiled import CompiledDG, batch_top_k
from repro.core.functions import ScoringFunction, WherePredicate
from repro.core.graph import DominantGraph
from repro.core.overlay import DeltaOverlay, overlay_batch_top_k
from repro.core.result import TopKResult, exact_top_k
from repro.errors import DegradedResultWarning, QueryBudgetExceeded
from repro.metrics.counters import AccessCounter
from repro.resilience.breaker import BreakerBoard, CircuitBreaker
from repro.resilience.deadline import Deadline
from repro.resilience.policy import RetryPolicy

#: The ladder's rungs, fastest first.
TIERS = ("compiled", "naive")

#: :func:`run_query`'s retry policy: one attempt, then the scan.
_ONE_ATTEMPT = RetryPolicy(attempts=1)


class BudgetedAccessCounter(AccessCounter):
    """An access counter that enforces record and wall-clock budgets.

    Engines charge every scored record here (they already must, for the
    paper's cost metric), so the budget check needs no hooks inside the
    traversal kernels: the counter raises
    :class:`~repro.errors.QueryBudgetExceeded` from within
    ``count_computed`` / ``count_computed_batch`` the moment a limit is
    passed, aborting the traversal mid-flight.

    Parameters
    ----------
    max_records:
        Maximum records the query may score (``None`` = unlimited).
    budget_ms:
        Wall-clock budget in milliseconds from ``started`` (``None`` =
        unlimited).
    started:
        ``time.monotonic()`` timestamp the budget is measured from;
        defaults to construction time.  The ladder passes one start time
        to both rungs so the scan shares the original budget.
    deadline:
        Optional end-to-end :class:`~repro.resilience.deadline.Deadline`
        enforced alongside the per-tier budgets.  This is how the
        deadline reaches *mid-traversal* in the scan, which has no
        kernel checkpoint of its own: it charges this counter before it
        scores, and the counter raises
        :class:`~repro.errors.DeadlineExceeded` the moment the request's
        time is gone.
    """

    def __init__(
        self,
        max_records: int | None = None,
        budget_ms: float | None = None,
        started: float | None = None,
        deadline: Deadline | None = None,
    ) -> None:
        super().__init__()
        self.max_records = max_records
        self.budget_ms = budget_ms
        self.started = time.monotonic() if started is None else started
        self.deadline = deadline

    def enforce(self) -> None:
        """Raise :class:`QueryBudgetExceeded` if either budget is spent.

        Called after every charge, and again by :func:`ladder_top_k`
        when a rung *completes* — a query that scores nothing (an all-pseudo
        index, an empty candidate set) never charges the counter, and
        without the completion check such a zero-access path could run
        arbitrarily past ``budget_ms`` yet return as if on time.
        """
        if self.max_records is not None and self.computed > self.max_records:
            raise QueryBudgetExceeded(
                "records", limit=self.max_records, spent=self.computed
            )
        if self.budget_ms is not None:
            elapsed_ms = 1000.0 * (time.monotonic() - self.started)
            if elapsed_ms > self.budget_ms:
                raise QueryBudgetExceeded(
                    "time", limit=self.budget_ms, spent=elapsed_ms
                )
        if self.deadline is not None:
            self.deadline.check(stage="counter")

    def count_computed(
        self, record_id: int | None = None, pseudo: bool = False
    ) -> None:
        """Charge one evaluation, then enforce the budgets."""
        super().count_computed(record_id, pseudo=pseudo)
        self.enforce()

    def count_computed_batch(
        self, record_ids: Sequence[int], pseudo: int = 0
    ) -> None:
        """Charge a batch of evaluations, then enforce the budgets."""
        super().count_computed_batch(record_ids, pseudo=pseudo)
        self.enforce()


def snapshot_scan(
    compiled: CompiledDG,
    function: ScoringFunction,
    k: int,
    where: WherePredicate | None = None,
    stats: AccessCounter | None = None,
    overlay: DeltaOverlay | None = None,
) -> TopKResult:
    """Full scan of a snapshot's real records: the ladder's last rung.

    Reads only the snapshot's immutable arrays, so a degraded answer is
    still epoch-consistent under concurrent maintenance.  With
    ``overlay`` the scan covers the record set the overlay read serves:
    base rows minus its deletions, plus its fresh records.  One
    :func:`~repro.core.result.exact_top_k` call either way, under the
    ``(-score, id)`` contract; pseudo records are never reported.
    """
    answerable = ~compiled.pseudo_mask
    if overlay is not None:
        deleted = overlay.deleted_mask(compiled.num_records)
        if deleted is not None:
            answerable = answerable & ~deleted
    ids = compiled.record_ids.compress(answerable)
    values = compiled.values.compress(answerable, axis=0)
    if overlay is not None and overlay.delta_count:
        ids = np.concatenate([ids, overlay.delta_ids])
        # A fresh owning copy either way: scoring functions and ``where``
        # are entitled to writable inputs, and the overlay stays frozen.
        values = np.concatenate([values, overlay.delta_values])
    return exact_top_k(
        values, ids, function, k, where=where, stats=stats,
        algorithm="snapshot-scan",
    )


def ladder_top_k(
    compiled: CompiledDG,
    overlay: DeltaOverlay | None,
    functions: Sequence[ScoringFunction],
    k: int,
    *,
    where: WherePredicate | None = None,
    budget_ms: float | None = None,
    budget_records: int | None = None,
    deadline: Deadline | None = None,
    breaker: CircuitBreaker | None = None,
    retry: RetryPolicy = _ONE_ATTEMPT,
    fallback: bool = True,
    epoch: int | None = None,
    compiled_rung: bool = True,
) -> list[TopKResult]:
    """Answer ``functions`` over one snapshot: compiled kernel, then scan.

    One function runs the kernel under a :class:`BudgetedAccessCounter`
    enforcing ``budget_ms``, ``budget_records`` and ``deadline``; many
    run one batch sweep on the kernel's own counters and chunk-boundary
    ``deadline`` checks (the batch path takes no budgets).  The kernel
    runs under ``retry``, gated by ``breaker`` when ``fallback`` is on;
    ``compiled_rung=False`` starts at the scan, which runs once per
    function on counters sharing the ladder's start time.  Results are
    stamped with the rung that answered and, when given, ``epoch``.
    """
    started = time.monotonic()
    reason = None
    if compiled_rung and fallback and breaker is not None and not breaker.allow():
        reason = f"skipped: its circuit breaker is {breaker.state}"
    elif compiled_rung:
        counted = len(functions) == 1

        def attempt() -> "list[TopKResult]":
            stats = [
                BudgetedAccessCounter(budget_records, budget_ms, started, deadline)
            ] if counted else None
            if overlay is None:
                results = batch_top_k(
                    compiled, functions, k,
                    where=where, stats=stats, deadline=deadline,
                )
            else:
                results = overlay_batch_top_k(
                    compiled, overlay, functions, k,
                    where=where, stats=stats, deadline=deadline,
                )
            if stats is not None:
                stats[0].enforce()
            return results

        tier_started = time.monotonic()
        try:
            results = retry.run(attempt, deadline=deadline)
        except QueryBudgetExceeded as exc:
            # The request's verdict, not the rung's failure: no breaker
            # charge and no scan, which would only spend more.
            exc.tier = exc.tier or "compiled"
            raise
        except Exception as exc:  # repro: noqa[typed-errors] -- the ladder exists to absorb arbitrary kernel faults; anything narrower would crash on the exact bugs the scan backs up
            if breaker is not None:
                breaker.record_failure()
            if not fallback:
                raise
            reason = f"failed ({type(exc).__name__}: {exc})"
        else:
            if breaker is not None:
                # Per query, so reads and batches feed one latency estimate.
                elapsed_ms = 1000.0 * (time.monotonic() - tier_started)
                breaker.record_success(elapsed_ms / len(functions))
            for index, result in enumerate(results):
                results[index] = result.served_by("compiled", epoch)
            return results
    if reason is not None:
        warnings.warn(
            DegradedResultWarning(
                f"compiled tier {reason}; degrading to the snapshot scan"
            ),
            stacklevel=3,
        )
    scanned = []
    for function in functions:
        stats = BudgetedAccessCounter(budget_records, budget_ms, started, deadline)
        try:
            result = snapshot_scan(
                compiled, function, k, where=where, stats=stats, overlay=overlay
            )
            stats.enforce()
        except QueryBudgetExceeded as exc:
            exc.tier = exc.tier or "naive"
            raise
        scanned.append(result.served_by("naive", epoch))
    return scanned


def run_query(
    graph: DominantGraph,
    function: ScoringFunction,
    k: int,
    *,
    engine: str = "auto",
    where: WherePredicate | None = None,
    budget_ms: float | None = None,
    budget_records: int | None = None,
    fallback: bool = True,
    snapshot: CompiledDG | None = None,
    deadline: Deadline | None = None,
    breakers: BreakerBoard | None = None,
) -> TopKResult:
    """Answer a top-k query over a mutable graph through the ladder.

    Compiles ``graph`` (or reuses ``snapshot`` unless it is stale) and
    runs :func:`ladder_top_k` over the result with one kernel attempt.
    An error from ``graph.compile()`` propagates: there is no snapshot
    to scan.  ``engine`` is the first rung: ``"auto"``/``"compiled"``
    or ``"naive"``.  ``budget_ms`` counts from the ladder's start (after
    the compile) and ``budget_records`` applies per rung; ``deadline``
    covers both rungs.  ``breakers`` lends its ``"tier:compiled"``
    breaker to the kernel rung.  ``fallback=False`` propagates a kernel
    fault instead of degrading.  The result's
    :attr:`~repro.core.result.TopKResult.tier` names the rung that
    answered.

    >>> from repro.core.dataset import Dataset
    >>> from repro.core.builder import build_dominant_graph
    >>> from repro.core.functions import LinearFunction
    >>> graph = build_dominant_graph(Dataset([[2.0, 1.0], [1.0, 2.0]]))
    >>> run_query(graph, LinearFunction([0.5, 0.5]), k=1).tier
    'compiled'
    """
    if k <= 0:
        raise ValueError("k must be positive")
    start = engine if engine != "auto" else "compiled"
    if start not in TIERS:
        raise ValueError(f"unknown engine {start!r} (choose from {TIERS})")
    if snapshot is None or snapshot.stale:
        snapshot = graph.compile()
    (result,) = ladder_top_k(
        snapshot, None, [function], k,
        where=where,
        budget_ms=budget_ms,
        budget_records=budget_records,
        deadline=deadline,
        breaker=None if breakers is None else breakers.get("tier:compiled"),
        fallback=fallback,
        compiled_rung=start == "compiled",
    )
    return result
