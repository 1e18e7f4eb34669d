"""Guarded query execution: budgets, deadlines, graceful degradation.

A serving deployment cannot let one query monopolize the process, and it
cannot return a 500 because one engine tier has a bug.  This module wraps
query execution in both protections:

**Budgets.**  :class:`BudgetedAccessCounter` subclasses the
:class:`~repro.metrics.counters.AccessCounter` every engine already
charges its scored records to (the paper's "accessed records" metric,
Definition 3.1), and raises
:class:`~repro.errors.QueryBudgetExceeded` the moment the tally passes an
accessed-record budget or a wall-clock deadline.  Because the check rides
the existing accounting, no traversal kernel needed a hook — the budget
is enforced mid-traversal in every tier, including the batched compiled
kernel.

**Degradation.**  :func:`run_query` answers through a chain of serving
tiers, each strictly simpler (and slower) than the one before::

    compiled   CompiledAdvancedTraveler over graph.compile()
       |       (recompiled automatically when the snapshot is stale)
       v
    reference  AdvancedTraveler over the mutable DominantGraph
       |       (no snapshot, no flat arrays — just the paper's Algorithm 2)
       v
    naive      full scan of the indexed real records
               (no graph structure consulted at all)

A tier that raises anything other than :class:`QueryBudgetExceeded` is
abandoned; a :class:`~repro.errors.DegradedResultWarning` records the
failure and the next tier answers.  Budget violations are *not* degraded
around — every lower tier does at least as much record access, so the
only honest response is the typed error.  The tier that actually produced
the answer is recorded on :attr:`repro.core.result.TopKResult.tier`.

All three tiers return identical answers by construction (the compiled
engine is bit-identical to the reference, and the naive scan is the
correctness oracle the whole test suite compares against), so degradation
trades latency, never correctness.
"""

from __future__ import annotations

import time
import warnings
from typing import Sequence

from repro.core.advanced import AdvancedTraveler
from repro.core.compiled import CompiledAdvancedTraveler, CompiledDG
from repro.core.functions import ScoringFunction, WherePredicate
from repro.core.graph import DominantGraph
from repro.core.result import TopKResult
from repro.errors import (
    DeadlineExceeded,
    DegradedResultWarning,
    InvariantViolation,
    QueryBudgetExceeded,
)
from repro.metrics.counters import AccessCounter
from repro.resilience.breaker import BreakerBoard
from repro.resilience.deadline import Deadline

#: Serving tiers, fastest first; run_query walks this chain.
TIERS = ("compiled", "reference", "naive")


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
        defaults to construction time.  The guard passes one start time
        to every tier so fallbacks share the original deadline.
    deadline:
        Optional end-to-end :class:`~repro.resilience.deadline.Deadline`
        enforced alongside the per-tier budgets.  This is how the
        deadline reaches *mid-traversal* in tiers with no kernel
        checkpoint of their own (reference and naive): they charge this
        counter per scored record, and the counter raises
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

        Called after every charge, and again by :func:`run_query` when a
        tier *completes* — a query that scores nothing (an all-pseudo
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


def _run_tier(
    tier: str,
    graph: DominantGraph,
    snapshot: CompiledDG | None,
    function: ScoringFunction,
    k: int,
    where: WherePredicate | None,
    stats: AccessCounter,
    deadline: Deadline | None = None,
) -> TopKResult:
    if tier == "compiled":
        if snapshot is None or snapshot.stale:
            snapshot = graph.compile()
        return CompiledAdvancedTraveler(snapshot).top_k(
            function, k, where=where, stats=stats, deadline=deadline
        )
    if tier == "reference":
        return AdvancedTraveler(graph).top_k(function, k, where=where, stats=stats)
    if tier == "naive":
        from repro.baselines.naive import naive_top_k_subset

        return naive_top_k_subset(
            graph.dataset, graph.real_ids(), function, k, where=where, stats=stats
        )
    raise ValueError(f"unknown serving tier {tier!r}")


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
    """Answer a top-k query with budgets and engine degradation.

    Parameters
    ----------
    graph:
        The (possibly Extended) Dominant Graph to serve from.
    function, k, where:
        As :meth:`repro.core.advanced.AdvancedTraveler.top_k`.
    engine:
        First tier to try: ``"auto"``/``"compiled"`` start at the
        compiled kernel, ``"reference"`` at the paper's Algorithm 2,
        ``"naive"`` at the full scan.
    budget_ms:
        Wall-clock budget in milliseconds, shared across every tier the
        query touches.  Exceeding it raises
        :class:`~repro.errors.QueryBudgetExceeded`.
    budget_records:
        Accessed-record budget per tier attempt (the paper's cost metric).
    fallback:
        When ``True`` (default), an engine failure degrades to the next
        tier with a :class:`~repro.errors.DegradedResultWarning`; when
        ``False``, the first failure propagates unchanged.
    snapshot:
        Optional pre-built :class:`~repro.core.compiled.CompiledDG` for
        the compiled tier; ignored (and rebuilt) when stale.
    deadline:
        Optional end-to-end request deadline, shared across the whole
        degradation chain (unlike ``budget_ms``, which restarts per
        tier).  Checked before each tier attempt, enforced
        mid-traversal through the budgeted counter and the kernel chunk
        checkpoints, and consulted for remaining-time-aware skipping:
        when a tier fails and the breakers' smoothed latency estimate
        for the *next* tier already exceeds the time left, the guard
        raises :class:`~repro.errors.DeadlineExceeded` instead of
        starting a fallback that provably cannot finish.
    breakers:
        Optional :class:`~repro.resilience.breaker.BreakerBoard` of
        per-tier circuit breakers (keys ``"tier:<name>"``).  A tier
        whose breaker is open is skipped with a
        :class:`~repro.errors.DegradedResultWarning`; outcomes and
        latencies feed back into the board.  The last tier in the chain
        is always attempted — a breaker must never leave a query with
        no tier at all.

    Returns
    -------
    TopKResult
        With :attr:`~repro.core.result.TopKResult.tier` set to the tier
        that actually answered.

    Examples
    --------
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
    chain = TIERS[TIERS.index(start):]
    if not fallback:
        chain = chain[:1]
    started = time.monotonic()

    failure: Exception | None = None
    for position, tier in enumerate(chain):
        last = position + 1 == len(chain)
        if deadline is not None:
            deadline.check(stage="guard", tier=tier)
        breaker = None if breakers is None else breakers.get(f"tier:{tier}")
        if breaker is not None and not last and not breaker.allow():
            warnings.warn(
                DegradedResultWarning(
                    f"{tier} tier skipped: its circuit breaker is "
                    f"{breaker.state}; degrading to the "
                    f"{chain[position + 1]} tier"
                ),
                stacklevel=2,
            )
            continue
        if (
            deadline is not None
            and breaker is not None
            and not last
            and (estimate := breaker.latency_ewma_ms) is not None
            and deadline.remaining_ms() < estimate
        ):
            # This tier's typical latency already exceeds the time left,
            # and every later tier is slower still: fail fast rather
            # than burn the remaining budget on a doomed attempt.
            raise DeadlineExceeded(
                deadline.total_ms,
                deadline.spent_ms(),
                stage="guard-skip",
                tier=tier,
            )
        stats = BudgetedAccessCounter(
            max_records=budget_records,
            budget_ms=budget_ms,
            started=started,
            deadline=deadline,
        )
        tier_started = time.monotonic()
        try:
            result = _run_tier(
                tier, graph, snapshot, function, k, where, stats, deadline
            )
            # Completion check: a tier that scored nothing (zero-access
            # fast path) never tripped the per-access enforcement, but
            # the wall-clock budget applies to elapsed time regardless.
            stats.enforce()
        except QueryBudgetExceeded as exc:
            # Lower tiers access at least as many records: degrading
            # around a budget would just spend more of it.  Surface the
            # typed error with the tier that tripped it.  Budget trips
            # are the caller's fault, not the tier's: no breaker charge.
            exc.tier = exc.tier or tier
            raise
        except Exception as exc:  # repro: noqa[typed-errors] -- the degradation chain exists to absorb arbitrary engine faults; anything narrower would crash on the exact bugs it guards against
            if breaker is not None:
                breaker.record_failure()
            failure = exc
            if last:
                raise
            warnings.warn(
                DegradedResultWarning(
                    f"{tier} engine failed ({type(exc).__name__}: {exc}); "
                    f"degrading to the {chain[position + 1]} tier"
                ),
                stacklevel=2,
            )
            continue
        if breaker is not None:
            breaker.record_success(
                1000.0 * (time.monotonic() - tier_started)
            )
        return result.served_by(tier)
    if failure is not None:
        raise failure
    raise InvariantViolation("no serving tier ran")
