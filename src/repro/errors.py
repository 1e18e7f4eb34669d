"""Typed error hierarchy for the serving layer.

A production deployment of the Dominant Graph index must never turn a
damaged file, a runaway query, or an engine bug into either a crash deep
inside numpy or — worse — a silently wrong answer.  Every failure the
serving layer can detect is surfaced through one of the classes below, so
callers can catch :class:`ReproError` and know they have covered every
structured failure mode, or catch a specific subclass to react to one.

Hierarchy
---------
``ReproError``
    Base class.  Also mixes into the stdlib types callers historically
    caught, so tightening an ``except ValueError`` to
    ``except IndexCorruptionError`` is a refinement, not a migration.

``IndexCorruptionError`` (also a ``ValueError``)
    A persisted index failed integrity checks: unreadable archive,
    checksum mismatch, missing/ill-shaped arrays, inconsistent id ranges,
    or an unsupported format version.  Carries ``path`` and the name of
    the offending ``array`` when known.  Raised by
    :mod:`repro.core.io` before any damaged byte can reach a query.

``StaleSnapshotError`` (also a ``RuntimeError``)
    A :class:`~repro.core.compiled.CompiledDG` was queried after its
    source graph mutated.  Recompile, or let
    :func:`repro.core.guard.run_query` do it for you.

``InvariantViolation`` (also a ``RuntimeError``)
    An internal invariant the paper's correctness argument relies on
    (Definition 2.3/2.4 layer and edge properties, the Extended DG
    pseudo cover) was found broken at runtime.
    Always a bug — in this codebase or in a caller that mutated
    structures behind the index's back — never a recoverable condition.

``QueryBudgetExceeded``
    A guarded query ran past its wall-clock deadline or its
    accessed-record budget (see :mod:`repro.core.guard`).  Carries the
    budget ``kind`` (``"records"`` or ``"time"``), the ``limit``, and
    what was actually ``spent``.

``DeadlineExceeded`` (a ``QueryBudgetExceeded``)
    An end-to-end request deadline (:class:`repro.resilience.Deadline`)
    expired before the request finished.  Subclasses
    :class:`QueryBudgetExceeded` with ``kind="time"`` so every existing
    budget handler — the guard's never-degrade-around-budgets path, the
    retry loop's fatal set, the CLI's exit code 3 — applies unchanged.

``CircuitOpenError`` (also a ``RuntimeError``)
    A circuit breaker (:class:`repro.resilience.CircuitBreaker`) is open
    for the requested dependency: recent calls failed at a rate past the
    threshold, and the cooldown has not elapsed.  The call was rejected
    *before* doing any work; callers degrade to the next tier or retry
    after the breaker's cooldown.

``WALCorruptionError`` (also a ``ValueError``)
    A write-ahead log failed an integrity check beyond the torn tail a
    crash legitimately leaves behind (see :mod:`repro.serve.wal`).
    Carries the ``path`` and byte ``offset`` of the damage when known.

``StoreCorruptionError`` (an ``IndexCorruptionError``)
    A memory-mapped store file (:mod:`repro.store`) failed an integrity
    check: bad magic, a header/TOC digest mismatch, a truncated payload,
    or a section whose SHA-256 no longer matches its bytes.  Carries the
    ``path`` and the offending ``section`` when the damage is localized.
    Subclasses :class:`IndexCorruptionError` so every existing
    corruption handler (``repro doctor``, recovery, the degradation
    ladder) applies unchanged.

``StoreStaleError`` (also a ``RuntimeError``)
    A store file is intact but no longer matches the source it claims to
    index: its staleness stamp (source dataset version, applied WAL
    sequence, or format version) disagrees with what the opener
    expected.  Serving it would be consistent-but-outdated, which the
    stamp discipline exists to prevent; rebuild or republish instead.

``ServiceUnavailable`` (also a ``RuntimeError``)
    A :class:`~repro.serve.index.ServingIndex` cannot take the request:
    it is draining for shutdown, already closed, or its writer was
    poisoned by a mid-mutation fault and needs a restart-with-recovery.

``ServiceOverloaded`` (a ``ServiceUnavailable``)
    Query admission shed the request: too many queries were already
    running or waiting.  The request was rejected *before* doing any
    work, so retrying after a backoff is safe.

``DegradedResultWarning`` (also a ``UserWarning``)
    Not an error: emitted via :mod:`warnings` when the serving layer
    answered, but from a lower tier than requested (engine fallback) or
    from a repaired index.  The answer is still correct — the warning
    records that redundancy, not luck, produced it.

``ParallelExecutionError`` (also a ``RuntimeError``)
    The multi-process query fabric (:mod:`repro.parallel`) could not
    complete a task: a worker reported a query error, or workers kept
    dying faster than the pool could respawn them.  Single-process
    engines remain available; callers typically retry without the
    fabric.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every typed error raised by the serving layer."""


class IndexCorruptionError(ReproError, ValueError):
    """A persisted index failed an integrity check and was not loaded.

    Parameters
    ----------
    reason:
        Human-readable description of the first check that failed.
    path:
        The archive being loaded, when known.
    array:
        Name of the offending npz array, when the damage is localized.
    """

    def __init__(
        self,
        reason: str,
        *,
        path: str | None = None,
        array: str | None = None,
    ) -> None:
        self.reason = reason
        self.path = path
        self.array = array
        detail = reason
        if array is not None:
            detail = f"{detail} [array={array!r}]"
        if path is not None:
            detail = f"{detail} ({path})"
        super().__init__(detail)


class StaleSnapshotError(ReproError, RuntimeError):
    """A compiled snapshot was queried after its source graph mutated."""


class InvariantViolation(ReproError, RuntimeError):
    """An internal structural invariant was found broken at runtime.

    Raised where the code proves itself wrong: a skyline routine that
    makes no progress, a pseudo-cover repair that fails to cover.
    Subclasses ``RuntimeError`` so
    pre-PR-2 callers that caught the builtin keep working.
    """


class QueryBudgetExceeded(ReproError):
    """A guarded query exceeded its record or wall-clock budget.

    Attributes
    ----------
    kind:
        ``"records"`` (accessed-record budget) or ``"time"`` (deadline).
    limit:
        The configured budget (record count, or milliseconds).
    spent:
        What the query had consumed when the budget tripped.
    tier:
        Which serving tier was running (set by the guard).
    """

    def __init__(
        self, kind: str, limit: float, spent: float, tier: str = ""
    ) -> None:
        self.kind = kind
        self.limit = limit
        self.spent = spent
        self.tier = tier
        unit = "records" if kind == "records" else "ms"
        super().__init__(
            f"query exceeded its {kind} budget: "
            f"spent {spent:g} of {limit:g} {unit}"
        )


class DeadlineExceeded(QueryBudgetExceeded):
    """An end-to-end request deadline expired before the request finished.

    Attributes
    ----------
    stage:
        The pipeline stage that observed the expiry (``"admission"``,
        ``"guard"``, ``"fabric"``, ``"kernel"``, ...) — for debugging
        which layer the time went to, not for control flow.

    ``kind``/``limit``/``spent``/``tier`` follow the
    :class:`QueryBudgetExceeded` contract with ``kind="time"``: the
    limit is the request's total deadline in milliseconds and ``spent``
    is the wall-clock elapsed when the expiry was observed.
    """

    def __init__(
        self,
        limit_ms: float,
        spent_ms: float,
        *,
        stage: str = "",
        tier: str = "",
    ) -> None:
        super().__init__("time", limit_ms, spent_ms, tier=tier)
        self.stage = stage
        if stage:
            self.args = (f"{self.args[0]} [stage={stage}]",)


class CircuitOpenError(ReproError, RuntimeError):
    """A circuit breaker rejected the call before any work was done.

    Attributes
    ----------
    name:
        The breaker's name (e.g. ``"tier:compiled"``, ``"worker:2"``).
    retry_after:
        Seconds until the breaker will admit a half-open probe.
    """

    def __init__(self, name: str, retry_after: float) -> None:
        self.name = name
        self.retry_after = retry_after
        super().__init__(
            f"circuit {name!r} is open; retry after {retry_after:.3f}s"
        )


class WALCorruptionError(ReproError, ValueError):
    """A write-ahead log is damaged beyond its (tolerated) torn tail.

    A crash mid-append legitimately leaves a partial final record; the
    WAL reader silently drops that.  This error covers everything else:
    a missing or mangled file header, a record whose CRC fails with
    further valid records behind it, or a sequence number that moves
    backwards — all signs the log was corrupted, not merely torn.

    Parameters
    ----------
    reason:
        Human-readable description of the first check that failed.
    path:
        The log file being read, when known.
    offset:
        Byte offset of the damage within the file, when localized.
    """

    def __init__(
        self,
        reason: str,
        *,
        path: str | None = None,
        offset: int | None = None,
    ) -> None:
        self.reason = reason
        self.path = path
        self.offset = offset
        detail = reason
        if offset is not None:
            detail = f"{detail} [offset={offset}]"
        if path is not None:
            detail = f"{detail} ({path})"
        super().__init__(detail)


class StoreCorruptionError(IndexCorruptionError):
    """A memory-mapped store file failed an integrity check.

    Parameters
    ----------
    reason:
        Human-readable description of the first check that failed.
    path:
        The store file being opened or scrubbed, when known.
    section:
        Name of the damaged section, when the damage is localized
        (also exposed as :attr:`IndexCorruptionError.array` so generic
        corruption tooling reports it).
    """

    def __init__(
        self,
        reason: str,
        *,
        path: str | None = None,
        section: str | None = None,
    ) -> None:
        super().__init__(reason, path=path, array=section)
        self.section = section


class StoreStaleError(ReproError, RuntimeError):
    """A store file is intact but stamped for a different source state.

    Attributes
    ----------
    field:
        Which stamp field disagreed (``"source_version"``,
        ``"applied_seq"``, ``"format_version"``, or ``"generation"``).
    expected / found:
        The value the opener required versus the one in the file.
    path:
        The store file, when known.
    """

    def __init__(
        self,
        field: str,
        expected: object,
        found: object,
        *,
        path: str | None = None,
    ) -> None:
        self.field = field
        self.expected = expected
        self.found = found
        self.path = path
        detail = (
            f"store stamp mismatch on {field}: expected {expected!r}, "
            f"file carries {found!r}"
        )
        if path is not None:
            detail = f"{detail} ({path})"
        super().__init__(detail)


class ServiceUnavailable(ReproError, RuntimeError):
    """The serving index cannot take this request right now.

    Attributes
    ----------
    reason:
        Why: ``"draining"`` (shutdown in progress), ``"closed"``, or
        ``"poisoned"`` (a mid-mutation fault left the in-memory graph
        suspect; reads still serve from the last published snapshot,
        writes need a restart-with-recovery).
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        message = f"serving index unavailable: {reason}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class ServiceOverloaded(ServiceUnavailable):
    """Query admission shed the request before any work was done.

    Attributes
    ----------
    active:
        Queries running when the request was shed.
    waiting:
        Queries queued for admission when the request was shed.
    """

    def __init__(self, active: int, waiting: int) -> None:
        self.active = active
        self.waiting = waiting
        ReproError.__init__(
            self,
            f"query admission shed the request: {active} running, "
            f"{waiting} waiting",
        )
        self.reason = "overloaded"


class ParallelExecutionError(ReproError, RuntimeError):
    """The multi-process query fabric could not complete a task.

    Raised by :class:`repro.parallel.ParallelQueryExecutor` when a worker
    reports a query-time error (the message carries the worker-side
    exception summary) or when the pool exhausts its respawn budget while
    trying to heal crashed workers mid-batch.
    """


class DegradedResultWarning(ReproError, UserWarning):
    """The answer is correct but was produced by a degraded path.

    Emitted (via :func:`warnings.warn`) when a query engine failed and a
    lower tier answered, or when a corrupt index was repaired on load.
    """
