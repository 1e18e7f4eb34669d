"""Query admission control: bounded concurrency, shedding, retries.

A serving process protects itself before it protects any single query
(per-query protection is :mod:`repro.core.guard`'s job).  This module is
the front door:

- :class:`AdmissionController` bounds how many queries run at once and
  how many may wait for a slot.  Past either bound it *sheds* — raises
  :class:`~repro.errors.ServiceOverloaded` immediately, before any work
  — because a queue that grows without bound converts overload into
  latency for everyone instead of fast failure for the marginal request.
- :func:`retry_with_backoff` wraps a transient-faulty callable with a
  bounded, exponentially backed-off retry loop.  It is a thin
  compatibility shim over :class:`repro.resilience.RetryPolicy`, which
  the serving index now uses directly (deadline-aware: no retry ever
  sleeps past the request's :class:`~repro.resilience.Deadline`).

Everything takes injectable ``clock``/``sleep`` callables so the
deterministic test harness can run interleavings without real waiting.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, TypeVar

from repro.errors import QueryBudgetExceeded, ServiceOverloaded
from repro.resilience.deadline import Deadline
from repro.resilience.policy import RetryPolicy

T = TypeVar("T")


class AdmissionStats:
    """Monotone counters the health probe reports (lock-protected)."""

    def __init__(self) -> None:
        self.admitted = 0
        self.completed = 0
        self.shed = 0
        self.peak_active = 0

    def as_dict(self) -> dict:
        """The counters as a plain dict (merged into the health probe)."""
        return {
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": self.shed,
            "peak_active": self.peak_active,
        }


class AdmissionController:
    """Counting-semaphore admission with a bounded waiting room.

    Parameters
    ----------
    max_concurrent:
        Queries allowed to run simultaneously.
    max_waiting:
        Queries allowed to block waiting for a slot; an arrival finding
        the waiting room full is shed immediately.
    wait_timeout:
        Seconds a waiter may block before being shed (``None`` = as
        long as it takes).
    """

    def __init__(
        self,
        max_concurrent: int = 8,
        max_waiting: int = 16,
        wait_timeout: float | None = 5.0,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be at least 1")
        if max_waiting < 0:
            raise ValueError("max_waiting must be non-negative")
        self.max_concurrent = max_concurrent
        self.max_waiting = max_waiting
        self.wait_timeout = wait_timeout
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self._active = 0
        self._waiting = 0
        self.stats = AdmissionStats()

    @property
    def active(self) -> int:
        """Queries currently admitted and running."""
        with self._lock:
            return self._active

    @property
    def waiting(self) -> int:
        """Queries currently blocked waiting for a slot."""
        with self._lock:
            return self._waiting

    def admit(
        self,
        timeout: float | None = None,
        deadline: "Deadline | None" = None,
    ) -> "_Slot":
        """Hold one execution slot for the duration of the ``with`` body.

        Entering the returned context manager acquires the slot; leaving
        it, normally or by exception, releases it.  Entering raises
        :class:`~repro.errors.ServiceOverloaded` without blocking
        when the waiting room is full, and after ``timeout`` (default:
        the controller's ``wait_timeout``) when no slot frees up.  With
        a request ``deadline``, the wait is additionally clamped to the
        deadline's remaining time and an already-expired deadline raises
        :class:`~repro.errors.DeadlineExceeded` up front — a request
        with no time left must not consume a waiting-room slot.
        """
        return _Slot(self, timeout, deadline)

    def _wait_for_slot(
        self, timeout: float | None, deadline: "Deadline | None"
    ) -> None:
        """Block (lock held) until a slot frees up, or shed the request."""
        if self._waiting >= self.max_waiting:
            self.stats.shed += 1
            raise ServiceOverloaded(self._active, self._waiting)
        timeout = self.wait_timeout if timeout is None else timeout
        if deadline is not None:
            timeout = deadline.clamp(timeout)
        wait_until = None if timeout is None else time.monotonic() + timeout
        self._waiting += 1
        try:
            while self._active >= self.max_concurrent:
                remaining = (
                    None if wait_until is None
                    else wait_until - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    # Distinguish "the service is busy" from "this
                    # request's time ran out while it waited": the
                    # latter is a deadline expiry, not an overload shed.
                    if deadline is not None:
                        deadline.check(stage="admission")
                    self.stats.shed += 1
                    raise ServiceOverloaded(self._active, self._waiting)
                self._slot_freed.wait(remaining)
        finally:
            self._waiting -= 1

    def drain(self, timeout: float | None = None, poll: float = 0.005) -> bool:
        """Block until no query is active; ``True`` when fully drained.

        Used by graceful shutdown after new admissions are cut off; a
        ``timeout`` bounds how long a stuck query may hold up the exit.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                if self._active == 0:
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(poll)

    def snapshot(self) -> dict:
        """Point-in-time view for the health probe."""
        with self._lock:
            return {
                "active": self._active,
                "waiting": self._waiting,
                "max_concurrent": self.max_concurrent,
                "max_waiting": self.max_waiting,
                **self.stats.as_dict(),
            }


class _Slot:
    """What :meth:`AdmissionController.admit` returns: one slot, held
    from ``__enter__`` to ``__exit__``.

    A plain class instead of a ``@contextmanager`` generator because
    every read, cache hit or miss, enters one: creating and resuming a
    generator cost more than the acquire and release it wrapped.
    """

    __slots__ = ("_controller", "_timeout", "_deadline")

    def __init__(
        self,
        controller: AdmissionController,
        timeout: float | None,
        deadline: "Deadline | None",
    ) -> None:
        self._controller = controller
        self._timeout = timeout
        self._deadline = deadline

    def __enter__(self) -> None:
        controller = self._controller
        if self._deadline is not None:
            self._deadline.check(stage="admission")
        with controller._lock:
            if controller._active >= controller.max_concurrent:
                controller._wait_for_slot(self._timeout, self._deadline)
            controller._active += 1
            stats = controller.stats
            stats.admitted += 1
            stats.peak_active = max(stats.peak_active, controller._active)

    def __exit__(self, *exc_info: object) -> None:
        controller = self._controller
        with controller._lock:
            controller._active -= 1
            controller.stats.completed += 1
            controller._slot_freed.notify()


def retry_with_backoff(
    fn: Callable[[], T],
    *,
    attempts: int = 3,
    base_delay: float = 0.005,
    factor: float = 2.0,
    retriable: tuple[type[BaseException], ...] = (Exception,),
    fatal: tuple[type[BaseException], ...] = (QueryBudgetExceeded,),
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn`` until it succeeds, with exponential backoff between tries.

    ``fatal`` exceptions propagate immediately (budget violations must
    never be retried — a retry spends the very budget that tripped);
    ``retriable`` ones are re-attempted up to ``attempts`` total calls,
    sleeping ``base_delay * factor**i`` between them, then re-raised.
    The backoff schedule is deterministic so the chaos suite can assert
    exact behaviour; pass a recording ``sleep`` to observe it.

    Compatibility shim over :class:`repro.resilience.RetryPolicy`; new
    code should construct the policy (it adds deadline awareness).
    """
    return RetryPolicy(
        attempts=attempts,
        base_delay=base_delay,
        factor=factor,
        retriable=retriable,
        fatal=fatal,
        sleep=sleep,
    ).run(fn)
