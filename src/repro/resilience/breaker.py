"""Circuit breakers: stop sending work to a dependency that keeps failing.

A :class:`CircuitBreaker` guards one dependency — a serving tier, a
fabric worker — and tracks call outcomes over a sliding window.  It
moves through the classic three states:

``closed``
    Normal operation.  Calls flow; outcomes are recorded.  When the
    window holds at least ``min_calls`` outcomes and the failure rate
    reaches ``failure_threshold``, the breaker *opens*.
``open``
    Calls are rejected immediately (:meth:`allow` returns ``False``,
    :meth:`check` raises :class:`~repro.errors.CircuitOpenError`) until
    ``cooldown`` seconds pass.  Rejecting without work is the point:
    a dependency drowning in failures recovers faster without traffic,
    and callers degrade to the next tier instead of queueing on a
    corpse.
``half-open``
    After the cooldown, a limited number of probe calls
    (``half_open_max``) are admitted.  All probes succeeding closes the
    breaker; any probe failing re-opens it for another cooldown.

Breakers also keep an EWMA of success latency, reported in health
probes.  The degradation ladder
(:func:`repro.core.guard.ladder_top_k`) consults only :meth:`allow`: an
open ``tier:compiled`` breaker sends a query straight to the scan.

All methods are thread-safe; the clock is injectable so the chaos suite
can drive state transitions deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

from repro.errors import CircuitOpenError

#: The three breaker states, as reported by health probes.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Failure-rate circuit breaker over a sliding outcome window.

    Parameters
    ----------
    name:
        Identifier used in errors and health probes
        (e.g. ``"tier:compiled"``, ``"worker:2"``).
    window:
        How many recent call outcomes the failure rate is computed over.
    failure_threshold:
        Fraction of failures in the window (``0 < t <= 1``) at which the
        breaker opens.
    min_calls:
        Outcomes required in the window before the rate is trusted — a
        single failure out of one call is not a 100 % failure *rate*.
    cooldown:
        Seconds an open breaker rejects calls before probing.
    half_open_max:
        Probe calls admitted in the half-open state.
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        name: str,
        *,
        window: int = 16,
        failure_threshold: float = 0.5,
        min_calls: int = 4,
        cooldown: float = 1.0,
        half_open_max: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if min_calls < 1:
            raise ValueError("min_calls must be at least 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        if half_open_max < 1:
            raise ValueError("half_open_max must be at least 1")
        self.name = name
        self.window = window
        self.failure_threshold = failure_threshold
        self.min_calls = min_calls
        self.cooldown = cooldown
        self.half_open_max = half_open_max
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._opened_at = 0.0
        self._half_open_inflight = 0
        self._half_open_successes = 0
        self._latency_ewma_ms: float | None = None
        self._opens = 0
        self._rejections = 0

    # -- state ---------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state (transitions open→half-open lazily on read)."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._state == OPEN:
            if self._clock() - self._opened_at >= self.cooldown:
                self._state = HALF_OPEN
                self._half_open_inflight = 0
                self._half_open_successes = 0
        return self._state

    def allow(self) -> bool:
        """Whether a call may proceed right now (counts half-open probes)."""
        with self._lock:
            state = self._state_locked()
            if state == CLOSED:
                return True
            if state == HALF_OPEN:
                if self._half_open_inflight < self.half_open_max:
                    self._half_open_inflight += 1
                    return True
            self._rejections += 1
            return False

    def check(self) -> None:
        """Like :meth:`allow` but raises :class:`CircuitOpenError` when shut."""
        if not self.allow():
            with self._lock:
                retry_after = max(
                    0.0, self.cooldown - (self._clock() - self._opened_at)
                )
            raise CircuitOpenError(self.name, retry_after)

    # -- outcomes ------------------------------------------------------

    def record_success(self, latency_ms: float | None = None) -> None:
        """Record a successful call (optionally with its latency)."""
        with self._lock:
            if latency_ms is not None:
                if self._latency_ewma_ms is None:
                    self._latency_ewma_ms = float(latency_ms)
                else:
                    self._latency_ewma_ms += 0.25 * (
                        float(latency_ms) - self._latency_ewma_ms
                    )
            state = self._state_locked()
            if state == HALF_OPEN:
                self._half_open_successes += 1
                if self._half_open_successes >= self.half_open_max:
                    self._state = CLOSED
                    self._outcomes.clear()
                return
            self._outcomes.append(True)

    def record_failure(self) -> None:
        """Record a failed call; may open (or re-open) the breaker."""
        with self._lock:
            state = self._state_locked()
            if state == HALF_OPEN:
                self._open_locked()
                return
            self._outcomes.append(False)
            if len(self._outcomes) >= self.min_calls:
                failures = sum(1 for ok in self._outcomes if not ok)
                if failures / len(self._outcomes) >= self.failure_threshold:
                    self._open_locked()

    def _open_locked(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._opens += 1
        self._outcomes.clear()

    # -- introspection -------------------------------------------------

    @property
    def latency_ewma_ms(self) -> float | None:
        """Smoothed success latency, or ``None`` before the first sample."""
        with self._lock:
            return self._latency_ewma_ms

    def snapshot(self) -> dict:
        """Point-in-time view for health probes and BENCH reports."""
        with self._lock:
            state = self._state_locked()
            outcomes = list(self._outcomes)
            failures = sum(1 for ok in outcomes if not ok)
            return {
                "name": self.name,
                "state": state,
                "window_calls": len(outcomes),
                "window_failures": failures,
                "opens": self._opens,
                "rejections": self._rejections,
                "latency_ewma_ms": self._latency_ewma_ms,
            }


class BreakerBoard:
    """A named registry of breakers sharing one configuration.

    The serving index keeps one board for tiers and the executor one for
    workers; :meth:`snapshot` feeds the ``breakers`` section of
    :meth:`repro.serve.index.ServingIndex.health`.
    """

    def __init__(self, **breaker_kwargs: object) -> None:
        self._kwargs = breaker_kwargs
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}

    def get(self, name: str) -> CircuitBreaker:
        """The breaker for ``name``, created on first use."""
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(name, **self._kwargs)  # type: ignore[arg-type]
                self._breakers[name] = breaker
            return breaker

    def drop(self, name: str) -> None:
        """Forget a breaker (e.g. when its worker slot is respawned)."""
        with self._lock:
            self._breakers.pop(name, None)

    def snapshot(self) -> dict:
        """Per-breaker snapshots keyed by name, in sorted order."""
        with self._lock:
            breakers = dict(self._breakers)
        return {
            name: breakers[name].snapshot() for name in sorted(breakers)
        }
