"""End-to-end deadlines, circuit breakers, and retry/timeout policies.

Covers the resilience primitives in isolation (deterministic clocks, no
real waiting), their integration into the guard's tier ladder and the
admission controller, the fabric's hung-worker repair, and the
cache-vs-republish race that must never surface a stale-epoch answer.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.builder import build_extended_graph
from repro.core.dataset import Dataset
from repro.core.functions import LinearFunction
from repro.core.guard import run_query
from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    DegradedResultWarning,
    QueryBudgetExceeded,
    ServiceOverloaded,
)
from repro.parallel.executor import ParallelQueryExecutor
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    TimeoutPolicy,
)
from repro.serve.admission import AdmissionController
from repro.serve.index import ServingIndex, snapshot_scan

F = LinearFunction([0.5, 0.5])


class FakeClock:
    """A manually advanced monotonic clock for breaker/deadline tests."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_after_ms_validates(self):
        with pytest.raises(ValueError):
            Deadline.after_ms(0)
        with pytest.raises(ValueError):
            Deadline.after_ms(-5)

    def test_remaining_counts_down(self):
        deadline = Deadline.after_ms(10_000)
        assert 0 < deadline.remaining() <= 10.0
        assert 0 < deadline.remaining_ms() <= 10_000
        assert not deadline.expired
        assert deadline.spent_ms() >= 0.0

    def test_check_raises_typed_budget_error(self):
        deadline = Deadline(expires_at=time.monotonic() - 1.0, total_ms=50.0)
        assert deadline.expired
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check(stage="kernel", tier="compiled")
        exc = excinfo.value
        assert isinstance(exc, QueryBudgetExceeded)
        assert exc.kind == "time"
        assert exc.stage == "kernel"
        assert exc.tier == "compiled"
        assert exc.spent >= exc.limit

    def test_clamp_bounds_waits(self):
        deadline = Deadline.after_ms(10_000)
        assert deadline.clamp(0.001) == pytest.approx(0.001)
        assert deadline.clamp(60.0) <= 10.0
        assert deadline.clamp(None) <= 10.0
        expired = Deadline(expires_at=time.monotonic() - 1.0, total_ms=1.0)
        assert expired.clamp(5.0) == 0.0

    def test_picklable_for_the_fork_boundary(self):
        import pickle

        deadline = Deadline.after_ms(500)
        clone = pickle.loads(pickle.dumps(deadline))
        assert clone.expires_at == deadline.expires_at
        assert clone.total_ms == deadline.total_ms


class TestCircuitBreaker:
    def _tripped(self, clock) -> CircuitBreaker:
        breaker = CircuitBreaker(
            "t", window=4, failure_threshold=0.5, min_calls=2,
            cooldown=1.0, clock=clock,
        )
        breaker.record_failure()
        breaker.record_failure()
        return breaker

    def test_opens_at_failure_threshold(self):
        clock = FakeClock()
        breaker = self._tripped(clock)
        assert breaker.state == OPEN
        assert not breaker.allow()
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.check()
        assert excinfo.value.retry_after <= 1.0

    def test_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        breaker = self._tripped(clock)
        clock.advance(1.5)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()       # the single probe
        assert not breaker.allow()   # second concurrent probe refused
        breaker.record_success(latency_ms=5.0)
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self._tripped(clock)
        clock.advance(1.5)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_below_min_calls_never_opens(self):
        breaker = CircuitBreaker("t", window=8, min_calls=4)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_latency_ewma(self):
        breaker = CircuitBreaker("t")
        assert breaker.latency_ewma_ms is None
        breaker.record_success(latency_ms=100.0)
        breaker.record_success(latency_ms=0.0)
        assert breaker.latency_ewma_ms == pytest.approx(75.0)

    def test_snapshot_shape(self):
        breaker = CircuitBreaker("t")
        snap = breaker.snapshot()
        assert snap["name"] == "t"
        assert snap["state"] == CLOSED
        assert set(snap) >= {"window_calls", "window_failures", "opens",
                             "rejections", "latency_ewma_ms"}

    def test_board_is_a_registry(self):
        board = BreakerBoard(min_calls=1, failure_threshold=0.5)
        assert board.get("a") is board.get("a")
        board.get("b").record_failure()
        snap = board.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap["b"]["state"] == OPEN
        board.drop("b")
        assert board.get("b").state == CLOSED


class TestRetryPolicy:
    def test_retries_then_succeeds(self):
        sleeps: list = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        policy = RetryPolicy(attempts=3, base_delay=0.01, sleep=sleeps.append)
        assert policy.run(flaky) == "ok"
        assert sleeps == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_fatal_errors_never_retry(self):
        calls = {"n": 0}

        def fatal():
            calls["n"] += 1
            raise QueryBudgetExceeded("records", 1, 2)

        policy = RetryPolicy(attempts=5, sleep=lambda _: None)
        with pytest.raises(QueryBudgetExceeded):
            policy.run(fatal)
        assert calls["n"] == 1

    def test_expired_deadline_raises_before_the_first_attempt(self):
        calls = {"n": 0}

        def work():
            calls["n"] += 1
            return "ok"

        expired = Deadline(expires_at=time.monotonic() - 1.0, total_ms=1.0)
        policy = RetryPolicy(sleep=lambda _: None)
        with pytest.raises(DeadlineExceeded):
            policy.run(work, deadline=expired)
        assert calls["n"] == 0

    def test_never_sleeps_past_the_deadline(self):
        sleeps: list = []

        def failing():
            raise RuntimeError("transient")

        # 5 ms of budget cannot cover a 1 s backoff: the policy must
        # re-raise the failure instead of burning the rest of the budget
        # asleep.
        deadline = Deadline.after_ms(5)
        policy = RetryPolicy(
            attempts=3, base_delay=1.0, sleep=sleeps.append
        )
        with pytest.raises(RuntimeError):
            policy.run(failing, deadline=deadline)
        assert sleeps == []

    def test_validates_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)


class TestTimeoutPolicy:
    def test_deadline_for(self):
        policy = TimeoutPolicy(default_deadline_ms=250.0)
        assert policy.deadline_for() is not None
        assert policy.deadline_for(500.0).total_ms == 500.0
        assert TimeoutPolicy().deadline_for() is None

    def test_hedge_delay(self):
        assert TimeoutPolicy(reply_timeout=2.0, hedge_fraction=0.25
                             ).hedge_delay == pytest.approx(0.5)
        assert TimeoutPolicy(reply_timeout=None).hedge_delay is None

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeoutPolicy(default_deadline_ms=0.0)
        with pytest.raises(ValueError):
            TimeoutPolicy(reply_timeout=-1.0)
        with pytest.raises(ValueError):
            TimeoutPolicy(hedge_fraction=0.0)


@pytest.fixture
def graph():
    rng = np.random.default_rng(7)
    return build_extended_graph(Dataset(rng.random((60, 2))))


class TestGuardDeadline:
    def test_expired_deadline_is_typed_and_never_degrades(self, graph):
        expired = Deadline(expires_at=time.monotonic() - 1.0, total_ms=1.0)
        with pytest.raises(DeadlineExceeded):
            run_query(graph, F, 5, deadline=expired)

    def test_generous_deadline_changes_nothing(self, graph):
        deadline = Deadline.after_ms(60_000)
        free = run_query(graph, F, 5)
        bounded = run_query(graph, F, 5, deadline=deadline)
        assert bounded.ids == free.ids
        assert bounded.scores == pytest.approx(free.scores)
        assert bounded.tier == "compiled"

    def test_open_breaker_skips_a_non_final_tier(self, graph):
        board = BreakerBoard(min_calls=1, failure_threshold=0.5)
        board.get("tier:compiled").record_failure()
        assert board.get("tier:compiled").state == OPEN
        with pytest.warns(DegradedResultWarning, match="compiled"):
            result = run_query(graph, F, 5, breakers=board)
        assert result.tier == "naive"
        oracle = run_query(graph, F, 5, engine="naive")
        assert result.ids == oracle.ids

    def test_open_breakers_never_skip_the_last_tier(self, graph):
        board = BreakerBoard(min_calls=1, failure_threshold=0.5)
        for tier in ("compiled", "naive"):
            board.get(f"tier:{tier}").record_failure()
        with pytest.warns(DegradedResultWarning):
            result = run_query(graph, F, 5, breakers=board)
        assert result.tier == "naive"

    def test_success_feeds_the_breaker_latency_estimate(self, graph):
        board = BreakerBoard()
        run_query(graph, F, 5, breakers=board)
        assert board.get("tier:compiled").latency_ewma_ms is not None


class TestAdmissionDeadline:
    def test_expired_deadline_rejected_up_front(self):
        controller = AdmissionController(max_concurrent=1)
        expired = Deadline(expires_at=time.monotonic() - 1.0, total_ms=1.0)
        with pytest.raises(DeadlineExceeded):
            with controller.admit(deadline=expired):
                pass
        assert controller.stats.shed == 0  # expiry is not an overload shed
        assert controller.stats.admitted == 0

    def test_deadline_bounds_the_wait(self):
        controller = AdmissionController(
            max_concurrent=1, max_waiting=4, wait_timeout=30.0
        )
        release = threading.Event()

        def hog():
            with controller.admit():
                release.wait(5.0)

        thread = threading.Thread(target=hog)
        thread.start()
        while controller.active == 0:
            time.sleep(0.001)
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            with controller.admit(deadline=Deadline.after_ms(50)):
                pass
        assert time.monotonic() - started < 2.0  # not the 30 s timeout
        release.set()
        thread.join()


@pytest.fixture
def compiled():
    rng = np.random.default_rng(3)
    return build_extended_graph(Dataset(rng.random((120, 3)))).compile()


class TestFabricResilience:
    def _functions(self, count: int) -> list:
        rng = np.random.default_rng(11)
        return [
            LinearFunction(w.tolist())
            for w in rng.uniform(0.1, 1.0, (count, 3))
        ]

    def test_hung_worker_no_longer_wedges_the_pool(self, compiled):
        """Regression: a SIGSTOPped worker used to stall queries forever.

        ``is_alive()`` still reports True for a stopped process, so only
        the missing reply can catch it; the executor must hedge or
        SIGKILL-heal and still answer, bit-identically, within bounds.
        """
        functions = self._functions(6)
        with ParallelQueryExecutor(
            compiled, workers=2, reply_timeout=0.3
        ) as pool:
            baseline = pool.map_queries(functions, k=5)
            os.kill(pool._slots[0].process.pid, signal.SIGSTOP)
            started = time.monotonic()
            stalled = pool.map_queries(functions, k=5)
            elapsed = time.monotonic() - started
            assert elapsed < 10.0  # pre-fix this wedged forever
            for fresh, reference in zip(stalled, baseline):
                assert fresh.ids == reference.ids
                assert fresh.scores == reference.scores
            # And the pool keeps serving afterwards.
            again = pool.map_queries(functions, k=5)
            assert [r.ids for r in again] == [r.ids for r in baseline]
            stats = pool.stats()
            assert (
                stats["tasks_hedged"] > 0
                or stats["workers_killed_hung"] > 0
            )

    def test_reap_rebuilds_the_whole_pool(self, compiled):
        """A reap must not trust the shared reply queue it just shot at."""
        functions = self._functions(4)
        with ParallelQueryExecutor(
            compiled, workers=2, reply_timeout=0.2
        ) as pool:
            os.kill(pool._slots[1].process.pid, signal.SIGSTOP)
            pool.map_queries(functions, k=5)
            stats = pool.stats()
            if stats["workers_killed_hung"]:
                # Both workers were replaced onto a fresh reply queue.
                assert stats["workers_respawned"] >= 2
            for _ in range(3):
                results = pool.map_queries(functions, k=5)
                assert len(results) == len(functions)

    def test_sigkilled_worker_heals(self, compiled):
        functions = self._functions(4)
        with ParallelQueryExecutor(compiled, workers=2) as pool:
            baseline = pool.map_queries(functions, k=5)
            pool._slots[0].process.kill()
            healed = pool.map_queries(functions, k=5)
            assert [r.ids for r in healed] == [r.ids for r in baseline]
            assert pool.stats()["workers_respawned"] >= 1

    def test_kill_during_replies_never_wedges(self, compiled):
        """Regression: a worker SIGKILLed mid-reply used to hang the pool.

        A corpse that dies inside ``results.put`` keeps the reply
        queue's cross-process write lock forever, silencing every other
        worker.  With ``reply_timeout=None`` there is no reap, so only
        the post-crash wedge backstop (``_check_wedged``) can notice the
        silence and rebuild the pool onto a fresh queue.  ``batch_size=1``
        keeps both workers streaming replies so the kill lands mid-put
        with decent probability; with the backstop the call must finish
        either way, bit-identically.
        """
        functions = self._functions(12)
        with ParallelQueryExecutor(compiled, workers=2, batch_size=1) as pool:
            baseline = pool.map_queries(functions, k=5)

            def murder():
                time.sleep(0.002)
                pool._slots[0].process.kill()

            killer = threading.Thread(target=murder)
            killer.start()
            started = time.monotonic()
            healed = pool.map_queries(functions, k=5)
            killer.join()
            assert time.monotonic() - started < 30.0
            assert [r.ids for r in healed] == [r.ids for r in baseline]
            # And the rebuilt pool keeps serving.
            again = pool.map_queries(functions, k=5)
            assert [r.ids for r in again] == [r.ids for r in baseline]

    def test_expired_deadline_raises_typed_from_the_fabric(self, compiled):
        expired = Deadline(expires_at=time.monotonic() - 1.0, total_ms=1.0)
        with ParallelQueryExecutor(compiled, workers=2) as pool:
            with pytest.raises(DeadlineExceeded):
                pool.map_queries(self._functions(2), k=5, deadline=expired)

    def test_stats_expose_breakers(self, compiled):
        with ParallelQueryExecutor(compiled, workers=2) as pool:
            pool.map_queries(self._functions(2), k=5)
            stats = pool.stats()
            assert stats["reply_timeout"] is None
            assert any(
                name.startswith("worker:") for name in stats["breakers"]
            )


class TestServingDeadlines:
    @pytest.fixture
    def serving(self, tmp_path):
        rng = np.random.default_rng(5)
        dataset = Dataset(rng.uniform(0.0, 100.0, (150, 3)).tolist())
        index = ServingIndex.create(str(tmp_path / "idx"), dataset)
        yield index
        index.close(checkpoint=False)

    def test_expired_deadline_is_typed_not_degraded(self, serving):
        with pytest.raises(DeadlineExceeded):
            serving.query(F3, 5, deadline_ms=1e-6)

    def test_batch_deadline_expired(self, serving):
        with pytest.raises(DeadlineExceeded):
            serving.query_batch([F3, F3], 5, deadline_ms=1e-6)

    def test_generous_deadline_answers_identically(self, serving):
        free = serving.query(F3, 5)
        bounded = serving.query(F3, 5, deadline_ms=60_000.0)
        assert bounded.ids == free.ids
        assert bounded.scores == free.scores

    def test_health_reports_breakers_and_policies(self, serving):
        health = serving.health()
        assert "breakers" in health
        assert health["policies"]["reply_timeout"] == pytest.approx(2.0)
        assert health["policies"]["retry_attempts"] >= 1

    def test_default_deadline_policy_applies(self, tmp_path):
        rng = np.random.default_rng(6)
        dataset = Dataset(rng.uniform(0.0, 100.0, (80, 3)).tolist())
        index = ServingIndex.create(
            str(tmp_path / "idx2"),
            dataset,
            timeout_policy=TimeoutPolicy(default_deadline_ms=60_000.0),
        )
        try:
            result = index.query(F3, 5)
            assert result.tier == "compiled"
        finally:
            index.close(checkpoint=False)


F3 = LinearFunction([0.5, 0.3, 0.2])


class TestCacheEpochRace:
    def test_purge_racing_republish_never_serves_stale_epochs(self, tmp_path):
        """Satellite: cached answers must match the epoch they claim.

        A writer republishes (delete/insert cycles) while a reader
        hammers the cached batch path.  Every result is verified after
        the fact against a full-scan oracle of the exact snapshot that
        carried its epoch — a cache entry surviving a purge race would
        surface as an epoch/answer mismatch here.
        """
        rng = np.random.default_rng(9)
        dataset = Dataset(rng.uniform(0.0, 100.0, (120, 3)).tolist())
        index = ServingIndex.create(
            str(tmp_path / "race"), dataset, cache_size=64
        )
        oracle = {}
        lock = threading.Lock()

        def register():
            snap = index.snapshot()
            with lock:
                oracle[snap.epoch] = snap

        register()
        functions = [
            LinearFunction(w.tolist())
            for w in rng.uniform(0.1, 1.0, (4, 3))
        ]
        seen: list = []
        stop = threading.Event()
        errors: list = []
        snap0 = index.snapshot().compiled
        real_ids = sorted(
            int(rid)
            for rid, pseudo in zip(
                snap0.record_ids.tolist(), snap0.pseudo_mask.tolist()
            )
            if not pseudo
        )

        def reader():
            try:
                while not stop.is_set():
                    results = index.query_batch(functions, 5)
                    seen.extend(zip(functions, results))
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        def writer():
            try:
                for round_index in range(25):
                    victim = real_ids[round_index % len(real_ids)]
                    index.delete(victim)
                    register()
                    index.insert(victim)
                    register()
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        writer_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        writer_thread.start()
        writer_thread.join()
        stop.set()
        for thread in threads:
            thread.join()
        index.close(checkpoint=False)
        assert not errors, errors
        assert seen, "reader made no progress"
        for function, result in seen:
            snap = oracle.get(result.epoch)
            assert snap is not None, (
                f"result claims unknown epoch {result.epoch}"
            )
            expected = snapshot_scan(
                snap.compiled, function, 5, overlay=snap.overlay
            )
            assert (result.ids, result.scores) == (
                expected.ids,
                expected.scores,
            ), (
                f"epoch {result.epoch} answer diverges from its "
                "snapshot's oracle: stale cache entry"
            )
