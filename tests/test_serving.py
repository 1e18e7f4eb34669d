"""ServingIndex: lifecycle, durability, recovery, admission, probes."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.builder import build_dominant_graph
from repro.core.compiled import CompiledAdvancedTraveler
from repro.core.dataset import Dataset
from repro.core.functions import LinearFunction
from repro.core.verify import verify_graph
from repro.errors import (
    DegradedResultWarning,
    IndexCorruptionError,
    QueryBudgetExceeded,
    ServiceOverloaded,
    ServiceUnavailable,
    WALCorruptionError,
)
from repro.serve import ServingIndex, scan_wal
from repro.serve.index import CURRENT_NAME, WAL_NAME
from repro.testing import FlakyFunction

from tests.conftest import assert_correct_topk


@pytest.fixture
def dataset(rng) -> Dataset:
    return Dataset(rng.random((40, 3)))


@pytest.fixture
def serving(tmp_path, dataset) -> ServingIndex:
    index = ServingIndex.create(
        str(tmp_path / "serve"), dataset, fsync="batch"
    )
    yield index
    index.close(checkpoint=False)


def weights3() -> LinearFunction:
    return LinearFunction([0.5, 0.3, 0.2])


class TraversalOnlyFault:
    """Scoring function that dies in the batch kernel but survives the scan.

    The batch kernel scores read-only slice views of the frozen snapshot's
    value matrix, while :func:`repro.serve.index.snapshot_scan` extracts
    the real records with a boolean mask — a fresh, writeable copy.
    Failing every read-only block exercises "every compiled-tier attempt
    fails, the degraded scan succeeds" regardless of chunk geometry (small
    datasets fit in one chunk, so batch *size* no longer distinguishes the
    two paths).
    """

    def __init__(self, inner, full_count: int) -> None:
        self.inner = inner
        self.full_count = full_count

    def __call__(self, vector: np.ndarray) -> float:
        raise RuntimeError("injected scoring fault")

    def score_many(self, block: np.ndarray) -> np.ndarray:
        if not block.flags.writeable:
            raise RuntimeError("injected scoring fault")
        return self.inner.score_many(block)


class TestLifecycle:
    def test_create_then_query(self, serving, dataset):
        result = serving.query(weights3(), k=5)
        assert_correct_topk(result, dataset, weights3(), 5)
        assert result.epoch == 0
        assert result.tier == "compiled"

    def test_create_refuses_existing_directory(self, tmp_path, dataset):
        directory = str(tmp_path / "serve")
        ServingIndex.create(directory, dataset).close()
        with pytest.raises(FileExistsError, match="ServingIndex.open"):
            ServingIndex.create(directory, dataset)

    def test_create_accepts_prebuilt_graph(self, tmp_path, dataset):
        graph = build_dominant_graph(dataset)
        with ServingIndex.create(str(tmp_path / "serve"), graph) as index:
            assert index.snapshot().compiled.num_records == len(dataset)

    def test_create_rejects_other_sources(self, tmp_path):
        with pytest.raises(TypeError, match="DominantGraph or Dataset"):
            ServingIndex.create(str(tmp_path / "serve"), [[1.0, 2.0]])

    def test_close_is_idempotent_and_refuses_new_work(self, serving):
        assert serving.close() is True
        assert serving.close() is True
        with pytest.raises(ServiceUnavailable, match="closed"):
            serving.query(weights3(), k=1)
        with pytest.raises(ServiceUnavailable, match="closed"):
            serving.insert(20)

    def test_mutations_advance_the_epoch(self, partial):
        index, _dataset = partial
        assert index.epoch == 0
        index.insert(20)
        index.delete(3)
        assert index.epoch == 2


def _indexed(index: ServingIndex) -> set:
    # Overlay-aware: a recovered index serves the WAL suffix as an
    # overlay on the checkpoint's base.
    return {int(r) for r in index.snapshot().alive_ids().tolist()}


@pytest.fixture
def partial(tmp_path, rng):
    """Serving index over half of a dataset, the rest pending insert."""
    dataset = Dataset(rng.random((40, 3)))
    graph = build_dominant_graph(dataset, record_ids=range(20))
    index = ServingIndex.create(
        str(tmp_path / "partial"), graph, fsync="batch"
    )
    yield index, dataset
    index.close(checkpoint=False)


class TestDurability:
    def test_reopen_without_close_replays_the_wal(self, tmp_path, partial):
        index, dataset = partial
        index.insert(25)
        index.insert_many([30, 31, 32])
        index.delete(3)
        index.mark_deleted(7)
        index._wal.sync()
        live = index.query(weights3(), k=10)

        # No close(): recovery sees checkpoint-0 plus five WAL records.
        recovered = ServingIndex.open(index._directory + "")
        try:
            assert not verify_graph(recovered._materialized_graph())
            again = recovered.query(weights3(), k=10)
            assert again.ids == live.ids
            assert again.scores == live.scores
        finally:
            recovered.close(checkpoint=False)

    def test_recovery_equals_rebuild_bit_for_bit(self, tmp_path, partial):
        index, dataset = partial
        index.insert_many(list(range(20, 30)))
        index.delete_many([1, 4])
        index._wal.sync()

        recovered = ServingIndex.open(index._directory)
        try:
            survivors = sorted(_indexed(recovered))
            rebuilt = CompiledAdvancedTraveler(
                build_dominant_graph(dataset, record_ids=survivors).compile()
            )
            for seed in range(3):
                fn = LinearFunction(
                    np.random.default_rng(seed).random(3) + 0.05
                )
                for k in (1, 5, 20):
                    want = rebuilt.top_k(fn, k)
                    got = recovered.query(fn, k)
                    assert got.ids == want.ids
                    assert got.scores == want.scores
        finally:
            recovered.close(checkpoint=False)

    def test_checkpoint_truncates_wal_and_survives_reopen(self, partial):
        index, _dataset = partial
        index.insert(22)
        index.insert(23)
        name = index.checkpoint()
        assert name.endswith(".dgs")
        scan = scan_wal(os.path.join(index._directory, WAL_NAME))
        assert scan.records == []
        assert scan.base_seq == 2
        index.insert(24)  # post-checkpoint op lands in the fresh WAL

        recovered = ServingIndex.open(index._directory)
        try:
            assert _indexed(recovered) >= {22, 23, 24}
        finally:
            recovered.close(checkpoint=False)

    def test_checkpoint_with_nothing_new_is_a_noop(self, partial):
        index, _dataset = partial
        first = index.checkpoint()
        before = os.path.getmtime(os.path.join(index._directory, first))
        assert index.checkpoint() == first
        after = os.path.getmtime(os.path.join(index._directory, first))
        assert before == after

    def test_auto_checkpoint_interval(self, tmp_path, rng):
        dataset = Dataset(rng.random((30, 2)))
        graph = build_dominant_graph(dataset, record_ids=range(20))
        index = ServingIndex.create(
            str(tmp_path / "auto"),
            graph,
            fsync="never",
            checkpoint_interval=3,
        )
        try:
            for rid in (20, 21, 22):
                index.insert(rid)
            scan = scan_wal(os.path.join(index._directory, WAL_NAME))
            assert scan.base_seq == 3 and scan.records == []
        finally:
            index.close(checkpoint=False)

    def test_orphan_checkpoints_are_collected(self, partial):
        index, _dataset = partial
        index.insert(21)
        index.checkpoint()
        index.insert(22)
        index.checkpoint()
        names = [
            n for n in os.listdir(index._directory)
            if n.startswith("checkpoint-")
        ]
        assert len(names) == 1

    def test_missing_wal_recovers_from_checkpoint_with_warning(
        self, partial
    ):
        index, _dataset = partial
        index.insert(21)
        index.checkpoint()
        index.close(checkpoint=False)
        os.unlink(os.path.join(index._directory, WAL_NAME))
        with pytest.warns(DegradedResultWarning, match="log missing"):
            recovered = ServingIndex.open(index._directory)
        try:
            assert 21 in _indexed(recovered)
        finally:
            recovered.close(checkpoint=False)

    def test_wal_from_the_future_is_corruption(self, partial):
        index, _dataset = partial
        index.insert(21)
        name = index.checkpoint()  # WAL base_seq is now 1
        index.close(checkpoint=False)
        # Forge a CURRENT claiming the checkpoint applied nothing: the
        # WAL now starts *after* operations the checkpoint lacks.
        from repro.serve.index import _write_current

        _write_current(index._directory, name, 0)
        with pytest.raises(IndexCorruptionError, match="missing between"):
            ServingIndex.open(index._directory)

    def test_unreplayable_record_is_corruption(self, partial):
        index, _dataset = partial
        index.insert(21)
        index._wal.sync()
        index.close(checkpoint=False)
        # Re-point CURRENT at the original checkpoint but doctor the WAL
        # to insert a record id that is already indexed there.
        from repro.serve.wal import WriteAheadLog

        with WriteAheadLog(
            os.path.join(index._directory, WAL_NAME), fsync="never"
        ) as wal:
            wal.append({"op": "insert", "rid": 0})  # 0 already indexed
        with pytest.raises(WALCorruptionError, match="no longer applies"):
            ServingIndex.open(index._directory)

    def test_missing_current_pointer_raises(self, tmp_path):
        os.makedirs(tmp_path / "empty", exist_ok=True)
        with pytest.raises(FileNotFoundError):
            ServingIndex.open(str(tmp_path / "empty"))


class TestQueries:
    def test_queries_carry_the_snapshot_epoch(self, partial):
        index, dataset = partial
        assert index.query(weights3(), k=3).epoch == 0
        index.insert(20)
        assert index.query(weights3(), k=3).epoch == 1

    def test_where_filter_applies(self, serving, dataset):
        threshold = float(np.median(dataset.values[:, 0]))
        result = serving.query(
            weights3(), k=30, where=lambda v: v[0] <= threshold
        )
        assert all(
            dataset.values[rid, 0] <= threshold for rid in result.ids
        )

    def test_budget_violation_raises_and_is_not_degraded(self, serving):
        with pytest.raises(QueryBudgetExceeded) as excinfo:
            serving.query(weights3(), k=10, budget_records=1)
        assert excinfo.value.tier == "compiled"

    def test_transient_fault_retries_then_succeeds(self, serving, dataset):
        flaky = FlakyFunction(weights3(), times=1)
        result = serving.query(flaky, k=5)
        assert result.tier == "compiled"
        assert_correct_topk(result, dataset, weights3(), 5)

    def test_persistent_fault_degrades_to_snapshot_scan(
        self, serving, dataset
    ):
        faulty = TraversalOnlyFault(weights3(), len(dataset))
        with pytest.warns(DegradedResultWarning, match="degrading"):
            result = serving.query(faulty, k=5)
        assert result.tier == "naive"
        assert result.algorithm == "snapshot-scan"
        assert_correct_topk(result, dataset, weights3(), 5)

    def test_fallback_false_propagates_the_fault(self, serving, dataset):
        faulty = TraversalOnlyFault(weights3(), len(dataset))
        with pytest.raises(RuntimeError, match="injected"):
            serving.query(faulty, k=5, fallback=False)

    def test_degraded_scan_matches_traversal_exactly(self, serving, dataset):
        clean = serving.query(weights3(), k=8)
        faulty = TraversalOnlyFault(weights3(), len(dataset))
        with pytest.warns(DegradedResultWarning):
            degraded = serving.query(faulty, k=8)
        assert degraded.ids == clean.ids
        assert degraded.scores == clean.scores
        assert degraded.epoch == clean.epoch


class TestMalformedQueries:
    """A caller's mistake is refused up front, not treated as a tier fault."""

    def test_wrong_dims_and_bad_k_raise_without_touching_the_ladder(
        self, serving, recwarn
    ):
        def breaker():
            return serving.health()["breakers"]["tier:compiled"]

        serving.query(weights3(), 5)
        before = breaker()
        admitted = serving.health()["admission"]["admitted"]
        for _ in range(50):
            with pytest.raises(ValueError, match="function dims 4 != snapshot dims 3"):
                serving.query(LinearFunction([1.0, 1.0, 1.0, 1.0]), 5)
            with pytest.raises(ValueError, match="k must be positive"):
                serving.query(weights3(), 0)
            with pytest.raises(ValueError, match="k must be positive"):
                serving.query_batch([weights3(), weights3()], -1)
            with pytest.raises(ValueError, match="function dims 2 != snapshot dims 3"):
                serving.query_batch([weights3(), LinearFunction([1.0, 1.0])], 5)
        assert not [w for w in recwarn if w.category is DegradedResultWarning]
        after = breaker()
        assert after["state"] == "closed" and after["window_failures"] == 0
        assert after["window_calls"] == before["window_calls"]
        assert serving.health()["admission"]["admitted"] == admitted
        good = serving.query(LinearFunction([0.2, 0.3, 0.5]), 5)
        assert good.tier == "compiled"
        assert serving.query_batch([], -1) == []  # nothing asked, nothing wrong

    def test_functions_without_dims_are_left_to_the_kernel(self, serving, dataset):
        from repro.core.functions import MinFunction

        assert not hasattr(MinFunction(), "dims")
        result = serving.query(MinFunction(), 3)
        assert result.tier == "compiled"
        assert_correct_topk(result, dataset, MinFunction(), 3)


class TestWriterPoisoning:
    def test_validation_failure_does_not_poison(self, partial):
        index, _dataset = partial
        with pytest.raises(ValueError):
            index.insert(0)  # already indexed: caught by validation
        assert index.readiness()["ready"]
        index.insert(20)  # writer still healthy

    def test_apply_failure_poisons_writes_not_reads(
        self, partial, monkeypatch
    ):
        index, _dataset = partial
        epoch_before = index.epoch
        result_before = index.query(weights3(), k=5)

        import repro.serve.index as serve_index

        def boom(graph, rid):
            raise RuntimeError("injected apply fault")

        monkeypatch.setattr(serve_index, "insert_record", boom)
        with pytest.raises(RuntimeError, match="injected apply"):
            index.insert(20)

        # Reads keep answering from the last published snapshot ...
        after = index.query(weights3(), k=5)
        assert after.ids == result_before.ids
        assert after.epoch == epoch_before
        # ... writes refuse with the poisoned detail ...
        monkeypatch.undo()
        with pytest.raises(ServiceUnavailable, match="poisoned"):
            index.insert(21)
        with pytest.raises(ServiceUnavailable, match="poisoned"):
            index.checkpoint()
        assert index.health()["status"] == "degraded"
        # ... and nothing poisoned was logged: restart recovery is clean.
        recovered = ServingIndex.open(index._directory)
        try:
            assert not verify_graph(recovered._materialized_graph())
            assert 20 not in _indexed(recovered)
        finally:
            recovered.close(checkpoint=False)


class TestAdmission:
    def test_overload_sheds_with_typed_error(self, tmp_path, rng):
        from repro.serve import AdmissionController

        admission = AdmissionController(
            max_concurrent=1, max_waiting=0, wait_timeout=0.01
        )
        with admission.admit():
            with pytest.raises(ServiceOverloaded) as excinfo:
                with admission.admit():
                    pass
        assert excinfo.value.reason == "overloaded"
        assert admission.snapshot()["shed"] == 1
        # The slot freed: the next admit succeeds.
        with admission.admit():
            pass

    def test_wait_timeout_sheds(self):
        from repro.serve import AdmissionController

        admission = AdmissionController(
            max_concurrent=1, max_waiting=4, wait_timeout=0.02
        )
        with admission.admit():
            with pytest.raises(ServiceOverloaded):
                with admission.admit():
                    pass

    def test_exception_in_the_body_releases_the_slot(self):
        from repro.serve import AdmissionController

        admission = AdmissionController(max_concurrent=1, max_waiting=0)
        for _ in range(3):  # a leaked slot would shed the second round
            with pytest.raises(RuntimeError, match="boom"):
                with admission.admit():
                    assert admission.active == 1
                    raise RuntimeError("boom")
            assert admission.active == 0
        assert admission.stats.as_dict() == {
            "admitted": 3, "completed": 3, "shed": 0, "peak_active": 1,
        }

    def test_refusals_happen_on_entering_and_hold_nothing(self):
        import time

        from repro.errors import DeadlineExceeded
        from repro.resilience import Deadline
        from repro.serve import AdmissionController

        admission = AdmissionController(
            max_concurrent=1, max_waiting=0, wait_timeout=0.01
        )
        expired = Deadline(expires_at=time.monotonic() - 1.0, total_ms=1.0)
        # Asking for a slot refuses nothing; entering the block does.
        late, crowded = admission.admit(deadline=expired), admission.admit()
        with pytest.raises(DeadlineExceeded) as excinfo:
            with late:
                pytest.fail("the body must not run")
        assert excinfo.value.stage == "admission"
        assert admission.active == 0 and admission.waiting == 0
        with admission.admit():
            with pytest.raises(ServiceOverloaded):
                with crowded:
                    pytest.fail("the body must not run")
            assert admission.active == 1  # the holder kept its slot
        assert admission.active == 0 and admission.waiting == 0
        # admitted counts entries, completed counts exits, refusals neither.
        assert admission.stats.as_dict() == {
            "admitted": 1, "completed": 1, "shed": 1, "peak_active": 1,
        }

    def test_stats_count_entries_exits_and_the_high_water_mark(self):
        from repro.serve import AdmissionController

        admission = AdmissionController(max_concurrent=3)
        with admission.admit():
            with admission.admit():
                assert admission.stats.admitted == 2
                assert admission.stats.completed == 0
            assert admission.stats.completed == 1
            with admission.admit():
                pass
        assert admission.snapshot() == {
            "active": 0, "waiting": 0, "max_concurrent": 3, "max_waiting": 16,
            "admitted": 3, "completed": 3, "shed": 0, "peak_active": 2,
        }

    def test_retry_backoff_schedule_is_deterministic(self):
        from repro.serve import retry_with_backoff

        sleeps = []
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return "ok"

        assert (
            retry_with_backoff(
                flaky, attempts=3, base_delay=0.01, sleep=sleeps.append
            )
            == "ok"
        )
        assert sleeps == [0.01, 0.02]

    def test_retry_never_retries_budget_violations(self):
        from repro.serve import retry_with_backoff

        calls = []

        def tripped():
            calls.append(1)
            raise QueryBudgetExceeded("records", limit=1, spent=2)

        with pytest.raises(QueryBudgetExceeded):
            retry_with_backoff(tripped, attempts=5, sleep=lambda _s: None)
        assert len(calls) == 1


class TestProbes:
    def test_health_reports_the_serving_state(self, partial):
        index, _dataset = partial
        index.insert(20)
        health = index.health()
        assert health["status"] == "ok"
        assert health["epoch"] == 1
        assert health["records"] == 21
        assert health["wal"]["last_seq"] == 1
        assert health["admission"]["admitted"] == 0

    def test_readiness_flips_through_the_lifecycle(self, partial):
        index, _dataset = partial
        assert index.readiness() == {"ready": True, "reasons": []}
        index.close()
        ready = index.readiness()
        assert not ready["ready"]
        assert "closed" in ready["reasons"]

    def test_health_after_close(self, partial):
        index, _dataset = partial
        index.close()
        assert index.health()["status"] == "closed"
