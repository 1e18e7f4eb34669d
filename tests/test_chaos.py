"""Chaos suite: every injected fault is repaired, degraded, or typed.

The resilience contract under test, for each fault family:

- **storage faults** (bit flips, truncation, forged versions, tampered
  arrays) must surface as :class:`IndexCorruptionError` — or load
  cleanly with bit-identical answers when the damage was harmless;
- **engine faults** (scoring functions that throw mid-traversal) must
  degrade to the snapshot scan with identical answers and a
  :class:`DegradedResultWarning`;
- **budget violations** must raise :class:`QueryBudgetExceeded`, never
  return a truncated answer;
- **dirty data** (NaN/inf rows and weights) must be rejected or
  quarantined before it can perturb a top-k answer.

Never, under any fault, a silent wrong answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.advanced import AdvancedTraveler
from repro.core.builder import build_extended_graph
from repro.core.dataset import Dataset
from repro.core.functions import LinearFunction, WeightedPowerFunction
from repro.core.guard import run_query
from repro.core.io import load_graph, repair_graph, save_graph
from repro.core.maintenance import mark_deleted
from repro.errors import (
    DegradedResultWarning,
    IndexCorruptionError,
    QueryBudgetExceeded,
)
from repro.resilience.breaker import BreakerBoard
from repro.testing.faults import (
    FlakyFunction,
    flip_bits,
    set_format_version,
    tamper_array,
    truncate_file,
)

F = LinearFunction([0.6, 0.4])
K = 5


@pytest.fixture
def graph():
    rng = np.random.default_rng(42)
    return build_extended_graph(Dataset(rng.random((60, 2))))


@pytest.fixture
def saved(graph, tmp_path):
    return save_graph(graph, str(tmp_path / "index"))


def answers(graph, function=F, k=K):
    return AdvancedTraveler(graph).top_k(function, k).score_multiset()


class TestStorageFaults:
    """Damaged archives: detected and attributed, or provably harmless."""

    @pytest.mark.parametrize("seed", range(8))
    def test_bitflips_never_silently_change_answers(self, graph, saved, seed):
        oracle = answers(graph)
        flip_bits(saved, n=3, seed=seed)
        try:
            reloaded = load_graph(saved)
        except IndexCorruptionError:
            return  # detected: contract satisfied
        assert answers(reloaded) == pytest.approx(oracle)

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.9])
    def test_truncation_is_detected(self, saved, fraction):
        truncate_file(saved, fraction=fraction)
        with pytest.raises(IndexCorruptionError):
            load_graph(saved)

    def test_unknown_format_version_is_refused(self, saved):
        set_format_version(saved, 99)
        with pytest.raises(IndexCorruptionError, match="version"):
            load_graph(saved)

    def test_tamper_without_resigning_trips_checksum(self, saved):
        tamper_array(saved, "layer_of", lambda a: a + 1)
        with pytest.raises(IndexCorruptionError, match="checksum"):
            load_graph(saved)

    def test_resigned_tamper_trips_structural_validation(self, saved):
        tamper_array(saved, "layer_of", lambda a: a + 1, fix_manifest=True)
        with pytest.raises(IndexCorruptionError):
            load_graph(saved)

    def test_nan_values_in_archive_are_refused(self, saved):
        def poison(values):
            values = values.copy()
            values[0, 0] = np.nan
            return values

        tamper_array(saved, "values", poison, fix_manifest=True)
        with pytest.raises(IndexCorruptionError, match="finite"):
            load_graph(saved)

    def test_duplicate_edges_are_refused(self, saved):
        tamper_array(
            saved, "edges", lambda e: np.vstack([e, e[:1]]), fix_manifest=True
        )
        with pytest.raises(IndexCorruptionError, match="duplicate"):
            load_graph(saved)


class TestRepair:
    """Corruption + repair: the rebuilt index answers like the original."""

    def test_repair_restores_answers(self, graph, saved):
        oracle = answers(graph)
        tamper_array(saved, "edges", lambda e: e[::-1])
        with pytest.raises(IndexCorruptionError):
            load_graph(saved)
        repaired, notes = repair_graph(saved)
        assert answers(repaired) == pytest.approx(oracle)
        assert any("re-indexed" in note for note in notes)

    def test_load_with_repair_flag_warns_and_answers(self, graph, saved):
        oracle = answers(graph)
        tamper_array(saved, "edges", lambda e: e[::-1])
        with pytest.warns(DegradedResultWarning):
            repaired = load_graph(saved, repair=True)
        assert answers(repaired) == pytest.approx(oracle)

    def test_repair_never_resurrects_mark_deleted(self, graph, tmp_path):
        victim = AdvancedTraveler(graph).top_k(F, 1).ids[0]
        mark_deleted(graph, victim)
        oracle = answers(graph)
        path = save_graph(graph, str(tmp_path / "deleted"))
        tamper_array(path, "edges", lambda e: e[::-1])
        repaired, _notes = repair_graph(path)
        assert victim not in AdvancedTraveler(repaired).top_k(F, K).ids
        assert answers(repaired) == pytest.approx(oracle)

    def test_lost_values_is_unrepairable(self, saved):
        tamper_array(saved, "values", np.asarray([1.0]))
        with pytest.raises(IndexCorruptionError, match="unrepairable"):
            repair_graph(saved)


class TestEngineFaults:
    """Flaky engines: degrade with a warning, same answers, right tier."""

    def test_compiled_fault_degrades_to_naive(self, graph):
        oracle = answers(graph)
        flaky = FlakyFunction(F, times=1)
        with pytest.warns(DegradedResultWarning, match="compiled"):
            result = run_query(graph, flaky, K, engine="auto")
        assert result.tier == "naive"
        assert result.score_multiset() == pytest.approx(oracle)

    def test_mid_traversal_fault_degrades(self):
        # Enough records, and a predicate rare enough, that the kernel
        # sweeps several layer chunks: the fault strikes after the first
        # chunk was scored and charged.
        rng = np.random.default_rng(42)
        graph = build_extended_graph(Dataset(rng.random((3000, 2))))
        where = lambda vector: vector[0] < 0.05  # noqa: E731
        oracle = AdvancedTraveler(graph).top_k(F, K, where=where)
        flaky = FlakyFunction(F, times=1, after=1)
        with pytest.warns(DegradedResultWarning):
            result = run_query(graph, flaky, K, where=where)
        assert flaky.successes_before_failure == 0
        assert flaky.faults_raised == 1
        assert result.tier == "naive"
        assert result.ids == oracle.ids

    def test_double_fault_lands_on_naive(self, graph):
        """A fault opens the compiled breaker; the next query is skipped
        straight to the scan.  Both answer exactly, on the scan."""
        oracle = answers(graph)
        board = BreakerBoard(min_calls=1, failure_threshold=0.5)
        with pytest.warns(DegradedResultWarning, match="failed"):
            first = run_query(graph, FlakyFunction(F, times=1), K, breakers=board)
        assert board.get("tier:compiled").state == "open"
        with pytest.warns(DegradedResultWarning, match="circuit breaker"):
            second = run_query(graph, F, K, breakers=board)
        for result in (first, second):
            assert result.tier == "naive"
            assert result.score_multiset() == pytest.approx(oracle)

    def test_no_fallback_propagates_the_fault(self, graph):
        flaky = FlakyFunction(F, times=1)
        with pytest.raises(RuntimeError, match="injected"):
            run_query(graph, flaky, K, engine="auto", fallback=False)

    def test_fault_in_every_tier_propagates(self, graph):
        flaky = FlakyFunction(F, times=10)
        with pytest.raises(RuntimeError, match="injected"):
            with pytest.warns(DegradedResultWarning):
                run_query(graph, flaky, K, engine="auto")


class TestBudgets:
    """Budget violations are typed errors, never truncated answers."""

    def test_record_budget_raises_not_truncates(self, graph):
        with pytest.raises(QueryBudgetExceeded) as excinfo:
            run_query(graph, F, K, budget_records=3)
        assert excinfo.value.kind == "records"
        assert excinfo.value.spent > excinfo.value.limit

    def test_time_budget_raises(self, graph):
        with pytest.raises(QueryBudgetExceeded) as excinfo:
            run_query(graph, F, K, budget_ms=0.0)
        assert excinfo.value.kind == "time"

    def test_generous_budget_changes_nothing(self, graph):
        free = run_query(graph, F, K)
        budgeted = run_query(graph, F, K, budget_records=10_000, budget_ms=60_000)
        assert budgeted.ids == free.ids
        assert budgeted.scores == free.scores
        assert budgeted.tier == free.tier == "compiled"


class TestDirtyData:
    """NaN/inf can never slip into an index or perturb an answer."""

    def test_dataset_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset([[1.0, np.nan]])

    def test_dataset_clean_quarantines_and_preserves_answers(self):
        rng = np.random.default_rng(3)
        good = rng.random((30, 2))
        dirty = np.vstack([good, [[np.inf, 1.0], [np.nan, np.nan]]])
        dataset, quarantined = Dataset.clean(dirty)
        assert quarantined == [30, 31]
        graph = build_extended_graph(dataset)
        oracle = answers(build_extended_graph(Dataset(good)))
        assert answers(graph) == pytest.approx(oracle)

    def test_clean_with_no_finite_rows_raises(self):
        with pytest.raises(ValueError, match="quarantine"):
            Dataset.clean([[np.nan, np.nan]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_functions_reject_nonfinite_weights(self, bad):
        with pytest.raises(ValueError, match="finite"):
            LinearFunction([0.5, bad])
        with pytest.raises(ValueError, match="finite"):
            WeightedPowerFunction([0.5, bad])

    def test_pseudo_vectors_reject_nonfinite(self, graph):
        with pytest.raises(ValueError, match="finite"):
            graph.add_pseudo_record(np.array([np.nan, 1.0]))
