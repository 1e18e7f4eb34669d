"""Guarded query execution: tiers, budgets, and the degradation ladder."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.builder import build_extended_graph
from repro.core.dataset import Dataset
from repro.core.functions import LinearFunction
from repro.core.guard import TIERS, BudgetedAccessCounter, run_query
from repro.core.maintenance import mark_deleted
from repro.errors import QueryBudgetExceeded

F = LinearFunction([0.5, 0.5])


@pytest.fixture
def graph():
    rng = np.random.default_rng(7)
    return build_extended_graph(Dataset(rng.random((50, 2))))


class TestTiers:
    """Every tier answers; every tier answers the same."""

    def test_tier_order(self):
        assert TIERS == ("compiled", "naive")

    @pytest.mark.parametrize("engine", ["auto", "compiled", "naive"])
    def test_every_tier_agrees(self, graph, engine):
        result = run_query(graph, F, 5, engine=engine)
        oracle = run_query(graph, F, 5, engine="naive")
        assert result.tier == (engine if engine != "auto" else "compiled")
        assert result.ids == oracle.ids
        assert result.scores == pytest.approx(oracle.scores)

    @pytest.mark.parametrize("engine", ["compiled", "naive"])
    def test_where_predicate_respected_everywhere(self, graph, engine):
        where = lambda v: v[0] < 0.5
        result = run_query(graph, F, 5, engine=engine, where=where)
        assert all(graph.vector(rid)[0] < 0.5 for rid in result.ids)
        oracle = run_query(graph, F, 5, engine="naive", where=where)
        assert result.ids == oracle.ids

    def test_naive_tier_excludes_mark_deleted(self, graph):
        victim = run_query(graph, F, 1, engine="naive").ids[0]
        mark_deleted(graph, victim)
        result = run_query(graph, F, 5, engine="naive")
        assert victim not in result.ids

    def test_stale_snapshot_is_recompiled(self, graph):
        snapshot = graph.compile()
        victim = run_query(graph, F, 1).ids[0]
        mark_deleted(graph, victim)
        assert snapshot.stale
        result = run_query(graph, F, 5, snapshot=snapshot)
        assert result.tier == "compiled"
        assert victim not in result.ids

    def test_unknown_engine_raises(self, graph):
        with pytest.raises(ValueError, match="unknown engine"):
            run_query(graph, F, 5, engine="quantum")
        # The reference Traveler is no longer a serving tier.
        with pytest.raises(ValueError, match="unknown engine"):
            run_query(graph, F, 5, engine="reference")

    def test_naive_tier_scans_the_compiled_snapshot(self, graph):
        result = run_query(graph, F, 5, engine="naive")
        assert result.algorithm == "snapshot-scan"
        assert result.stats.computed == len(graph.real_ids())

    def test_compile_failure_propagates(self, graph, monkeypatch):
        """With no snapshot there is nothing to scan: the error is the
        caller's, undegraded and unwarned."""

        def broken():
            raise RuntimeError("compile failed")

        monkeypatch.setattr(graph, "compile", broken)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="compile failed"):
                run_query(graph, F, 5)

    def test_nonpositive_k_raises(self, graph):
        with pytest.raises(ValueError, match="positive"):
            run_query(graph, F, 0)


class TestBudgetedCounter:
    """The counter raises mid-count the moment a limit is passed."""

    def test_unlimited_by_default(self):
        counter = BudgetedAccessCounter()
        counter.count_computed_batch(list(range(1000)))
        assert counter.computed == 1000

    def test_record_limit_trips_on_the_crossing_charge(self):
        counter = BudgetedAccessCounter(max_records=2)
        counter.count_computed(0)
        counter.count_computed(1)
        with pytest.raises(QueryBudgetExceeded) as excinfo:
            counter.count_computed(2)
        assert excinfo.value.kind == "records"
        assert excinfo.value.limit == 2
        assert excinfo.value.spent == 3

    def test_batch_charges_trip_too(self):
        counter = BudgetedAccessCounter(max_records=5)
        with pytest.raises(QueryBudgetExceeded):
            counter.count_computed_batch(list(range(10)))

    def test_budget_error_records_the_tier(self, graph):
        with pytest.raises(QueryBudgetExceeded) as excinfo:
            run_query(graph, F, 5, engine="naive", budget_records=3)
        assert excinfo.value.tier == "naive"


class TestZeroAccessPaths:
    """Regression: the wall-clock budget must bind even when a query
    charges nothing.

    Enforcement used to live only inside ``count_computed*``, so a tier
    that scored zero records — every real record mark-deleted, an empty
    candidate set — never checked the deadline and could return
    arbitrarily late as if on time.  ``run_query`` now re-enforces at
    tier completion.
    """

    @pytest.fixture
    def emptied(self, graph):
        for rid in sorted(graph.real_ids()):
            mark_deleted(graph, rid)
        return graph

    def test_zero_access_query_still_trips_the_deadline(self, emptied):
        with pytest.raises(QueryBudgetExceeded) as excinfo:
            run_query(emptied, F, 5, engine="naive", budget_ms=0.0)
        assert excinfo.value.kind == "time"
        assert excinfo.value.tier == "naive"

    def test_zero_access_query_without_budget_answers_empty(self, emptied):
        result = run_query(emptied, F, 5, engine="naive")
        assert result.ids == ()
        assert result.stats.computed == 0

    def test_completion_check_applies_to_every_tier(self, emptied):
        for engine in TIERS:
            with pytest.raises(QueryBudgetExceeded) as excinfo:
                run_query(
                    emptied, F, 5, engine=engine, budget_ms=0.0,
                    fallback=False,
                )
            assert excinfo.value.kind == "time"
            assert excinfo.value.tier == engine

    def test_record_budget_alone_lets_zero_access_queries_pass(self, emptied):
        # Zero accesses can never exceed a record budget: only the
        # wall-clock half of the completion check may fire here.
        result = run_query(emptied, F, 5, engine="naive", budget_records=1)
        assert result.ids == ()
