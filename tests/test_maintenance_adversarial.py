"""Adversarial maintenance: random op interleavings vs a fresh rebuild.

The maintenance algorithms (Section V) must leave the index answering
exactly like a from-scratch build over the surviving records — through
any interleaving of inserts, deletes, and mark-as-deleted, across
save/load round-trips, and while a query is mid-degradation.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_top_k_subset
from repro.core.advanced import AdvancedTraveler
from repro.core.builder import build_dominant_graph
from repro.core.dataset import Dataset
from repro.core.functions import LinearFunction
from repro.core.guard import run_query
from repro.core.io import load_graph, save_graph
from repro.core.maintenance import delete_record, insert_record, mark_deleted
from repro.errors import DegradedResultWarning
from repro.testing.faults import FlakyFunction

F = LinearFunction([0.7, 0.3])
K = 6


def oracle_multiset(dataset, alive, k=K):
    """Tie-insensitive answer signature from a plain scan of ``alive``."""
    return naive_top_k_subset(dataset, sorted(alive), F, k).score_multiset()


def run_interleaving(seed: int, round_trip: bool, tmp_path) -> None:
    """Random insert/delete/mark-deleted schedule, checked continuously."""
    rng = np.random.default_rng(seed)
    dataset = Dataset(rng.random((48, 2)))
    start = list(range(24))
    graph = build_dominant_graph(dataset, record_ids=start)
    alive = set(start)
    pending = list(range(24, 48))

    for step in range(40):
        choice = rng.random()
        if choice < 0.4 and pending:
            rid = pending.pop()
            insert_record(graph, rid)
            alive.add(rid)
        elif choice < 0.7 and alive:
            rid = int(rng.choice(sorted(alive)))
            delete_record(graph, rid)
            alive.discard(rid)
        elif alive:
            rid = int(rng.choice(sorted(alive)))
            mark_deleted(graph, rid)
            alive.discard(rid)
        if not alive:
            continue
        if round_trip and step % 13 == 5:
            path = save_graph(graph, str(tmp_path / f"step{step}"))
            graph = load_graph(path, validate=True)
        got = AdvancedTraveler(graph).top_k(F, K).score_multiset()
        assert got == pytest.approx(oracle_multiset(dataset, alive)), (
            f"seed={seed} step={step}: maintained graph disagrees with scan"
        )

    graph.validate()
    if alive:
        rebuilt = build_dominant_graph(dataset, record_ids=sorted(alive))
        assert AdvancedTraveler(graph).top_k(F, K).score_multiset() == pytest.approx(
            AdvancedTraveler(rebuilt).top_k(F, K).score_multiset()
        )


@pytest.mark.parametrize("seed", range(5))
def test_random_interleavings_match_rebuild(seed, tmp_path):
    run_interleaving(seed, round_trip=False, tmp_path=tmp_path)


@pytest.mark.parametrize("seed", range(5, 8))
def test_interleavings_survive_disk_round_trips(seed, tmp_path):
    run_interleaving(seed, round_trip=True, tmp_path=tmp_path)


def test_delete_mid_degradation(tmp_path):
    """A stale snapshot plus a flaky engine still yields correct answers."""
    rng = np.random.default_rng(99)
    dataset = Dataset(rng.random((40, 2)))
    graph = build_dominant_graph(dataset)
    snapshot = graph.compile()

    victim = run_query(graph, F, 1).ids[0]
    delete_record(graph, victim)
    alive = set(graph.real_ids())
    assert snapshot.stale

    flaky = FlakyFunction(F, times=1)
    with pytest.warns(DegradedResultWarning):
        result = run_query(graph, flaky, K, snapshot=snapshot)
    assert result.tier == "naive"
    assert victim not in result.ids
    assert result.score_multiset() == pytest.approx(oracle_multiset(dataset, alive))


class TestWALReplayEquivalence:
    """Property: checkpoint + WAL replay == sequential maintenance == rebuild.

    Hypothesis drives a random feasible schedule of single and batch
    operations through a live :class:`~repro.serve.index.ServingIndex`
    (with a checkpoint dropped at an arbitrary point, so replay starts
    from a mid-schedule state) while the same schedule runs sequentially
    on a shadow graph.  Crash-recovering the serving directory must then
    answer bit-identically to both the shadow and a from-scratch rebuild
    over the survivors — the triangle the crash-recovery acceptance test
    checks at scripted offsets, here over arbitrary schedules.
    """

    KINDS = ("insert", "delete", "mark", "insert_many", "delete_many")

    @staticmethod
    def _apply_feasible(kind, pick, index, shadow, alive, pending):
        """Mirror one op onto the serving index and the shadow graph.

        Returns False when the drawn op is infeasible in the current
        state (nothing pending to insert, nothing alive to delete).
        """
        if kind == "insert":
            if not pending:
                return False
            rid = pending.pop(pick % len(pending))
            index.insert(rid)
            insert_record(shadow, rid)
            alive.add(rid)
        elif kind == "insert_many":
            if len(pending) < 2:
                return False
            batch = [pending.pop(pick % len(pending)), pending.pop(0)]
            index.insert_many(batch)
            for rid in batch:
                insert_record(shadow, rid)
            alive.update(batch)
        elif kind == "delete":
            if not alive:
                return False
            rid = sorted(alive)[pick % len(alive)]
            index.delete(rid)
            delete_record(shadow, rid)
            alive.discard(rid)
        elif kind == "delete_many":
            if len(alive) < 4:
                return False
            ordered = sorted(alive)
            batch = [ordered[pick % len(ordered)], ordered[0]]
            if len(set(batch)) < 2:
                return False
            index.delete_many(batch)
            for rid in batch:
                delete_record(shadow, rid)
            alive.difference_update(batch)
        else:  # mark
            if len(alive) < 2:
                return False
            rid = sorted(alive)[pick % len(alive)]
            index.mark_deleted(rid)
            mark_deleted(shadow, rid)
            alive.discard(rid)
        return True

    @settings(max_examples=12, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(KINDS), st.integers(0, 10_000)
            ),
            min_size=1,
            max_size=18,
        ),
        checkpoint_after=st.integers(0, 18),
    )
    def test_recovered_index_closes_the_triangle(self, ops, checkpoint_after):
        from repro.core.compiled import CompiledAdvancedTraveler
        from repro.serve import ServingIndex

        rng = np.random.default_rng(7)
        dataset = Dataset(rng.random((48, 2)))
        start = list(range(24))
        shadow = build_dominant_graph(dataset, record_ids=start)
        alive = set(start)
        pending = list(range(24, 48))

        with tempfile.TemporaryDirectory() as tmp:
            index = ServingIndex.create(
                os.path.join(tmp, "serve"),
                build_dominant_graph(dataset, record_ids=start),
                fsync="never",
                checkpoint_interval=None,
            )
            try:
                for step, (kind, pick) in enumerate(ops):
                    self._apply_feasible(
                        kind, pick, index, shadow, alive, pending
                    )
                    if step + 1 == checkpoint_after:
                        index.checkpoint()
                index._wal.sync()

                # Crash-recover (the live index stays un-closed).
                recovered = ServingIndex.open(
                    index._directory, fsync="never"
                )
                try:
                    rebuilt = build_dominant_graph(
                        dataset, record_ids=sorted(alive)
                    )
                    sequential = CompiledAdvancedTraveler(shadow.compile())
                    scratch = CompiledAdvancedTraveler(rebuilt.compile())
                    for k in (1, K):
                        got = recovered.query(F, k)
                        assert got.ids == sequential.top_k(F, k).ids
                        assert got.scores == sequential.top_k(F, k).scores
                        assert got.ids == scratch.top_k(F, k).ids
                        assert got.scores == scratch.top_k(F, k).scores
                finally:
                    recovered.close(checkpoint=False)
            finally:
                index.close(checkpoint=False)


def test_maintenance_on_disk_restored_graph(tmp_path):
    """Mutations applied to a reloaded graph behave like on the original."""
    rng = np.random.default_rng(123)
    dataset = Dataset(rng.random((30, 2)))
    graph = build_dominant_graph(dataset, record_ids=list(range(20)))
    path = save_graph(graph, str(tmp_path / "restored"))
    restored = load_graph(path, validate=True)

    insert_record(restored, 25)
    top = AdvancedTraveler(restored).top_k(F, 1).ids[0]
    mark_deleted(restored, top)
    delete_record(restored, next(iter(restored.real_ids())))
    restored.validate()

    alive = set(restored.real_ids())
    assert 25 in alive and top not in alive
    got = AdvancedTraveler(restored).top_k(F, K).score_multiset()
    assert got == pytest.approx(oracle_multiset(dataset, alive))
