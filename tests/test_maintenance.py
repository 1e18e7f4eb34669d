"""Unit tests for DG maintenance (paper Section V, Algorithms 4 and 5).

The gold standard throughout: after any sequence of inserts/deletes, the
graph must be *identical* (same layers; for plain DGs also same edges via
validate) to a from-scratch rebuild over the surviving records.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_dominant_graph, build_extended_graph
from repro.core.dataset import Dataset
from repro.core.functions import LinearFunction
from repro.core.advanced import AdvancedTraveler
from repro.core.maintenance import delete_record, insert_record, mark_deleted
from repro.data.generators import all_skyline, correlated, gaussian, uniform
from repro.data.server import server_dataset


def assert_equal_to_rebuild(graph, dataset):
    graph.validate()
    rebuilt = build_dominant_graph(dataset, record_ids=sorted(graph.real_ids()))
    assert graph.layers() == rebuilt.layers()


class TestInsert:
    def test_insert_into_empty_layers(self):
        dataset = Dataset([[1.0, 1.0], [2.0, 2.0]])
        graph = build_dominant_graph(dataset, record_ids=[0])
        layer = insert_record(graph, 1)
        assert layer == 0  # dominates record 0, so takes the top layer
        assert_equal_to_rebuild(graph, dataset)

    def test_insert_dominated_record(self):
        dataset = Dataset([[2.0, 2.0], [1.0, 1.0]])
        graph = build_dominant_graph(dataset, record_ids=[0])
        assert insert_record(graph, 1) == 1
        assert graph.parents_of(1) == frozenset({0})

    def test_insert_incomparable_record(self):
        dataset = Dataset([[2.0, 1.0], [1.0, 2.0]])
        graph = build_dominant_graph(dataset, record_ids=[0])
        assert insert_record(graph, 1) == 0
        assert graph.layer_sizes() == [2]

    def test_insert_rejects_duplicate(self, small_dataset):
        graph = build_dominant_graph(small_dataset)
        with pytest.raises(ValueError, match="already"):
            insert_record(graph, 0)

    def test_insert_rejects_missing_row(self, small_dataset):
        graph = build_dominant_graph(small_dataset)
        with pytest.raises(IndexError):
            insert_record(graph, 99)

    def test_insert_cascades_bumps(self):
        # Inserting a new global maximum bumps the whole chain.
        dataset = Dataset([[3.0, 3.0], [2.0, 2.0], [1.0, 1.0], [4.0, 4.0]])
        graph = build_dominant_graph(dataset, record_ids=[0, 1, 2])
        assert graph.layer_sizes() == [1, 1, 1]
        insert_record(graph, 3)
        assert graph.layer_sizes() == [1, 1, 1, 1]
        assert graph.layer_of(3) == 0
        assert graph.layer_of(0) == 1
        assert_equal_to_rebuild(graph, dataset)

    def test_insert_does_not_bump_independent_chains(self):
        # Record 3 is dominated by the new record but sits two layers
        # deeper via an independent chain, so it must NOT move (both our
        # cascade and the paper's Algorithm 4 — whose S is empty here —
        # get this right; see tests/test_paper_variants.py).
        dataset = Dataset([
            [10.0, 1.0],   # 0: layer 0
            [9.0, 0.9],    # 1: layer 1 (under 0)
            [8.0, 0.8],    # 2: layer 2 (under 1)
            [0.5, 0.5],    # 3: layer 3 (under 2)
            [1.0, 0.85],   # 4: dominated by 0 and 1, not by 2 -> layer 2
        ])
        graph = build_dominant_graph(dataset, record_ids=[0, 1, 2, 3])
        assert graph.layer_of(3) == 3
        insert_record(graph, 4)
        assert graph.layer_of(4) == 2  # dominated by 0 and 1, not by 2
        assert graph.layer_of(3) == 3  # chain through 2 unchanged
        assert_equal_to_rebuild(graph, dataset)

    @pytest.mark.parametrize("maker", [uniform, gaussian, correlated])
    def test_random_inserts_match_rebuild(self, maker):
        dataset = maker(200, 3, seed=31)
        graph = build_dominant_graph(dataset, record_ids=range(150))
        for rid in range(150, 200):
            insert_record(graph, rid)
        assert_equal_to_rebuild(graph, dataset)

    def test_insert_duplicates_of_existing(self):
        values = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
        dataset = Dataset(values)
        graph = build_dominant_graph(dataset, record_ids=[0, 1])
        insert_record(graph, 2)
        insert_record(graph, 3)
        assert_equal_to_rebuild(graph, dataset)
        assert graph.layer_sizes() == [4]

    def test_returned_layer_matches_graph(self, rng):
        dataset = Dataset(rng.uniform(size=(60, 3)))
        graph = build_dominant_graph(dataset, record_ids=range(50))
        for rid in range(50, 60):
            assert insert_record(graph, rid) == graph.layer_of(rid)


class TestDelete:
    def test_delete_leaf(self):
        dataset = Dataset([[2.0, 2.0], [1.0, 1.0]])
        graph = build_dominant_graph(dataset)
        delete_record(graph, 1)
        assert 1 not in graph
        assert graph.layer_sizes() == [1]

    def test_delete_promotes_single_parent_child(self):
        dataset = Dataset([[3.0, 3.0], [2.0, 2.0], [1.0, 1.0]])
        graph = build_dominant_graph(dataset)
        delete_record(graph, 0)
        assert graph.layer_of(1) == 0
        assert graph.layer_of(2) == 1
        assert_equal_to_rebuild(graph, dataset)

    def test_delete_keeps_child_with_other_parent(self):
        dataset = Dataset([
            [3.0, 1.0],   # 0: layer 0
            [1.0, 3.0],   # 1: layer 0
            [0.9, 0.9],   # 2: layer 1 (under both)
        ])
        graph = build_dominant_graph(dataset)
        delete_record(graph, 0)
        assert graph.layer_of(2) == 1  # parent 1 remains
        assert_equal_to_rebuild(graph, dataset)

    def test_delete_missing_record_raises(self, small_dataset):
        graph = build_dominant_graph(small_dataset)
        with pytest.raises(KeyError):
            delete_record(graph, 42)

    def test_delete_chain_reaction(self):
        # Deleting the top of a pure chain promotes every level.
        values = [[float(10 - i)] * 2 for i in range(5)]
        dataset = Dataset(values)
        graph = build_dominant_graph(dataset)
        delete_record(graph, 0)
        assert graph.layer_sizes() == [1] * 4
        assert graph.layer_of(1) == 0

    @pytest.mark.parametrize("maker", [uniform, gaussian, correlated])
    def test_random_deletes_match_rebuild(self, maker):
        dataset = maker(200, 3, seed=41)
        graph = build_dominant_graph(dataset)
        rng = random.Random(41)
        for rid in rng.sample(range(200), 80):
            delete_record(graph, rid)
        assert_equal_to_rebuild(graph, dataset)

    def test_delete_everything(self):
        dataset = uniform(30, 2, seed=1)
        graph = build_dominant_graph(dataset)
        for rid in range(30):
            delete_record(graph, rid)
        assert len(graph) == 0
        assert graph.num_layers == 0

    def test_mixed_churn_matches_rebuild(self):
        dataset = uniform(240, 3, seed=51)
        graph = build_dominant_graph(dataset, record_ids=range(160))
        rng = random.Random(51)
        live = set(range(160))
        next_new = 160
        for step in range(120):
            if step % 2 == 0 and next_new < 240:
                insert_record(graph, next_new)
                live.add(next_new)
                next_new += 1
            else:
                victim = rng.choice(sorted(live))
                delete_record(graph, victim)
                live.remove(victim)
        assert sorted(graph.real_ids()) == sorted(live)
        assert_equal_to_rebuild(graph, dataset)


class TestExtendedGraphMaintenance:
    def test_insert_into_extended_graph(self):
        dataset = all_skyline(150, 3, seed=2)
        graph = build_extended_graph(dataset, theta=8, record_ids=range(120))
        for rid in range(120, 150):
            insert_record(graph, rid)
        graph.validate()
        assert sorted(graph.real_ids()) == list(range(150))

    def test_insert_new_global_best_gets_pseudo_cover(self):
        dataset = Dataset(
            np.vstack([all_skyline(100, 3, seed=3).values,
                       [[2000.0, 2000.0, 2000.0]]])
        )
        graph = build_extended_graph(dataset, theta=8, record_ids=range(100))
        assert graph.num_pseudo > 0
        insert_record(graph, 100)
        graph.validate()
        assert graph.parents_of(100), "new record must have a pseudo parent"
        # And the queries still work:
        f = LinearFunction([0.4, 0.3, 0.3])
        result = AdvancedTraveler(graph).top_k(f, 1)
        assert result.ids == (100,)

    def test_delete_from_extended_graph(self):
        dataset = all_skyline(150, 3, seed=4)
        graph = build_extended_graph(dataset, theta=8)
        rng = random.Random(4)
        for rid in rng.sample(range(150), 60):
            delete_record(graph, rid)
        graph.validate()
        f = LinearFunction([0.5, 0.3, 0.2])
        result = AdvancedTraveler(graph).top_k(f, 10)
        survivors = sorted(graph.real_ids())
        expected = sorted(
            f.score_many(dataset.values[survivors]), reverse=True
        )[:10]
        np.testing.assert_allclose(sorted(result.scores, reverse=True), expected)

    def test_childless_pseudo_garbage_collected(self):
        dataset = all_skyline(60, 3, seed=5)
        graph = build_extended_graph(dataset, theta=8)
        assert graph.num_pseudo > 0
        for rid in range(60):
            delete_record(graph, rid)
        assert graph.num_pseudo == 0
        assert len(graph) == 0

    def test_queries_correct_during_churn(self):
        dataset = uniform(260, 4, seed=6)
        graph = build_extended_graph(dataset, theta=8, record_ids=range(200))
        traveler = AdvancedTraveler(graph)
        f = LinearFunction([0.4, 0.3, 0.2, 0.1])
        rng = random.Random(6)
        live = set(range(200))
        next_new = 200
        for step in range(90):
            if step % 3 != 2 and next_new < 260:
                insert_record(graph, next_new)
                live.add(next_new)
                next_new += 1
            else:
                victim = rng.choice(sorted(live))
                delete_record(graph, victim)
                live.remove(victim)
            if step % 30 == 29:
                graph.validate()
                result = traveler.top_k(f, 10)
                ids = sorted(live)
                expected = sorted(
                    f.score_many(dataset.values[ids]), reverse=True
                )[:10]
                np.testing.assert_allclose(
                    sorted(result.scores, reverse=True), expected
                )


#: One maintenance step: which operation, and which candidate it picks.
STEPS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "mark"]), st.integers(0, 10**6)),
    min_size=1,
    max_size=24,
)


class TestMaintenanceSequences:
    """Any sequence of operations, checked after every step."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), steps=STEPS)
    def test_plain_graph_equals_rebuild_after_every_step(self, seed, steps):
        # A coarse grid: duplicates and ties in every dimension.
        values = np.random.default_rng(seed).integers(0, 4, size=(28, 3))
        dataset = Dataset(values.astype(np.float64))
        graph = build_dominant_graph(dataset, record_ids=range(14))
        pending = list(range(14, 28))
        for op, pick in steps:
            live = sorted(graph.real_ids())
            if op == "insert" and pending:
                insert_record(graph, pending.pop(pick % len(pending)))
            elif op == "delete" and len(live) > 1:
                delete_record(graph, live[pick % len(live)])
            else:
                continue
            assert_equal_to_rebuild(graph, dataset)

    @settings(max_examples=60, deadline=None)
    @given(steps=STEPS)
    def test_extended_graph_answers_like_a_scan_after_every_step(self, steps):
        dataset = uniform(44, 3, seed=11)
        graph = build_extended_graph(dataset, theta=2, record_ids=range(30))
        pending = list(range(30, 44))
        f = LinearFunction([0.5, 0.3, 0.2])
        # Both kinds of pseudo record live from the start: minted ids past
        # the dataset, and a converted id below it.
        assert max(graph.pseudo_ids()) >= len(dataset)
        mark_deleted(graph, 0)
        for op, pick in steps:
            live = sorted(graph.real_ids())
            if op == "insert" and pending:
                insert_record(graph, pending.pop(pick % len(pending)))
            elif op == "delete" and live:
                delete_record(graph, live[pick % len(live)])
            elif op == "mark" and live:
                mark_deleted(graph, live[pick % len(live)])
            else:
                continue
            graph.validate()
            survivors = sorted(graph.real_ids())
            expected = sorted(
                f.score_many(dataset.values[survivors]), reverse=True
            )[:5]
            result = AdvancedTraveler(graph).top_k(f, 5)
            assert set(result.ids) <= set(survivors)
            np.testing.assert_allclose(
                sorted(result.scores, reverse=True), expected
            )


class TestServerWorkload:
    def test_tie_heavy_inserts_match_rebuild(self):
        dataset = server_dataset(300, seed=9)
        graph = build_dominant_graph(dataset, record_ids=range(240))
        for rid in range(240, 300):
            insert_record(graph, rid)
        assert_equal_to_rebuild(graph, dataset)

    def test_tie_heavy_deletes_match_rebuild(self):
        dataset = server_dataset(300, seed=10)
        graph = build_dominant_graph(dataset)
        rng = random.Random(10)
        for rid in rng.sample(range(300), 120):
            delete_record(graph, rid)
        assert_equal_to_rebuild(graph, dataset)


class TestMarkDeleted:
    def test_marks_as_pseudo(self, small_dataset):
        graph = build_dominant_graph(small_dataset)
        mark_deleted(graph, 4)
        assert graph.is_pseudo(4)
        assert 4 in graph

    def test_missing_record_raises(self, small_dataset):
        graph = build_dominant_graph(small_dataset)
        with pytest.raises(KeyError):
            mark_deleted(graph, 77)

    def test_structure_unchanged(self, small_dataset):
        graph = build_dominant_graph(small_dataset)
        layers_before = graph.layers()
        mark_deleted(graph, 4)
        assert graph.layers() == layers_before
