"""Unit tests for repro.core.graph (Definition 2.4 structure + invariants)."""

import numpy as np
import pytest

from repro.core.builder import build_dominant_graph, build_extended_graph
from repro.core.dataset import Dataset
from repro.core.graph import DominantGraph


@pytest.fixture
def graph(small_dataset):
    return build_dominant_graph(small_dataset)


class TestStructure:
    def test_layer_sizes(self, graph):
        assert graph.layer_sizes() == [3, 2, 1]

    def test_layer_contents(self, graph):
        assert graph.layer(0) == frozenset({0, 1, 4})
        assert graph.layer(1) == frozenset({2, 5})
        assert graph.layer(2) == frozenset({3})

    def test_layer_of(self, graph):
        assert graph.layer_of(0) == 0
        assert graph.layer_of(2) == 1
        assert graph.layer_of(3) == 2

    def test_contains(self, graph):
        assert 0 in graph
        assert 99 not in graph

    def test_len_counts_indexed(self, graph):
        assert len(graph) == 6

    def test_parents_are_previous_layer_dominators(self, graph, small_dataset):
        # record 2 = (2,2): dominated by 4=(3,3) in layer 1; 0=(4,1) and
        # 1=(1,4) do not dominate it.
        assert graph.parents_of(2) == frozenset({4})
        # record 5 = (0.5,3.5): dominated by 1=(1,4) only.
        assert graph.parents_of(5) == frozenset({1})

    def test_children_inverse_of_parents(self, graph):
        for rid in graph.iter_records():
            for child in graph.children_of(rid):
                assert rid in graph.parents_of(child)

    def test_edges_span_consecutive_layers(self, graph):
        for rid in graph.iter_records():
            for child in graph.children_of(rid):
                assert graph.layer_of(child) == graph.layer_of(rid) + 1

    def test_edge_count(self, graph):
        # 4->2, 1->5, 2->3, 5 does not dominate 3? (0.5,3.5) vs (0.5,0.5):
        # >= in both and > in one => dominates. So 5->3 too.
        assert graph.edge_count() == 4

    def test_top_layer_has_no_parents(self, graph):
        for rid in graph.layer(0):
            assert graph.parents_of(rid) == frozenset()

    def test_iter_records_in_layer_order(self, graph):
        order = list(graph.iter_records())
        layers = [graph.layer_of(r) for r in order]
        assert layers == sorted(layers)

    def test_validate_passes(self, graph):
        graph.validate()

    def test_repr(self, graph):
        text = repr(graph)
        assert "records=6" in text and "layers=3" in text


class TestMutation:
    def test_place_record_rejects_duplicate(self, small_dataset):
        graph = build_dominant_graph(small_dataset)
        with pytest.raises(ValueError, match="already indexed"):
            graph.place_record(0, 0)

    def test_move_record_drops_edges(self, graph):
        graph.move_record(2, 2)
        assert graph.parents_of(2) == frozenset()
        assert graph.children_of(2) == frozenset()
        assert graph.layer_of(2) == 2

    def test_move_record_same_layer_noop(self, graph):
        parents = graph.parents_of(2)
        graph.move_record(2, graph.layer_of(2))
        assert graph.parents_of(2) == parents

    def test_remove_record(self, graph):
        graph.remove_record(3)
        assert 3 not in graph
        assert graph.children_of(2) == frozenset()

    def test_remove_then_prune(self, graph):
        graph.remove_record(3)
        graph.prune_empty_layers()
        assert graph.num_layers == 2
        graph.validate()

    def test_add_remove_edge(self, graph):
        graph.remove_edge(4, 2)
        assert 2 not in graph.children_of(4)
        graph.add_edge(4, 2)
        assert 2 in graph.children_of(4)

    def test_version_bumps_on_mutation(self, graph):
        before = graph.version
        graph.remove_edge(4, 2)
        assert graph.version > before
        mid = graph.version
        graph.add_edge(4, 2)
        assert graph.version > mid

    def test_drop_edges_symmetric(self, graph):
        graph.drop_edges(4)
        assert graph.children_of(4) == frozenset()
        assert 4 not in graph.parents_of(2)

    def test_ensure_layers_grows(self, graph):
        graph.ensure_layers(10)
        assert graph.num_layers == 10

    def test_prune_compacts_indices(self, graph):
        graph.ensure_layers(10)
        graph.prune_empty_layers()
        assert graph.num_layers == 3
        assert graph.layer_of(3) == 2


class TestLayerTable:
    """Layer membership lives in one table indexed by record id."""

    @staticmethod
    def assert_consistent(graph):
        """Every accessor tells the same story as ``layers()``."""
        layers = graph.layers()
        assert [len(layer) for layer in layers] == graph.layer_sizes()
        assert len(graph) == sum(graph.layer_sizes())
        ids, layer_index = graph.indexed_arrays()
        assert ids.tolist() == sorted(set().union(*layers))
        for index, layer in enumerate(layers):
            assert graph.layer(index) == layer
            assert graph.layer_array(index).tolist() == sorted(layer)
            assert graph.layer_width(index) == len(layer)
            for rid in layer:
                assert rid in graph and graph.layer_of(rid) == index
        assert dict(zip(ids.tolist(), layer_index.tolist())) == {
            rid: index for index, layer in enumerate(layers) for rid in layer
        }
        graph.validate()

    def test_contains_is_false_outside_the_table(self, graph, small_dataset):
        assert -1 not in graph
        assert len(small_dataset) + 10**6 not in graph
        with pytest.raises(KeyError):
            graph.layer_of(-1)
        with pytest.raises(KeyError):
            graph.layer_of(len(small_dataset) + 10**6)

    def test_layer_of_returns_a_python_int(self, graph):
        assert type(graph.layer_of(3)) is int

    def test_layer_accessors_keep_list_semantics(self, graph):
        assert isinstance(graph.layer(0), frozenset)
        assert all(isinstance(layer, frozenset) for layer in graph.layers())
        assert graph.layer(-1) == graph.layer(graph.num_layers - 1)
        with pytest.raises(IndexError):
            graph.layer(graph.num_layers)

    def test_place_record_rejects_a_negative_id(self, graph):
        with pytest.raises(ValueError, match="negative"):
            graph.place_record(-1, 0)

    def test_pseudo_ids_past_the_table_grow_it(self, graph, small_dataset):
        n = len(small_dataset)
        pids = [graph.add_pseudo_record(np.array([9.0, 9.0])) for _ in range(40)]
        assert pids[-1] == n + 39 and pids[-1] not in graph
        graph.prepend_layer(pids[:1])
        graph.place_record(pids[-1], 0)  # far past the first doubling
        for rid in sorted(graph.layer(1)):
            graph.add_edge(pids[0], rid)
        assert pids[-1] in graph and pids[1] not in graph
        assert graph.layer(0) == frozenset({pids[0], pids[-1]})
        assert graph.layer_of(0) == 1
        self.assert_consistent(graph)

    def test_prepend_prune_and_remove_stay_consistent(self, graph):
        self.assert_consistent(graph)
        pid = graph.add_pseudo_record(np.array([99.0, 99.0]))
        graph.prepend_layer([pid])
        for rid in (0, 1, 4):
            graph.add_edge(pid, rid)
        assert graph.layer_sizes() == [1, 3, 2, 1]
        self.assert_consistent(graph)
        graph.remove_record(3)  # empties the last layer
        assert 3 not in graph and graph.layer_sizes() == [1, 3, 2, 0]
        graph.prune_empty_layers()
        assert graph.layer_sizes() == [1, 3, 2]
        self.assert_consistent(graph)
        graph.remove_record(pid)  # empties the first: indices shift down
        graph.prune_empty_layers()
        assert graph.layer_sizes() == [3, 2] and graph.layer_of(2) == 1
        self.assert_consistent(graph)


class TestPseudoRecords:
    def test_add_pseudo_record_gets_fresh_id(self, small_dataset):
        graph = DominantGraph(small_dataset)
        pid = graph.add_pseudo_record(np.array([9.0, 9.0]))
        assert pid == len(small_dataset)
        assert graph.is_pseudo(pid)
        np.testing.assert_array_equal(graph.vector(pid), [9.0, 9.0])

    def test_pseudo_vector_shape_checked(self, small_dataset):
        graph = DominantGraph(small_dataset)
        with pytest.raises(ValueError):
            graph.add_pseudo_record(np.array([1.0, 2.0, 3.0]))

    def test_real_vector_comes_from_dataset(self, graph, small_dataset):
        np.testing.assert_array_equal(graph.vector(2), small_dataset.vector(2))

    def test_convert_to_pseudo(self, graph):
        graph.convert_to_pseudo(3)
        assert graph.is_pseudo(3)
        assert 3 in graph  # still indexed

    def test_convert_to_pseudo_idempotent(self, graph):
        graph.convert_to_pseudo(3)
        graph.convert_to_pseudo(3)
        assert graph.is_pseudo(3)

    def test_real_ids_excludes_pseudo(self, small_dataset):
        graph = build_extended_graph(small_dataset, theta=2)
        reals = graph.real_ids()
        assert sorted(reals) == list(range(len(small_dataset)))

    def test_update_pseudo_vector_raises_only(self, small_dataset):
        graph = DominantGraph(small_dataset)
        pid = graph.add_pseudo_record(np.array([5.0, 5.0]))
        graph.update_pseudo_vector(pid, np.array([6.0, 5.0]))
        with pytest.raises(ValueError, match="raised"):
            graph.update_pseudo_vector(pid, np.array([1.0, 1.0]))

    def test_update_pseudo_vector_rejects_real(self, graph):
        with pytest.raises(ValueError, match="not a pseudo"):
            graph.update_pseudo_vector(0, np.array([9.0, 9.0]))

    def test_prepend_layer_shifts_indices(self, graph, small_dataset):
        pid = graph.add_pseudo_record(np.array([99.0, 99.0]))
        graph.prepend_layer([pid])
        assert graph.layer_of(pid) == 0
        assert graph.layer_of(0) == 1
        assert graph.layer_of(3) == 3


class TestValidationFailures:
    def test_detects_bad_edge_layer_span(self, graph):
        graph.add_edge(0, 3)  # layer 0 -> layer 2: not consecutive
        with pytest.raises(AssertionError, match="consecutive"):
            graph.validate()

    def test_detects_edge_without_dominance(self, small_dataset):
        graph = build_dominant_graph(small_dataset)
        # 0=(4,1) does not dominate 5=(0.5,3.5) but is in the layer above.
        graph.add_edge(0, 5)
        with pytest.raises(AssertionError):
            graph.validate()

    def test_detects_orphan_record(self, graph):
        graph.remove_edge(2, 3)
        graph.remove_edge(5, 3)
        with pytest.raises(AssertionError, match="no parent"):
            graph.validate(check_layer_minimality=False)

    def test_detects_missing_dominator_edge(self, graph):
        graph.remove_edge(5, 3)
        with pytest.raises(AssertionError, match="stored parents"):
            graph.validate()

    def test_minimality_check_optional(self, graph):
        graph.remove_edge(5, 3)
        graph.validate(check_layer_minimality=False)  # soundness still OK
