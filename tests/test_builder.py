"""Unit tests for repro.core.builder (offline DG construction)."""

import numpy as np
import pytest

from repro.core.builder import build_dominant_graph, build_extended_graph
from repro.core.dataset import Dataset
from repro.core.dominance import dominates, maximal_mask
from repro.data.generators import correlated, gaussian, uniform
from repro.skyline import ALGORITHMS, as_mask_function
from repro.store import save_graph_store


class TestBuildDominantGraph:
    def test_small_dataset(self, small_dataset):
        graph = build_dominant_graph(small_dataset)
        graph.validate()
        assert graph.layer_sizes() == [3, 2, 1]

    @pytest.mark.parametrize("maker", [uniform, gaussian, correlated])
    def test_random_workloads_validate(self, maker):
        dataset = maker(150, 3, seed=7)
        graph = build_dominant_graph(dataset)
        graph.validate()
        assert len(graph) == 150

    def test_edges_complete_between_layers(self, rng):
        dataset = Dataset(rng.uniform(size=(60, 2)))
        graph = build_dominant_graph(dataset)
        for rid in graph.iter_records():
            layer = graph.layer_of(rid)
            if layer == 0:
                continue
            expected = {
                p
                for p in graph.layer(layer - 1)
                if dominates(dataset.vector(p), dataset.vector(rid))
            }
            assert graph.parents_of(rid) == frozenset(expected)

    def test_subset_indexing(self, rng):
        dataset = Dataset(rng.uniform(size=(50, 2)))
        subset = list(range(0, 50, 2))
        graph = build_dominant_graph(dataset, record_ids=subset)
        assert sorted(graph.real_ids()) == subset
        graph.validate()

    def test_subset_rejects_out_of_range(self, small_dataset):
        with pytest.raises(ValueError, match="out of range"):
            build_dominant_graph(small_dataset, record_ids=[0, 100])

    def test_subset_rejects_empty(self, small_dataset):
        with pytest.raises(ValueError, match="at least one"):
            build_dominant_graph(small_dataset, record_ids=[])

    def test_duplicate_record_ids_deduped(self, small_dataset):
        graph = build_dominant_graph(small_dataset, record_ids=[0, 0, 1])
        assert len(graph) == 2

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_any_skyline_algorithm_builds_same_layers(self, name):
        # "we can use any skyline algorithm to find each layer of DG"
        if name == "nn":
            dataset = uniform(60, 2, seed=5)  # NN is exponential beyond 3-d
        else:
            dataset = uniform(60, 3, seed=5)
        reference = build_dominant_graph(dataset)
        built = build_dominant_graph(
            dataset, skyline=as_mask_function(ALGORITHMS[name])
        )
        assert built.layers() == reference.layers()

    def test_single_record(self):
        graph = build_dominant_graph(Dataset([[1.0, 2.0]]))
        graph.validate()
        assert graph.layer_sizes() == [1]

    def test_subset_accepts_any_iterable_of_ids(self, small_dataset):
        expected = build_dominant_graph(small_dataset, record_ids=[1, 3, 4]).layers()
        for ids in ({4, 1, 3}, np.array([3, 1, 4, 1]), iter([4, 3, 1])):
            assert build_dominant_graph(small_dataset, record_ids=ids).layers() == expected

    def test_tied_float_sums_build_a_valid_graph(self):
        # Equal float sums although record 1 dominates record 0: the sum
        # order alone put both in one layer.
        graph = build_dominant_graph(Dataset([[1e16, 0.25], [1e16, 0.5]]))
        graph.validate()
        assert graph.layers() == [frozenset({1}), frozenset({0})]
        assert graph.parents_of(0) == frozenset({1})


class TestBlockedPassBuildsThePeeledGraph:
    """The default build and per-layer peeling give the same object."""

    @staticmethod
    def assert_same_graph(dataset, record_ids, tmp_path):
        built = build_dominant_graph(dataset, record_ids=record_ids)
        peeled = build_dominant_graph(
            dataset, skyline=maximal_mask, record_ids=record_ids
        )
        built.validate()
        assert built.layers() == peeled.layers()
        for rid in peeled.iter_records():
            assert built.parents_of(rid) == peeled.parents_of(rid)
            assert built.children_of(rid) == peeled.children_of(rid)
        paths = [
            save_graph_store(graph, str(tmp_path / name), durable=False)
            for graph, name in ((built, "built"), (peeled, "peeled"))
        ]
        with open(paths[0], "rb") as one, open(paths[1], "rb") as other:
            assert one.read() == other.read()

    @pytest.mark.parametrize("maker,dims", [
        (uniform, 2), (uniform, 4), (correlated, 3), (gaussian, 6),
    ])
    @pytest.mark.parametrize("subset", [False, True])
    def test_same_layers_edges_and_store_bytes(self, maker, dims, subset, tmp_path):
        dataset = maker(700, dims, seed=11)
        record_ids = list(range(0, 700, 3)) + [5, 5] if subset else None
        self.assert_same_graph(dataset, record_ids, tmp_path)

    def test_duplicate_vectors(self, tmp_path):
        values = np.random.default_rng(3).integers(0, 4, size=(400, 3))
        self.assert_same_graph(Dataset(values.astype(np.float64)), None, tmp_path)


class TestBuildExtendedGraph:
    def test_no_pseudo_when_first_layer_small(self, small_dataset):
        graph = build_extended_graph(small_dataset, theta=10)
        assert graph.num_pseudo == 0

    def test_pseudo_levels_added_for_wide_first_layer(self):
        dataset = uniform(300, 5, seed=2)
        graph = build_extended_graph(dataset, theta=8)
        assert graph.num_pseudo > 0
        graph.validate()
        top = graph.layer(0)
        assert all(graph.is_pseudo(r) for r in top)
        assert len(top) <= 8

    def test_every_real_record_indexed(self):
        dataset = uniform(200, 4, seed=3)
        graph = build_extended_graph(dataset, theta=8)
        assert sorted(graph.real_ids()) == list(range(200))

    def test_default_theta_from_dims(self, rng):
        dataset = uniform(100, 3, seed=1)
        graph = build_extended_graph(dataset)  # theta = 128 for m=3
        assert graph.num_pseudo == 0  # first layer far below 128

    def test_deterministic_given_seed(self):
        dataset = uniform(200, 5, seed=9)
        a = build_extended_graph(dataset, theta=8, seed=4)
        b = build_extended_graph(dataset, theta=8, seed=4)
        assert a.layers() == b.layers()
