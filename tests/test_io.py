"""Unit tests for index persistence (repro.core.io)."""

import gc

import numpy as np
import pytest

from repro.core.advanced import AdvancedTraveler
from repro.core.builder import build_dominant_graph, build_extended_graph
from repro.core.functions import LinearFunction
from repro.core.graph import DominantGraph
from repro.core.io import (
    graph_from_payload,
    load_graph,
    payload_from_graph,
    save_graph,
)
from repro.core.maintenance import delete_record, insert_record, mark_deleted
from repro.data.generators import all_skyline, uniform
from repro.errors import IndexCorruptionError


class TestRoundTrip:
    def test_plain_graph(self, tmp_path, small_dataset):
        graph = build_dominant_graph(small_dataset)
        path = save_graph(graph, str(tmp_path / "index"))
        loaded = load_graph(path, validate=True)
        assert loaded.layers() == graph.layers()
        assert loaded.dataset == small_dataset

    def test_extension_appended(self, tmp_path, small_dataset):
        graph = build_dominant_graph(small_dataset)
        path = save_graph(graph, str(tmp_path / "noext"))
        assert path.endswith(".npz")

    def test_extended_graph_with_pseudo(self, tmp_path):
        dataset = all_skyline(80, 3, seed=1)
        graph = build_extended_graph(dataset, theta=8)
        assert graph.num_pseudo > 0
        path = save_graph(graph, str(tmp_path / "ext.npz"))
        loaded = load_graph(path, validate=True)
        assert loaded.num_pseudo == graph.num_pseudo
        assert loaded.layers() == graph.layers()
        for rid in graph.iter_records():
            if graph.is_pseudo(rid):
                np.testing.assert_array_equal(loaded.vector(rid), graph.vector(rid))

    def test_queries_identical_after_roundtrip(self, tmp_path):
        dataset = uniform(150, 3, seed=2)
        graph = build_extended_graph(dataset, theta=8)
        path = save_graph(graph, str(tmp_path / "q.npz"))
        loaded = load_graph(path)
        f = LinearFunction([0.5, 0.3, 0.2])
        a = AdvancedTraveler(graph).top_k(f, 10)
        b = AdvancedTraveler(loaded).top_k(f, 10)
        assert a.ids == b.ids
        assert a.stats.computed == b.stats.computed

    def test_subset_graph_roundtrip(self, tmp_path):
        dataset = uniform(100, 2, seed=3)
        graph = build_dominant_graph(dataset, record_ids=range(60))
        loaded = load_graph(save_graph(graph, str(tmp_path / "s.npz")))
        assert sorted(loaded.real_ids()) == list(range(60))
        # And maintenance keeps working after a reload.
        insert_record(loaded, 60)
        delete_record(loaded, 0)
        loaded.validate()

    def test_graph_after_maintenance_roundtrip(self, tmp_path):
        # Maintenance merges can leave non-contiguous pseudo ids; the
        # format must preserve them exactly.
        dataset = all_skyline(120, 3, seed=4)
        graph = build_extended_graph(dataset, theta=8, record_ids=range(100))
        for rid in range(100, 120):
            insert_record(graph, rid)
        for rid in range(0, 30):
            delete_record(graph, rid)
        graph.validate()
        loaded = load_graph(save_graph(graph, str(tmp_path / "m.npz")), validate=True)
        assert loaded.layers() == graph.layers()

    def test_version_check(self, tmp_path, small_dataset):
        graph = build_dominant_graph(small_dataset)
        path = save_graph(graph, str(tmp_path / "v.npz"))
        with np.load(path) as archive:
            payload = dict(archive)
        payload["format_version"] = np.asarray(99)
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="version"):
            load_graph(path)

    def test_attribute_names_preserved(self, tmp_path):
        from repro.data.server import server_dataset

        dataset = server_dataset(50, seed=5)
        graph = build_dominant_graph(dataset)
        loaded = load_graph(save_graph(graph, str(tmp_path / "n.npz")))
        assert loaded.dataset.attribute_names == dataset.attribute_names


class TestPayload:
    def test_edges_are_sorted_parent_child_rows(self):
        graph = build_extended_graph(all_skyline(120, 3, seed=4), theta=8)
        edges = payload_from_graph(graph)["edges"]
        assert edges.dtype == np.intp and edges.flags.c_contiguous
        assert edges.tolist() == [
            [parent, child]
            for parent in graph.iter_records()
            for child in sorted(graph.children_of(parent))
        ]

    def test_empty_graph_has_an_empty_edge_table(self):
        graph = DominantGraph(uniform(10, 2, seed=1))
        assert payload_from_graph(graph)["edges"].shape == (0, 2)

    def test_serializing_starts_no_garbage_collection(self):
        # A checkpoint must not hold a container per edge: thousands of
        # live tuples start a collection every 700, and the occasional
        # full one doubles that checkpoint's latency.
        graph = build_dominant_graph(uniform(3000, 3, seed=6))
        assert graph.edge_count() > 5000
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            payload_from_graph(graph)
        finally:
            gc.callbacks.remove(count)
        assert len(collections) <= 1


class TestBulkLoad:
    """The loader adopts arrays; it must build what per-record calls did."""

    @staticmethod
    def maintained_graph():
        dataset = all_skyline(120, 3, seed=4)
        graph = build_extended_graph(dataset, theta=8, record_ids=range(100))
        for rid in range(100, 120):
            insert_record(graph, rid)
        for rid in range(0, 30):
            delete_record(graph, rid)
        mark_deleted(graph, 40)
        return graph

    def test_round_trip_equals_the_maintained_graph(self):
        graph = self.maintained_graph()
        loaded = graph_from_payload(payload_from_graph(graph), "memory")
        loaded.validate()
        assert loaded.layers() == graph.layers()
        assert loaded.layer_sizes() == graph.layer_sizes()
        assert loaded.pseudo_ids() == graph.pseudo_ids()
        for rid in graph.iter_records():
            assert loaded.layer_of(rid) == graph.layer_of(rid)
            assert loaded.parents_of(rid) == graph.parents_of(rid)
            assert loaded.children_of(rid) == graph.children_of(rid)
            np.testing.assert_array_equal(loaded.vector(rid), graph.vector(rid))
        # And serializing the loaded graph gives the same arrays back.
        again = payload_from_graph(loaded)
        for name, array in payload_from_graph(graph).items():
            assert again[name].dtype == array.dtype, name
            np.testing.assert_array_equal(again[name], array)

    def corrupted(self, mutate):
        payload = payload_from_graph(self.maintained_graph())
        mutate(payload)
        with pytest.raises(IndexCorruptionError) as caught:
            graph_from_payload(payload, "memory")
        assert caught.value.array == "edges"
        return caught.value.reason

    def test_duplicate_edge_is_named(self):
        def mutate(payload):
            payload["edges"] = np.vstack([payload["edges"], payload["edges"][5:6]])

        assert self.corrupted(mutate) == "duplicate edges"

    @pytest.mark.parametrize("column", [0, 1])
    def test_first_dangling_endpoint_is_named(self, column):
        def mutate(payload):
            edges = payload["edges"].copy()
            edges[3, column] = 99_999  # not a record id
            edges[9, 1 - column] = 88_888  # a later one must not be named
            payload["edges"] = edges

        assert self.corrupted(mutate) == "dangling edge endpoint 99999"

    def test_first_non_consecutive_edge_is_named(self):
        def mutate(payload):
            layer_of = dict(
                zip(payload["record_ids"].tolist(), payload["layer_of"].tolist())
            )
            top = [rid for rid, layer in layer_of.items() if layer == 0]
            deep = [rid for rid, layer in layer_of.items() if layer == 2]
            edges = payload["edges"].copy()
            edges[4] = [top[0], deep[0]]
            edges[8] = [deep[0], top[0]]  # a later one must not be named
            payload["edges"] = edges
            self.expected = (
                f"edge {top[0]}->{deep[0]} does not span consecutive layers"
            )

        assert self.corrupted(mutate) == self.expected

    def test_wild_pseudo_id_is_refused_before_any_allocation(self):
        payload = payload_from_graph(self.maintained_graph())
        wild = 2**40
        minted = payload["pseudo_ids"].max()
        for name in ("record_ids", "pseudo_ids", "edges"):
            payload[name] = np.where(payload[name] == minted, wild, payload[name])
        with pytest.raises(IndexCorruptionError, match="implausibly large pseudo id"):
            graph_from_payload(payload, "memory")


class TestRegisterPseudo:
    def test_collision_with_dataset_row(self, small_dataset):
        from repro.core.graph import DominantGraph

        graph = DominantGraph(small_dataset)
        with pytest.raises(ValueError, match="collides"):
            graph.register_pseudo_record(0, np.array([1.0, 1.0]))

    def test_duplicate_registration(self, small_dataset):
        from repro.core.graph import DominantGraph

        graph = DominantGraph(small_dataset)
        graph.register_pseudo_record(10, np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="already"):
            graph.register_pseudo_record(10, np.array([2.0, 2.0]))

    def test_counter_advances(self, small_dataset):
        from repro.core.graph import DominantGraph

        graph = DominantGraph(small_dataset)
        graph.register_pseudo_record(10, np.array([1.0, 1.0]))
        fresh = graph.add_pseudo_record(np.array([2.0, 2.0]))
        assert fresh == 11
