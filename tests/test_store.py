"""The crash-safe index store: format, directory, mmap, scrub, serving.

Every test here defends one clause of the store's contract
(``docs/storage.md``): a file either opens bit-identical to what was
written, or it raises a typed error — torn writes, flipped bits, and
stale stamps are all *detected*, never served.
"""

from __future__ import annotations

import os
import shutil
import warnings

import numpy as np
import pytest

from repro.core.builder import build_dominant_graph
from repro.core.dataset import Dataset
from repro.core.functions import LinearFunction
from repro.errors import (
    DegradedResultWarning,
    StoreCorruptionError,
    StoreStaleError,
)
from repro.parallel.executor import ParallelQueryExecutor
from repro.serve.index import ServingIndex
from repro.store import (
    ALIGNMENT,
    COMPILED_SECTIONS,
    QUARANTINE_DIR,
    StoreDirectory,
    StoreScrubber,
    StoreStamp,
    attach_store,
    load_graph_store,
    open_store,
    read_toc,
    save_graph_store,
    serialize_store,
    write_store,
)
from repro.testing import flip_bits, store_crash_offsets, truncate_file


@pytest.fixture
def dataset(rng) -> Dataset:
    return Dataset(rng.uniform(0.0, 100.0, (60, 3)).tolist())


@pytest.fixture
def graph(dataset):
    return build_dominant_graph(dataset)


@pytest.fixture
def compiled(graph):
    return graph.compile().detach()


@pytest.fixture
def arrays(compiled) -> dict:
    return {name: getattr(compiled, name) for name in COMPILED_SECTIONS}


#: Sections ``kind="compiled"`` files also carried while the snapshot
#: still held the graph's edges.
LEGACY_EDGE_SECTIONS = (
    "children_indptr",
    "children_indices",
    "parents_indptr",
    "parents_indices",
    "indegree",
)


def compiled_stamp(compiled, **overrides) -> StoreStamp:
    fields = dict(
        kind="compiled", first_layer_size=compiled.first_layer_size
    )
    fields.update(overrides)
    return StoreStamp(**fields)


# ----------------------------------------------------------------------
# Format: serialization, verification, torn writes
# ----------------------------------------------------------------------
class TestFormat:
    def test_round_trip_is_bit_identical_and_read_only(
        self, tmp_path, compiled, arrays
    ):
        # Second input: the layout written before the edge arrays left
        # the snapshot.  Such files still open; the extras are ignored.
        extra = np.arange(compiled.num_records + 1, dtype=np.int32)
        with_edges = {**arrays, **dict.fromkeys(LEGACY_EDGE_SECTIONS, extra)}
        for sections in (arrays, with_edges):
            path = str(tmp_path / f"index-{len(sections)}.dgs")
            write_store(path, sections, compiled_stamp(compiled, generation=4))
            with open_store(path, deep=True) as store:
                assert store.info.stamp.generation == 4
                assert store.info.stamp.kind == "compiled"
                for name, original in sections.items():
                    view = store.section(name)
                    assert view.dtype == original.dtype
                    assert view.shape == original.shape
                    np.testing.assert_array_equal(view, original)
                    assert not view.flags.writeable
                rebuilt = store.compiled()
                assert rebuilt.first_layer_size == compiled.first_layer_size
                for name in LEGACY_EDGE_SECTIONS:
                    assert not hasattr(rebuilt, name)
                function = LinearFunction([0.5, 0.3, 0.2])
                assert rebuilt.top_k(function, 5) == compiled.top_k(function, 5)

    def test_sections_are_aligned(self, tmp_path, compiled, arrays):
        path = str(tmp_path / "index.dgs")
        write_store(path, arrays, compiled_stamp(compiled))
        info = read_toc(path)
        for spec in info.sections:
            assert spec.offset % ALIGNMENT == 0

    def test_serialize_matches_written_file(self, tmp_path, compiled, arrays):
        path = str(tmp_path / "index.dgs")
        stamp = compiled_stamp(compiled, generation=2)
        write_store(path, arrays, stamp)
        with open(path, "rb") as handle:
            assert handle.read() == serialize_store(arrays, stamp)

    def test_every_truncation_point_is_rejected(
        self, tmp_path, compiled, arrays
    ):
        path = str(tmp_path / "index.dgs")
        write_store(path, arrays, compiled_stamp(compiled))
        image = open(path, "rb").read()
        torn = str(tmp_path / "torn.dgs")
        for offset in store_crash_offsets(path):
            with open(torn, "wb") as handle:
                handle.write(image[:offset])
            with pytest.raises(StoreCorruptionError):
                read_toc(torn)

    def test_every_toc_byte_flip_is_rejected_at_open(
        self, tmp_path, compiled, arrays
    ):
        path = str(tmp_path / "index.dgs")
        write_store(path, arrays, compiled_stamp(compiled))
        image = bytearray(open(path, "rb").read())
        toc_bytes = read_toc(path).toc_bytes
        bent = str(tmp_path / "bent.dgs")
        for offset in range(toc_bytes):
            damaged = bytearray(image)
            damaged[offset] ^= 0xFF
            with open(bent, "wb") as handle:
                handle.write(bytes(damaged))
            with pytest.raises(StoreCorruptionError):
                read_toc(bent)

    def test_payload_flip_passes_fast_but_deep_names_the_section(
        self, tmp_path, compiled, arrays
    ):
        path = str(tmp_path / "index.dgs")
        write_store(path, arrays, compiled_stamp(compiled))
        spec = read_toc(path).spec("values")
        with open(path, "r+b") as handle:
            handle.seek(spec.offset)
            byte = handle.read(1)
            handle.seek(spec.offset)
            handle.write(bytes([byte[0] ^ 0x01]))
        read_toc(path)  # fast verify is O(header): payload rot invisible
        with pytest.raises(StoreCorruptionError) as excinfo:
            open_store(path, deep=True)
        assert excinfo.value.section == "values"

    def test_random_bit_flips_never_serve_silently(
        self, tmp_path, compiled, arrays
    ):
        path = str(tmp_path / "index.dgs")
        write_store(path, arrays, compiled_stamp(compiled))
        pristine = open(path, "rb").read()
        for seed in range(8):
            with open(path, "wb") as handle:
                handle.write(pristine)
            flip_bits(path, n=1, seed=seed)
            try:
                store = open_store(path, deep=True)
            except StoreCorruptionError:
                continue  # detected: the contract held
            store.close()
            pytest.fail(f"bit flip with seed {seed} went undetected")

    def test_truncated_file_is_rejected(self, tmp_path, compiled, arrays):
        path = str(tmp_path / "index.dgs")
        write_store(path, arrays, compiled_stamp(compiled))
        truncate_file(path, fraction=0.5)
        with pytest.raises(StoreCorruptionError):
            read_toc(path)


# ----------------------------------------------------------------------
# Staleness: the stamp binds a file to its source
# ----------------------------------------------------------------------
class TestStaleness:
    def test_source_version_mismatch_is_stale_not_corrupt(
        self, tmp_path, compiled, arrays
    ):
        path = str(tmp_path / "index.dgs")
        write_store(
            path, arrays, compiled_stamp(compiled, source_version=3)
        )
        with pytest.raises(StoreStaleError) as excinfo:
            open_store(
                path, expect=StoreStamp(kind="compiled", source_version=4)
            )
        assert excinfo.value.field == "source_version"
        assert excinfo.value.expected == 4
        assert excinfo.value.found == 3
        open_store(path).close()  # without expectations the file is fine

    def test_published_snapshot_is_stamped_with_the_graph_version(
        self, tmp_path, graph
    ):
        compiled = graph.compile()
        assert graph.version > 0
        handle = StoreDirectory(str(tmp_path / "spool")).publish_compiled(
            compiled
        )
        with open_store(handle.path) as store:
            assert store.stamp.source_version == graph.version
            assert store.compiled().source_version == graph.version
        with pytest.raises(StoreStaleError) as excinfo:
            open_store(
                handle.path,
                expect=StoreStamp(
                    kind="compiled", source_version=graph.version + 1
                ),
            )
        assert excinfo.value.field == "source_version"
        assert excinfo.value.found == graph.version

    def test_kind_mismatch_is_stale(self, tmp_path, compiled, arrays):
        path = str(tmp_path / "index.dgs")
        write_store(path, arrays, compiled_stamp(compiled))
        with pytest.raises(StoreStaleError):
            open_store(path, expect=StoreStamp(kind="graph"))

    def test_applied_seq_mismatch_is_stale(self, tmp_path, compiled, arrays):
        path = str(tmp_path / "index.dgs")
        write_store(path, arrays, compiled_stamp(compiled, applied_seq=7))
        with pytest.raises(StoreStaleError) as excinfo:
            open_store(
                path, expect=StoreStamp(kind="compiled", applied_seq=9)
            )
        assert excinfo.value.field == "applied_seq"


# ----------------------------------------------------------------------
# Directory: generations, CURRENT, quarantine, torn publishes
# ----------------------------------------------------------------------
class TestDirectory:
    def test_publish_rotates_generations_and_collects_orphans(
        self, tmp_path, compiled, arrays
    ):
        spool = StoreDirectory(str(tmp_path / "spool"), keep=1)
        stamp = compiled_stamp(compiled)
        for _ in range(3):
            spool.publish(arrays, stamp)
        assert spool.generations() == [2, 3]
        path, generation = spool.read_current()
        assert generation == 3
        with spool.open_current(deep=True) as store:
            assert store.info.stamp.generation == 3
        assert spool.audit()["issues"] == []

    def test_kill_at_every_offset_mid_publish_never_loses_current(
        self, tmp_path, compiled, arrays
    ):
        """A publish killed at any byte leaves the old generation serving.

        For every interesting truncation point of the next generation's
        image, plant the torn bytes both ways a crash can leave them —
        as a stray temp file, and as a torn final file that never got
        its ``CURRENT`` flip — and require the directory to keep serving
        the intact generation bit-for-bit.
        """
        root = str(tmp_path / "spool")
        spool = StoreDirectory(root, keep=1)
        stamp = compiled_stamp(compiled)
        current_path, generation = spool.publish(arrays, stamp)
        image = serialize_store(arrays, stamp)
        offsets = store_crash_offsets(current_path)
        for offset in offsets:
            torn_final = spool.path_for(generation + 1)
            torn_temp = f"{torn_final}.tmp.424242"
            for debris in (torn_temp, torn_final):
                with open(debris, "wb") as handle:
                    handle.write(image[:offset])
                with spool.open_current() as store:
                    assert store.info.stamp.generation == generation
                    np.testing.assert_array_equal(
                        store.section("values"), arrays["values"]
                    )
                os.unlink(debris)
        # One full heal: leave the worst debris in place and publish.
        with open(spool.path_for(generation + 1), "wb") as handle:
            handle.write(image[: len(image) // 2])
        with open(
            f"{spool.path_for(generation + 2)}.tmp.424242", "wb"
        ) as handle:
            handle.write(image[:64])
        _, healed = spool.publish(arrays, stamp)
        assert healed == generation + 2  # allocated past the torn file
        assert not any(".tmp." in name for name in os.listdir(root))
        # The torn generation ages out of the keep window and is removed.
        spool.publish(arrays, stamp)
        names = os.listdir(root)
        assert os.path.basename(spool.path_for(generation + 1)) not in names

    def test_corrupt_current_is_quarantined_not_served(
        self, tmp_path, compiled, arrays
    ):
        spool = StoreDirectory(str(tmp_path / "spool"))
        path, _ = spool.publish(arrays, compiled_stamp(compiled))
        with open(path, "r+b") as handle:
            handle.seek(0)
            handle.write(b"XXXXXXXX")  # stomp the magic
        with pytest.raises(StoreCorruptionError):
            spool.open_current()
        assert not os.path.exists(path)
        assert spool.quarantined()
        audit = spool.audit()
        assert any("quarantined" in issue for issue in audit["issues"])

    def test_per_section_damage_is_quarantined_on_deep_open(
        self, tmp_path, compiled, arrays
    ):
        spool = StoreDirectory(str(tmp_path / "spool"))
        path, _ = spool.publish(arrays, compiled_stamp(compiled))
        pristine = open(path, "rb").read()
        for name in ("values", "record_ids", "layer_index"):
            spec = read_toc(path).spec(name)
            if spec.nbytes == 0:
                continue
            damaged = bytearray(pristine)
            damaged[spec.offset] ^= 0x80
            with open(path, "wb") as handle:
                handle.write(bytes(damaged))
            with pytest.raises(StoreCorruptionError) as excinfo:
                spool.open_current(deep=True)
            assert excinfo.value.section == name
            assert not os.path.exists(path)  # quarantined, not servable
            # Restore the file (CURRENT still names it) for the next run.
            shutil.rmtree(
                os.path.join(str(tmp_path / "spool"), QUARANTINE_DIR)
            )
            with open(path, "wb") as handle:
                handle.write(pristine)

    def test_stale_current_is_not_quarantined(
        self, tmp_path, compiled, arrays
    ):
        spool = StoreDirectory(str(tmp_path / "spool"))
        path, _ = spool.publish(
            arrays, compiled_stamp(compiled, source_version=1)
        )
        with pytest.raises(StoreStaleError):
            spool.open_current(
                expect=StoreStamp(kind="compiled", source_version=2)
            )
        assert os.path.exists(path)  # intact, merely outdated
        assert not spool.quarantined()

    def test_audit_reports_missing_current(self, tmp_path, compiled, arrays):
        spool = StoreDirectory(str(tmp_path / "spool"))
        spool.publish(arrays, compiled_stamp(compiled))
        os.unlink(spool.current_path)
        audit = spool.audit()
        assert any("CURRENT is missing" in issue for issue in audit["issues"])
        assert audit["orphans"]


# ----------------------------------------------------------------------
# Scrubber: bit rot is detected while serving
# ----------------------------------------------------------------------
class _Breaker:
    def __init__(self) -> None:
        self.failures = 0
        self.successes = 0

    def record_failure(self) -> None:
        self.failures += 1

    def record_success(self, latency_ms: float = 0.0) -> None:
        self.successes += 1


class TestScrubber:
    def test_full_clean_cycle_records_success(
        self, tmp_path, compiled, arrays
    ):
        path = str(tmp_path / "index.dgs")
        write_store(path, arrays, compiled_stamp(compiled))
        breaker = _Breaker()
        store = open_store(path)
        scrubber = StoreScrubber(store, breaker=breaker)
        names = [scrubber.scrub_once() for _ in store.info.section_names]
        assert set(names) == set(store.info.section_names)
        assert breaker.successes == 1
        assert breaker.failures == 0
        stats = scrubber.stats()
        assert stats["full_cycles"] == 1
        assert stats["corruptions_detected"] == 0
        store.close()

    def test_rot_under_a_live_mapping_trips_breaker_and_callback(
        self, tmp_path, compiled, arrays
    ):
        path = str(tmp_path / "index.dgs")
        write_store(path, arrays, compiled_stamp(compiled))
        store = open_store(path, deep=True)  # clean at open time
        spec = store.info.spec("values")
        with open(path, "r+b") as handle:  # ...then the disk rots
            handle.seek(spec.offset)
            byte = handle.read(1)
            handle.seek(spec.offset)
            handle.write(bytes([byte[0] ^ 0x01]))
        breaker = _Breaker()
        caught: list = []
        scrubber = StoreScrubber(
            store, breaker=breaker, on_corruption=caught.append
        )
        for _ in store.info.section_names:
            scrubber.scrub_once()
        assert breaker.failures == 1
        assert len(caught) == 1
        assert caught[0].section == "values"
        stats = scrubber.stats()
        assert stats["corruptions_detected"] == 1
        assert stats["path"] is None  # the corpse is dropped
        assert scrubber.scrub_once() is None  # and never re-scrubbed
        store.close()


# ----------------------------------------------------------------------
# Fabric: file transport parity and shared spool hygiene
# ----------------------------------------------------------------------
class TestFabricFileTransport:
    def test_file_transport_matches_in_process_answers(
        self, tmp_path, compiled
    ):
        functions = [
            LinearFunction([0.6, 0.3, 0.1]),
            LinearFunction([0.2, 0.2, 0.6]),
        ]
        fabric = ParallelQueryExecutor(
            compiled, workers=2, snapshot_dir=str(tmp_path / "spool")
        )
        try:
            assert fabric.stats()["transport"] == "file"
            results = fabric.map_queries(functions, 5)
            for function, result in zip(functions, results):
                expected = compiled.top_k(function, 5)
                assert result.ids == expected.ids
                assert result.scores == expected.scores
        finally:
            fabric.shutdown()
        assert os.listdir(str(tmp_path / "spool")) == []

    def test_publish_rotates_the_spool(self, tmp_path, compiled, graph):
        fabric = ParallelQueryExecutor(
            compiled, workers=1, snapshot_dir=str(tmp_path / "spool")
        )
        try:
            fabric.publish(compiled, epoch=1)
            (result,) = fabric.map_queries(
                [LinearFunction([0.5, 0.25, 0.25])], 3
            )
            expected = compiled.top_k(LinearFunction([0.5, 0.25, 0.25]), 3)
            assert result.ids == expected.ids
        finally:
            fabric.shutdown()


# ----------------------------------------------------------------------
# Graph checkpoints ride the same container
# ----------------------------------------------------------------------
class TestGraphStore:
    def test_graph_round_trip(self, tmp_path, graph):
        path = save_graph_store(
            graph, str(tmp_path / "checkpoint"), applied_seq=11
        )
        assert path.endswith(".dgs")
        loaded = load_graph_store(path)
        assert len(loaded) == len(graph)
        assert loaded.num_layers == graph.num_layers
        assert loaded.edge_count() == graph.edge_count()
        info = read_toc(path)
        assert info.stamp.kind == "graph"
        assert info.stamp.applied_seq == 11

    def test_damaged_graph_store_is_rejected_at_load(self, tmp_path, graph):
        path = save_graph_store(graph, str(tmp_path / "checkpoint"))
        spec = read_toc(path).spec("values")
        with open(path, "r+b") as handle:
            handle.seek(spec.offset)
            byte = handle.read(1)
            handle.seek(spec.offset)
            handle.write(bytes([byte[0] ^ 0x04]))
        with pytest.raises(StoreCorruptionError):
            load_graph_store(path)


# ----------------------------------------------------------------------
# ServingIndex: .dgs checkpoints, scrub-driven recovery
# ----------------------------------------------------------------------
class TestServingIntegration:
    def test_checkpoints_are_store_files_and_reopen(self, tmp_path, dataset):
        directory = str(tmp_path / "serve")
        index = ServingIndex.create(directory, dataset, fsync="batch")
        try:
            index.delete(3)
            name = index.checkpoint()
            assert name.endswith(".dgs")
            # fast verify passes on a live checkpoint
            read_toc(os.path.join(directory, name))
        finally:
            index.close(checkpoint=False)
        reopened = ServingIndex.open(directory, fsync="batch")
        try:
            result = reopened.query(LinearFunction([0.4, 0.3, 0.3]), 5)
            assert 3 not in result.ids
        finally:
            reopened.close(checkpoint=False)

    def test_scrub_detection_quarantines_and_rewrites(
        self, tmp_path, dataset
    ):
        directory = str(tmp_path / "serve")
        index = ServingIndex.create(
            directory, dataset, fsync="batch", scrub_interval=3600.0
        )
        try:
            scrubber = index._scrubber
            assert scrubber is not None
            checkpoint = scrubber.stats()["path"]
            assert checkpoint is not None and checkpoint.endswith(".dgs")
            spec = read_toc(checkpoint).spec("values")
            with open(checkpoint, "r+b") as handle:
                handle.seek(spec.offset)
                byte = handle.read(1)
                handle.seek(spec.offset)
                handle.write(bytes([byte[0] ^ 0x01]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedResultWarning)
                for _ in range(len(read_toc(checkpoint).section_names) + 1):
                    if scrubber.stats()["corruptions_detected"]:
                        break
                    scrubber.scrub_once()
            health = index.health()["store"]
            assert health["recoveries"] == 1
            quarantine = os.path.join(directory, "quarantine")
            assert os.listdir(quarantine)
            # The rewritten checkpoint is clean and re-armed for scrub.
            fresh = scrubber.stats()["path"]
            assert fresh is not None
            open_store(fresh, deep=True).close()
            # And the index still answers correctly.
            result = index.query(LinearFunction([0.4, 0.3, 0.3]), 5)
            assert len(result.ids) == 5
        finally:
            index.close(checkpoint=False)

    def test_health_reports_publish_and_checkpoint_costs(
        self, tmp_path, dataset
    ):
        directory = str(tmp_path / "serve")
        index = ServingIndex.create(directory, dataset, fsync="batch")
        try:
            index.delete(1)
            index.checkpoint()
            store = index.health()["store"]
            assert store["publish"]["count"] >= 1
            assert store["publish"]["total_ms"] >= 0.0
            assert store["checkpoint"]["count"] >= 1
            assert store["checkpoint"]["last_ms"] >= 0.0
        finally:
            index.close(checkpoint=False)
