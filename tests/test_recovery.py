"""Serve before rebuild: what ``ServingIndex.open`` serves, and when it builds.

Recovery compiles the checkpoint's arrays into the base, turns the WAL
suffix past ``CURRENT``'s watermark into the overlay, and builds the
mutable graph only when a writer, a fold or a checkpoint needs it.  The
reference throughout is the graph recovery used to build up front —
``load_graph_store`` plus :func:`~repro.serve.index.apply_op` over the
suffix — and an open with the overlay disabled, which still builds it
inside ``open``.
"""

from __future__ import annotations

import os
import shutil
import sys
import threading
import warnings

import numpy as np
import pytest

import repro.serve.index as serve_index
from repro.core.builder import build_dominant_graph, build_extended_graph
from repro.core.compiled import SNAPSHOT_FIELDS
from repro.core.dataset import Dataset
from repro.core.functions import LinearFunction
from repro.core.io import save_graph
from repro.core.verify import verify_graph
from repro.errors import (
    IndexCorruptionError,
    StoreCorruptionError,
    WALCorruptionError,
)
from repro.serve import ServingIndex, scan_wal
from repro.serve.index import WAL_NAME, _read_current, _write_current, apply_op
from repro.serve.wal import WriteAheadLog
from repro.store import load_graph_store, read_toc

ROWS, INDEXED = 120, 80
KNOBS = {"fsync": "never", "checkpoint_interval": None}
FUNCTIONS = [
    LinearFunction(np.random.default_rng(seed).random(3) + 0.05)
    for seed in range(4)
]

#: One suffix per logged operation kind, each led by a plain insert so
#: that the overlay has a delta row as well as deletions.
SUFFIXES = {
    "insert": [("insert", 90), ("insert", 91)],
    "delete": [("insert", 90), ("delete", 3)],
    "mark_deleted": [("insert", 90), ("mark_deleted", 4)],
    "insert_many": [("insert", 90), ("insert_many", [91, 92, 93])],
    "delete_many": [("insert", 90), ("delete_many", [5, 6, 90])],
}


@pytest.fixture
def dataset() -> Dataset:
    return Dataset(np.random.default_rng(11).random((ROWS, 3)))


def _graph(dataset: Dataset, kind: str):
    if kind == "extended":
        graph = build_extended_graph(dataset, theta=4, record_ids=range(INDEXED))
        assert graph.num_pseudo
        return graph
    return build_dominant_graph(dataset, record_ids=range(INDEXED))


def _crashed(tmp_path, dataset, kind: str, suffix) -> str:
    """A serving directory a killed writer left: checkpoint + WAL suffix."""
    directory = str(tmp_path / "live")
    index = ServingIndex.create(directory, _graph(dataset, kind), **KNOBS)
    with warnings.catch_warnings():
        # A live overlay that cannot take an op recompiles, with a warning.
        warnings.simplefilter("ignore")
        for op, ids in suffix:
            getattr(index, op)(ids)
    index._wal.sync()
    index.close(checkpoint=False)
    return directory


def _copy(directory: str, name: str) -> str:
    target = os.path.join(os.path.dirname(directory), name)
    shutil.copytree(directory, target)
    return target


def _eager(directory: str) -> ServingIndex:
    """Open a copy with the overlay disabled: the graph is built in ``open``."""
    return ServingIndex.open(_copy(directory, "eager"), overlay_limit=0, **KNOBS)


def _flip_a_byte(path: str, section: str) -> None:
    spec = read_toc(path).spec(section)
    with open(path, "r+b") as handle:
        handle.seek(spec.offset)
        byte = handle.read(1)
        handle.seek(spec.offset)
        handle.write(bytes([byte[0] ^ 0x01]))


def _same_bytes(left: str, right: str) -> bool:
    with open(left, "rb") as one, open(right, "rb") as other:
        return one.read() == other.read()


def _reference(directory: str):
    """Checkpoint + replay, built by hand: the graph recovery used to build."""
    checkpoint, watermark = _read_current(directory)
    graph = load_graph_store(os.path.join(directory, checkpoint))
    for seq, op in scan_wal(os.path.join(directory, WAL_NAME)).records:
        if seq > watermark:
            apply_op(graph, op)
    return graph


def _answers(index: ServingIndex) -> list:
    return [
        (result.ids, result.scores, result.epoch)
        for function in FUNCTIONS
        for result in (index.query(function, k) for k in (1, 7, 40))
    ]


def _assert_same_arrays(left, right) -> None:
    for name in SNAPSHOT_FIELDS:
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestServedBeforeBuilt:
    @pytest.mark.parametrize("graph_kind", ["plain", "extended"])
    @pytest.mark.parametrize("suffix", sorted(SUFFIXES))
    def test_recovered_overlay_answers_like_an_eager_open(
        self, tmp_path, dataset, graph_kind, suffix
    ):
        directory = _crashed(tmp_path, dataset, graph_kind, SUFFIXES[suffix])
        reference = _reference(directory)
        lazy = ServingIndex.open(_copy(directory, "lazy"), **KNOBS)
        eager = _eager(directory)
        try:
            assert lazy._graph is None and eager._graph is not None
            snap = lazy.snapshot()
            # The base is the checkpoint itself; the suffix rides on it.
            checkpoint, _ = _read_current(directory)
            _assert_same_arrays(
                snap.compiled,
                load_graph_store(os.path.join(directory, checkpoint)).compile(),
            )
            assert snap.overlay is not None and snap.epoch == 0
            assert snap.seq == eager.snapshot().seq
            assert np.array_equal(snap.alive_ids(), eager.snapshot().alive_ids())
            assert _answers(lazy) == _answers(eager)
            assert lazy._graph is None  # reads never build the graph

            assert lazy.compact() is True  # the fold builds it, once
            _assert_same_arrays(lazy.snapshot().compiled, reference.compile())
            _assert_same_arrays(lazy.snapshot().compiled, eager.snapshot().compiled)
            assert not verify_graph(lazy._materialized_graph())
            assert _answers(lazy) == _answers(eager)
            assert lazy.health()["edges"] == reference.edge_count()
        finally:
            lazy.close(checkpoint=False)
            eager.close(checkpoint=False)

    def test_health_reads_the_checkpoint_edges_without_building(
        self, tmp_path, dataset
    ):
        directory = _crashed(tmp_path, dataset, "plain", SUFFIXES["delete"])
        checkpoint, _ = _read_current(directory)
        edges = load_graph_store(os.path.join(directory, checkpoint)).edge_count()
        with ServingIndex.open(directory, **KNOBS) as index:
            health = index.health()
            assert health["edges"] == edges
            assert health["records"] == INDEXED  # +90, -3
            assert index._graph is None


class TestBuiltInsideOpen:
    """Where the overlay cannot hold the suffix, open builds the graph."""

    def _assert_like_reference(self, index: ServingIndex, directory: str) -> None:
        reference = _reference(directory)
        assert index.snapshot().overlay is None
        _assert_same_arrays(index.snapshot().compiled, reference.compile())
        assert not verify_graph(index._materialized_graph())

    def test_suffix_larger_than_the_overlay_limit(self, tmp_path, dataset):
        directory = _crashed(tmp_path, dataset, "plain", SUFFIXES["insert_many"])
        with ServingIndex.open(directory, overlay_limit=3, **KNOBS) as index:
            assert index._graph is not None
            self._assert_like_reference(index, directory)

    def test_overlay_disabled(self, tmp_path, dataset):
        directory = _crashed(tmp_path, dataset, "plain", SUFFIXES["mark_deleted"])
        with ServingIndex.open(directory, overlay_limit=0, **KNOBS) as index:
            assert index._graph is not None
            self._assert_like_reference(index, directory)

    @pytest.mark.parametrize(
        "suffix",
        [
            # The overlay dropped 90 at the mark; whether the graph still
            # indexes it after the delete is the graph's business.
            [("insert", 90), ("mark_deleted", 90), ("delete", 90)],
            [("mark_deleted", 7), ("delete", 7)],
        ],
    )
    def test_an_op_on_a_marked_record(self, tmp_path, dataset, suffix):
        directory = _crashed(tmp_path, dataset, "plain", suffix)
        eager = _eager(directory)
        with ServingIndex.open(directory, **KNOBS) as index:
            assert index._graph is not None
            self._assert_like_reference(index, directory)
            assert _answers(index) == _answers(eager)
        eager.close(checkpoint=False)

    def test_legacy_npz_checkpoint(self, tmp_path, dataset):
        directory = _crashed(tmp_path, dataset, "extended", SUFFIXES["delete_many"])
        # Re-point CURRENT at an .npz archive of the same checkpoint.
        checkpoint, watermark = _read_current(directory)
        graph = load_graph_store(os.path.join(directory, checkpoint))
        os.unlink(os.path.join(directory, checkpoint))
        save_graph(graph, os.path.join(directory, "checkpoint-legacy.npz"))
        _write_current(directory, "checkpoint-legacy.npz", watermark)
        eager = _eager(directory)
        with ServingIndex.open(directory, **KNOBS) as index:
            assert _answers(index) == _answers(eager)
            assert np.array_equal(
                index.snapshot().alive_ids(), eager.snapshot().alive_ids()
            )
            assert index.compact() is True
            _assert_same_arrays(index.snapshot().compiled, eager.snapshot().compiled)
        # close() checkpointed: the directory is converted to .dgs.
        assert _read_current(directory)[0].endswith(".dgs")
        eager.close(checkpoint=False)


class TestOpenRefusesWhatItAlwaysRefused:
    def _error(self, directory: str, **knobs) -> str:
        with pytest.raises((IndexCorruptionError, WALCorruptionError)) as caught:
            ServingIndex.open(directory, **KNOBS, **knobs)
        message = str(caught.value).replace(directory, "<dir>")
        return f"{type(caught.value).__name__}: {message}"

    @pytest.mark.parametrize(
        "bad_op",
        [
            {"op": "insert", "rid": 0},  # already indexed
            {"op": "delete", "rid": 100},  # not indexed
            {"op": "mark_deleted", "rid": 95},  # not indexed
            {"op": "insert_many", "rids": [94, 94]},  # twice in a batch
            {"op": "delete_many", "rids": [1, 90, 2, 3]},  # 90 was deleted
            {"op": "insert", "rid": ROWS + 5},  # not a dataset row
            {"op": "compact"},  # not an operation
        ],
    )
    def test_unreplayable_record_same_error_as_an_eager_open(
        self, tmp_path, dataset, bad_op
    ):
        directory = _crashed(
            tmp_path, dataset, "plain", [("insert", 90), ("delete", 90)]
        )
        with WriteAheadLog(os.path.join(directory, WAL_NAME), fsync="never") as wal:
            wal.append(bad_op)
        wal_bytes = os.path.getsize(os.path.join(directory, WAL_NAME))
        eager = self._error(_copy(directory, "eager"), overlay_limit=0)
        lazy = self._error(directory)
        assert lazy == eager
        assert lazy.startswith("WALCorruptionError: record 3 ")
        assert "no longer applies to the checkpointed index" in lazy
        # Refused before anything on disk was touched.
        assert os.path.getsize(os.path.join(directory, WAL_NAME)) == wal_bytes

    def test_unreplayable_record_after_one_only_the_graph_can_take(
        self, tmp_path, dataset
    ):
        directory = _crashed(tmp_path, dataset, "plain", [("mark_deleted", 7)])
        with WriteAheadLog(os.path.join(directory, WAL_NAME), fsync="never") as wal:
            wal.append({"op": "delete", "rid": 7})
            wal.append({"op": "delete", "rid": 7})
        eager = self._error(_copy(directory, "eager"), overlay_limit=0)
        assert self._error(directory) == eager
        assert eager.startswith("WALCorruptionError: record 3 ('delete')")

    def test_wal_from_the_future(self, tmp_path, dataset):
        directory = _crashed(tmp_path, dataset, "plain", SUFFIXES["insert"])
        with ServingIndex.open(directory, **KNOBS) as index:
            name = index.checkpoint()
        _write_current(directory, name, 0)
        message = self._error(directory)
        assert message == self._error(directory, overlay_limit=0)
        assert "missing between" in message

    def test_corrupt_section_is_quarantined_never_served(self, tmp_path, dataset):
        directory = _crashed(tmp_path, dataset, "plain", SUFFIXES["insert"])
        checkpoint, _ = _read_current(directory)
        path = os.path.join(directory, checkpoint)
        _flip_a_byte(path, "layer_of")
        with pytest.raises(StoreCorruptionError) as caught:
            ServingIndex.open(directory, **KNOBS)
        assert caught.value.section == "layer_of"
        assert not os.path.exists(path)
        assert os.listdir(os.path.join(directory, "quarantine")) == [checkpoint]


class TestTheFirstOperationThatNeedsTheGraph:
    def test_first_insert_after_open(self, tmp_path, dataset):
        directory = _crashed(tmp_path, dataset, "extended", SUFFIXES["delete_many"])
        eager = _eager(directory)
        with ServingIndex.open(directory, **KNOBS) as lazy:
            assert lazy._graph is None
            assert lazy.insert(100) == eager.insert(100)
            assert lazy._graph is not None
            assert lazy.epoch == eager.epoch == 1
            assert np.array_equal(
                lazy.snapshot().alive_ids(), eager.snapshot().alive_ids()
            )
            assert _answers(lazy) == _answers(eager)
            with pytest.raises(ValueError, match="already indexed"):
                lazy.insert(100)
        eager.close(checkpoint=False)

    def test_checkpoint_after_open_writes_the_eager_bytes(self, tmp_path, dataset):
        directory = _crashed(tmp_path, dataset, "extended", SUFFIXES["mark_deleted"])
        eager_dir = _copy(directory, "eager")
        with ServingIndex.open(eager_dir, overlay_limit=0, **KNOBS) as eager:
            eager_name = eager.checkpoint()
        with ServingIndex.open(directory, **KNOBS) as lazy:
            assert lazy._graph is None
            assert lazy.checkpoint() == eager_name
            assert scan_wal(os.path.join(directory, WAL_NAME)).records == []
        assert _same_bytes(
            os.path.join(directory, eager_name), os.path.join(eager_dir, eager_name)
        )

    def test_close_checkpoints_by_default(self, tmp_path, dataset):
        directory = _crashed(tmp_path, dataset, "plain", SUFFIXES["insert_many"])
        eager_dir = _copy(directory, "eager")
        ServingIndex.open(eager_dir, overlay_limit=0, **KNOBS).close()
        lazy = ServingIndex.open(directory, **KNOBS)
        before = _answers(lazy)
        assert lazy._graph is None
        lazy.close()
        name, seq = _read_current(directory)
        assert (name, seq) == _read_current(eager_dir)
        assert _same_bytes(os.path.join(directory, name), os.path.join(eager_dir, name))
        with ServingIndex.open(directory, **KNOBS) as again:
            assert again.snapshot().overlay is None  # nothing past the checkpoint
            assert _answers(again) == before

    def test_scrubber_rewrite_comes_from_the_payload_in_memory(
        self, tmp_path, dataset
    ):
        directory = _crashed(tmp_path, dataset, "plain", SUFFIXES["delete"])
        eager_dir = _copy(directory, "eager")
        with ServingIndex.open(eager_dir, overlay_limit=0, **KNOBS) as eager:
            eager_name = eager.checkpoint()
        index = ServingIndex.open(directory, scrub_interval=3600.0, **KNOBS)
        try:
            assert index._graph is None
            scrubber = index._scrubber
            checkpoint = scrubber.stats()["path"]
            _flip_a_byte(checkpoint, "values")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for _ in range(64):
                    if scrubber.stats()["corruptions_detected"]:
                        break
                    scrubber.scrub_once()
            assert index.health()["store"]["recoveries"] == 1
            assert os.listdir(os.path.join(directory, "quarantine"))
            name, _seq = _read_current(directory)
            assert name == eager_name
            assert _same_bytes(
                os.path.join(directory, name), os.path.join(eager_dir, name)
            )
        finally:
            index.close(checkpoint=False)

    def test_writers_and_compactor_race_to_build_it(
        self, tmp_path, dataset, monkeypatch
    ):
        """Three writers and the background compactor all reach for the
        deferred graph at once, switching threads every microsecond: it
        is built exactly once, and no write is lost."""
        directory = _crashed(tmp_path, dataset, "plain", SUFFIXES["delete_many"])
        builds = []
        construct = serve_index._construct

        def counted(payload, path):
            builds.append(threading.current_thread().name)
            return construct(payload, path)

        monkeypatch.setattr(serve_index, "_construct", counted)
        index = ServingIndex.open(
            directory, compact_interval=0.001, compact_age=0.0, **KNOBS
        )
        expected = set(index.snapshot().alive_ids().tolist())
        batches = [range(100, 104), range(104, 108), range(108, 112)]
        expected.update(rid for batch in batches for rid in batch)

        def writer(batch):
            for rid in batch:
                index.insert(rid)

        threads = [threading.Thread(target=writer, args=(b,)) for b in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert len(builds) == 1
            assert set(index.snapshot().alive_ids().tolist()) == expected
            assert not verify_graph(index._materialized_graph())
            rebuilt = build_dominant_graph(dataset, record_ids=sorted(expected))
            function = FUNCTIONS[0]
            want = rebuilt.compile().top_k(function, 30)
            got = index.query(function, 30)
            assert (got.ids, got.scores) == (want.ids, want.scores)
        finally:
            index.close(checkpoint=False)
        assert len(builds) == 1
