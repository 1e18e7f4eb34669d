"""Acceptance tests: snapshot isolation under writes, crash recovery.

These are the ISSUE's two acceptance criteria, verbatim:

1. a reader active during a maintenance batch sees either the pre-batch
   or the post-batch snapshot — asserted via epoch tags — never a mix;
2. killing the writer at any scripted WAL offset (including mid-record)
   recovers to an index that verifies clean and answers top-k
   bit-identically to a from-scratch rebuild of the surviving
   operations, for k in {1, 10, 50} over >= 5 random weight vectors.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro.core.builder import build_dominant_graph
from repro.core.compiled import SNAPSHOT_FIELDS, CompiledAdvancedTraveler
from repro.core.dataset import Dataset
from repro.core.functions import LinearFunction
from repro.core.verify import format_issues, verify_graph
from repro.errors import ServiceUnavailable
from repro.serve import ServingIndex, scan_wal
from repro.serve.index import CURRENT_NAME, WAL_NAME, _read_current
from repro.store import load_graph_store
from repro.testing import Rendezvous, crash_offsets, crashed_copy, run_threads

FN = LinearFunction([0.5, 0.3, 0.2])


@pytest.fixture
def dataset(rng) -> Dataset:
    return Dataset(rng.random((60, 3)))


@pytest.fixture
def partial(tmp_path, dataset):
    graph = build_dominant_graph(dataset, record_ids=range(30))
    index = ServingIndex.create(
        str(tmp_path / "serve"), graph, fsync="batch"
    )
    yield index
    index.close(checkpoint=False)


def directory_entries(directory: str) -> dict:
    """Every entry of ``directory`` by name, with a file's bytes."""
    entries = {}
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            with open(path, "rb") as handle:
                entries[name] = handle.read()
        else:
            entries[name] = None
    return entries


def survivors_of(index: ServingIndex) -> frozenset:
    # Overlay-aware: the published snapshot may carry unfolded inserts
    # and deletions on top of its compiled base.
    return frozenset(int(r) for r in index.snapshot().alive_ids().tolist())


class TestSnapshotIsolation:
    def test_reader_frozen_mid_batch_answers_from_its_pinned_epoch(
        self, partial
    ):
        """The scripted interleaving: freeze a reader inside its
        traversal, apply a whole batch around it, and hold the reader to
        the pre-batch snapshot by epoch tag and by answer."""
        index = partial
        pre_epoch = index.epoch
        pre_answer = index.query(FN, k=10)
        rendezvous = Rendezvous()

        def frozen_where(values: np.ndarray) -> bool:
            rendezvous.arrive()
            return True

        def reader():
            return index.query(FN, k=10, where=frozen_where)

        def writer():
            rendezvous.wait_arrived()
            # The reader is parked mid-traversal.  Apply a batch insert
            # and a delete: two publishes, both while the reader holds
            # its pinned snapshot.
            index.insert_many([40, 41, 42])
            index.delete(3)
            assert index.epoch == pre_epoch + 2
            rendezvous.release()

        reader_result, _ = run_threads(reader, writer)

        # The reader answered from the world it pinned ...
        assert reader_result.epoch == pre_epoch
        assert reader_result.ids == pre_answer.ids
        assert reader_result.scores == pre_answer.scores
        # ... and a fresh query sees the post-batch world.
        post = index.query(FN, k=10)
        assert post.epoch == pre_epoch + 2
        assert survivors_of(index) >= {40, 41, 42}
        assert 3 not in survivors_of(index)

    def test_epoch_tags_never_mix_snapshots_under_concurrent_writes(
        self, partial, dataset
    ):
        """Stress the window: readers hammer queries while the writer
        mutates.  Every result's epoch tag must name a snapshot whose
        oracle (a from-scratch rebuild of that epoch's survivor set)
        reproduces the answer bit-identically — a mixed read could not
        match any single epoch's oracle."""
        index = partial
        states = {index.epoch: survivors_of(index)}
        observed: list = []

        def writer():
            for rid in range(30, 40):
                index.insert(rid)
                states[index.epoch] = survivors_of(index)
            for rid in (2, 4, 6):
                index.delete(rid)
                states[index.epoch] = survivors_of(index)

        def reader():
            results = []
            for _ in range(40):
                results.append(index.query(FN, k=8))
            observed.extend(results)

        run_threads(writer, reader, reader, reader)

        assert observed and all(r.epoch in states for r in observed)
        oracles: dict = {}
        for result in observed:
            key = states[result.epoch]
            if key not in oracles:
                rebuilt = build_dominant_graph(
                    dataset, record_ids=sorted(key)
                )
                oracles[key] = CompiledAdvancedTraveler(
                    rebuilt.compile()
                ).top_k(FN, 8)
            want = oracles[key]
            assert result.ids == want.ids, (
                f"epoch {result.epoch}: answer does not match its own "
                "epoch's oracle — snapshot mix"
            )
            assert result.scores == want.scores

    def test_close_drains_inflight_queries_before_releasing(self, partial):
        import threading
        import time

        index = partial
        rendezvous = Rendezvous()

        def frozen_where(values: np.ndarray) -> bool:
            rendezvous.arrive()
            return True

        def reader():
            return index.query(FN, k=5, where=frozen_where)

        def closer():
            rendezvous.wait_arrived()  # a query is parked in flight
            drained = {}

            def do_close():
                drained["ok"] = index.close(drain_timeout=30.0)

            closing = threading.Thread(target=do_close, daemon=True)
            closing.start()
            for _ in range(1000):
                if index._draining:
                    break
                time.sleep(0.005)
            # Draining has started: new queries are refused while the
            # parked one is still running to completion.
            with pytest.raises(ServiceUnavailable):
                index.query(FN, k=1)
            rendezvous.release()
            closing.join(timeout=30)
            assert not closing.is_alive()
            assert drained["ok"] is True

        result, _ = run_threads(reader, closer)
        assert len(result.ids) == 5  # the in-flight query completed


class TestCrashRecovery:
    K_VALUES = (1, 10, 50)
    WEIGHT_VECTORS = 5

    def test_kill_writer_at_every_scripted_offset_recovers_exactly(
        self, tmp_path, partial, dataset
    ):
        """ISSUE acceptance: every WAL truncation point — clean record
        boundaries and mid-record tears alike — recovers to a verified
        index bit-identical to a rebuild of the surviving operations."""
        index = partial
        index.insert(30)
        index.insert_many([31, 32, 33])
        index.delete(5)
        index.mark_deleted(10)
        index.insert(34)
        index.delete_many([1, 2])
        index.insert(35)
        index._wal.sync()
        # The writer is now "killed": no close, no checkpoint.

        wal_path = os.path.join(index._directory, "wal.log")
        offsets = crash_offsets(wal_path)
        assert len(offsets) > 20  # header + 4 cut points per record

        functions = [
            LinearFunction(np.random.default_rng(q).random(3) + 0.05)
            for q in range(self.WEIGHT_VECTORS)
        ]
        oracles: dict = {}
        for cut in offsets:
            crash_dir = crashed_copy(
                index._directory, str(tmp_path / f"crash-{cut}"), cut
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # torn tails are expected
                recovered = ServingIndex.open(crash_dir, fsync="never")
            try:
                issues = verify_graph(recovered._materialized_graph())
                assert not issues, (
                    f"cut={cut}: {format_issues(issues)}"
                )
                key = survivors_of(recovered)
                if key not in oracles:
                    rebuilt = build_dominant_graph(
                        dataset, record_ids=sorted(key)
                    )
                    oracles[key] = CompiledAdvancedTraveler(rebuilt.compile())
                for function in functions:
                    for k in self.K_VALUES:
                        want = oracles[key].top_k(function, k)
                        got = recovered.query(function, k)
                        assert got.ids == want.ids, (
                            f"cut={cut} k={k}: ids diverge from rebuild"
                        )
                        assert got.scores == want.scores, (
                            f"cut={cut} k={k}: scores diverge from rebuild"
                        )
            finally:
                recovered.close(checkpoint=False)

        # Sanity on the harness itself: the full log recovers everything,
        # the bare header recovers the checkpoint state.
        full = crashed_copy(
            index._directory,
            str(tmp_path / "crash-full"),
            os.path.getsize(wal_path),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            everything = ServingIndex.open(full, fsync="never")
        try:
            assert survivors_of(everything) == survivors_of(index)
        finally:
            everything.close(checkpoint=False)

    def test_recovery_is_idempotent(self, tmp_path, partial):
        """Opening, closing without checkpoint, and opening again must
        not change the answer — replay filtering is stable."""
        index = partial
        index.insert(30)
        index.delete(7)
        index._wal.sync()
        first = ServingIndex.open(index._directory, fsync="never")
        answer_one = first.query(FN, k=10)
        first.close(checkpoint=False)
        second = ServingIndex.open(index._directory, fsync="never")
        answer_two = second.query(FN, k=10)
        second.close(checkpoint=False)
        assert answer_one.ids == answer_two.ids
        assert answer_one.scores == answer_two.scores

    def _assert_recovers_exactly(self, crash_dir, dataset, oracles):
        """Recover ``crash_dir`` and hold it bit-identical to a rebuild."""
        before = directory_entries(crash_dir)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # torn tails are expected
            recovered = ServingIndex.open(crash_dir, fsync="never")
        try:
            # Whatever overlay state the crash interrupted, the reopened
            # index serves the checkpoint plus exactly the WAL suffix
            # past CURRENT's watermark.
            self._assert_overlay_is_the_suffix(crash_dir, recovered, before)
            issues = verify_graph(recovered._materialized_graph())
            assert not issues, format_issues(issues)
            key = survivors_of(recovered)
            if key not in oracles:
                rebuilt = build_dominant_graph(
                    dataset, record_ids=sorted(key)
                )
                oracles[key] = CompiledAdvancedTraveler(rebuilt.compile())
            for q in range(self.WEIGHT_VECTORS):
                function = LinearFunction(
                    np.random.default_rng(q).random(3) + 0.05
                )
                for k in self.K_VALUES:
                    want = oracles[key].top_k(function, k)
                    got = recovered.query(function, k)
                    assert got.ids == want.ids
                    assert got.scores == want.scores
        finally:
            recovered.close(checkpoint=False)

    @staticmethod
    def _assert_overlay_is_the_suffix(crash_dir, recovered, before):
        """Hold the recovered overlay to a model of the WAL suffix.

        The suffix is the only on-disk record of unfolded changes, so
        open writes nothing but ``CURRENT``, the checkpoint and the WAL:
        any other file it created or rewrote would be a second record.
        """
        checkpoint, watermark = _read_current(crash_dir)
        written = {
            name
            for name, data in directory_entries(crash_dir).items()
            if before.get(name, ...) != data
        }
        assert written <= {CURRENT_NAME, checkpoint, WAL_NAME}, written
        snap = recovered.snapshot()
        base = snap.compiled
        # The base is the checkpoint, compiled straight from its arrays.
        rebuilt = load_graph_store(os.path.join(crash_dir, checkpoint)).compile()
        for name in SNAPSHOT_FIELDS:
            assert np.array_equal(getattr(base, name), getattr(rebuilt, name))
        in_base = set(base.record_ids[~base.pseudo_mask].tolist())
        delta, deleted = set(), set()
        scan = scan_wal(os.path.join(crash_dir, "wal.log"))
        for seq, op in scan.records:
            if seq <= watermark:
                continue
            for rid in [op["rid"]] if "rid" in op else op["rids"]:
                if op["op"].startswith("insert"):
                    delta.add(rid)
                    if rid in in_base:
                        deleted.add(rid)
                elif rid in delta:
                    delta.discard(rid)
                else:
                    deleted.add(rid)
        assert snap.seq == scan.last_seq
        overlay = snap.overlay
        if not delta and not deleted:
            assert overlay is None
            return
        assert overlay.delta_ids.tolist() == sorted(delta)
        assert set(base.record_ids[overlay.deleted_rows].tolist()) == deleted

    def test_kill_mid_delta_publish_at_every_offset(
        self, tmp_path, partial, dataset
    ):
        """Crash with an unfolded overlay live: at every WAL truncation
        point the WAL suffix past ``CURRENT``'s watermark is the only
        record of the overlay.  Recovery must serve exactly that suffix
        and come back bit-identical to a rebuild of the surviving
        operations."""
        index = partial
        index.insert(40)
        index.delete(8)
        index.insert_many([41, 42])
        index.mark_deleted(2)
        index._wal.sync()
        # Killed here: the overlay holds every op, nothing was compacted.
        assert index.snapshot().overlay is not None

        wal_path = os.path.join(index._directory, WAL_NAME)
        oracles: dict = {}
        for cut in crash_offsets(wal_path):
            crash_dir = crashed_copy(
                index._directory, str(tmp_path / f"delta-crash-{cut}"), cut
            )
            self._assert_recovers_exactly(crash_dir, dataset, oracles)

    def test_kill_mid_compaction_recovers_exactly(
        self, tmp_path, partial, dataset
    ):
        """Crash after a compaction folded the overlay in memory but
        before any checkpoint: the folded ops are still only in the WAL
        suffix.  Replay must reproduce the folded state at every cut."""
        index = partial
        index.insert(45)
        index.delete(9)
        index._wal.sync()
        assert index.compact() is True  # the fold ran; no checkpoint
        index._wal.sync()

        wal_path = os.path.join(index._directory, WAL_NAME)
        oracles: dict = {}
        for cut in crash_offsets(wal_path):
            crash_dir = crashed_copy(
                index._directory,
                str(tmp_path / f"compact-crash-{cut}"),
                cut,
            )
            self._assert_recovers_exactly(crash_dir, dataset, oracles)

    def test_leftover_delta_sidecar_is_inert(
        self, tmp_path, partial, dataset
    ):
        """A directory from an older build may hold a torn
        ``delta-current.dgs`` overlay sidecar.  Nothing reads it or
        removes it: recovery is bit-identical to a rebuild."""
        index = partial
        index.insert(46)
        index.delete(10)
        index._wal.sync()
        wal_path = os.path.join(index._directory, WAL_NAME)
        crash_dir = crashed_copy(
            index._directory,
            str(tmp_path / "old-directory"),
            os.path.getsize(wal_path),
        )
        checkpoint, _ = _read_current(crash_dir)
        with open(os.path.join(crash_dir, checkpoint), "rb") as handle:
            torn = handle.read()[:100]  # the head of a store file
        planted = os.path.join(crash_dir, "delta-current.dgs")
        with open(planted, "wb") as handle:
            handle.write(torn)
        self._assert_recovers_exactly(crash_dir, dataset, {})
        with open(planted, "rb") as handle:
            assert handle.read() == torn
