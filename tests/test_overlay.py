"""Base+delta overlay: bit-parity with full recompiles, builder rules.

The tentpole's correctness claim is narrow and absolute: a snapshot
published as ``base + DeltaOverlay`` answers every query bit-identically
to the snapshot a full recompile would have published.  The hypothesis
property test here states that over random interleaved
insert/delete/mark_deleted sequences; the example-based tests pin the
builder's visibility rules, the frozen-overlay discipline, the kernel's
``exclude`` contract, and the serving index's publish/compact
behaviour around them.  The WAL suffix is the only on-disk record of an
unfolded overlay; the crash matrix that holds recovery to it lives in
``tests/test_serving_concurrency.py``.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_top_k_subset
from repro.core.builder import build_dominant_graph
from repro.core.compiled import batch_top_k
from repro.core.dataset import Dataset
from repro.core.functions import LinearFunction, MinFunction, ProductFunction
from repro.core.maintenance import (
    OverlayBuilder,
    delete_record,
    insert_record,
    mark_deleted,
)
from repro.core.overlay import (
    alive_record_ids,
    overlay_batch_top_k,
    overlay_top_k,
)
from repro.errors import DeadlineExceeded
from repro.metrics.counters import AccessCounter
from repro.resilience.deadline import Deadline
from repro.serve import ServingIndex
from repro.serve.index import snapshot_scan
from tests.conftest import layer_chunks


def _functions(dims: int, count: int = 4, seed: int = 7) -> list:
    rng = np.random.default_rng(seed)
    return [
        LinearFunction((w + 0.05).tolist())
        for w in rng.uniform(0.1, 1.0, (count, dims))
    ]


# ----------------------------------------------------------------------
# The property: base+overlay ≡ full recompile, bit for bit
# ----------------------------------------------------------------------
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(
        st.sampled_from(["insert", "delete", "mark"]),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_overlay_matches_full_recompile_bit_for_bit(ops, seed):
    """Random interleaved insert/delete/mark_deleted: the frozen overlay
    over the *old* base answers exactly like compiling the mutated graph
    from scratch, for every query and every k (including k > alive)."""
    rng = np.random.default_rng(seed)
    # Integer-ish grid so dominance ties and equal scores are common —
    # exactly where a sloppy merge would break the (-score, id) order.
    dataset = Dataset(rng.integers(0, 9, (24, 3)).astype(float))
    graph = build_dominant_graph(dataset, record_ids=range(12))
    base = graph.compile().detach()
    builder = OverlayBuilder(base)

    indexed = set(range(12))
    marked: set = set()
    pending = list(range(12, 24))
    for action in ops:
        if action == "insert" and pending:
            rid = pending.pop(0)
            insert_record(graph, rid)
            builder.insert(rid, graph.vector(rid))
            indexed.add(rid)
        elif action == "delete" and len(indexed) > 2:
            rid = sorted(indexed)[int(rng.integers(0, len(indexed)))]
            delete_record(graph, rid)
            builder.delete(rid)
            indexed.discard(rid)
            pending.append(rid)
        elif action == "mark" and len(indexed) > 2:
            rid = sorted(indexed)[int(rng.integers(0, len(indexed)))]
            mark_deleted(graph, rid)
            builder.mark_deleted(rid)
            indexed.discard(rid)
            marked.add(rid)  # marked records stay pseudo; never reused

    overlay = builder.freeze()
    recompiled = graph.compile().detach()
    functions = _functions(3, count=4, seed=seed % 97)
    for k in (1, 5, 50):
        want = batch_top_k(recompiled, functions, k)
        if overlay is None:
            got = batch_top_k(base, functions, k)
        else:
            got = overlay_batch_top_k(base, overlay, functions, k)
        for w, g in zip(want, got):
            assert g.ids == w.ids
            assert g.scores == w.scores
    if overlay is not None:
        alive = alive_record_ids(base, overlay).tolist()
        assert sorted(alive) == sorted(indexed)


def test_overlay_parity_holds_under_where_predicates():
    rng = np.random.default_rng(3)
    dataset = Dataset(rng.uniform(0.0, 10.0, (30, 3)).tolist())
    graph = build_dominant_graph(dataset, record_ids=range(20))
    base = graph.compile().detach()
    builder = OverlayBuilder(base)
    for rid in (20, 21, 22):
        insert_record(graph, rid)
        builder.insert(rid, graph.vector(rid))
    for rid in (3, 21):
        delete_record(graph, rid)
        builder.delete(rid)
    overlay = builder.freeze()
    recompiled = graph.compile().detach()

    def where(values: np.ndarray) -> bool:
        return float(values[0]) > 4.0

    functions = _functions(3)
    for k in (1, 4, 40):
        want = batch_top_k(recompiled, functions, k, where=where)
        got = overlay_batch_top_k(base, overlay, functions, k, where=where)
        with layer_chunks():  # every layer edge a retirement point
            got += overlay_batch_top_k(
                base, overlay, functions, k, where=where
            )
        for w, g in zip(want + want, got):
            assert g.ids == w.ids
            assert g.scores == w.scores


# ----------------------------------------------------------------------
# The merge is part of the kernel's one selection
# ----------------------------------------------------------------------
class TestFusedSelection:
    """Delta rows join each query's base candidates before the one
    ranking; every case is held to a naive scan of the alive records."""

    @staticmethod
    def overlay_over(dataset, base_ids, inserts=(), deletes=()):
        graph = build_dominant_graph(dataset, record_ids=base_ids)
        base = graph.compile().detach()
        builder = OverlayBuilder(base)
        for rid in inserts:
            builder.insert(rid, dataset.values[rid])
        for rid in deletes:
            builder.delete(rid)
        return base, builder.freeze()

    @staticmethod
    def assert_matches_scan(dataset, base, overlay, functions, k, where=None):
        alive = alive_record_ids(base, overlay)
        got = overlay_batch_top_k(base, overlay, functions, k, where=where)
        with layer_chunks():
            got += overlay_batch_top_k(base, overlay, functions, k, where=where)
        got += [
            overlay_top_k(base, overlay, function, k, where=where)
            for function in functions
        ]
        for function, result in zip(functions * 3, got):
            want = naive_top_k_subset(dataset, alive, function, k, where=where)
            assert result.ids == want.ids
            assert result.scores == want.scores
            assert result.algorithm == "compiled-batch+delta"
        return got

    def test_empty_base_answers_from_the_delta_alone(self, rng):
        dataset = Dataset(rng.uniform(0.0, 10.0, (12, 3)))
        graph = build_dominant_graph(dataset, record_ids=range(4))
        for rid in range(4):
            delete_record(graph, rid)
        base = graph.compile().detach()
        assert base.num_records == 0
        builder = OverlayBuilder(base)
        for rid in range(4, 12):
            builder.insert(rid, dataset.values[rid])
        overlay = builder.freeze()
        for k in (1, 3, 8, 20):
            results = self.assert_matches_scan(
                dataset, base, overlay, _functions(3), k
            )
            assert all(len(r) == min(k, 8) for r in results)
            assert all(r.stats.computed == 8 for r in results)

    def test_where_filters_delta_rows_too(self, rng):
        dataset = Dataset(rng.uniform(0.0, 10.0, (40, 3)))
        base, overlay = self.overlay_over(
            dataset, range(30), inserts=range(30, 40), deletes=(2, 5)
        )
        seen = []

        def where(values: np.ndarray) -> bool:
            seen.append(values.tolist())
            return float(values[0]) > 5.0

        for k in (1, 6, 40):
            self.assert_matches_scan(
                dataset, base, overlay, _functions(3), k, where=where
            )
        # Deleted base rows never reach the predicate; delta rows do.
        shown = {tuple(values) for values in seen}
        assert not shown & {tuple(dataset.values[rid]) for rid in (2, 5)}
        assert shown >= {tuple(dataset.values[rid]) for rid in range(30, 40)}

        def nothing_new(values: np.ndarray) -> bool:  # rejects every delta row
            return not any(
                (values == dataset.values[rid]).all() for rid in range(30, 40)
            )

        results = self.assert_matches_scan(
            dataset, base, overlay, _functions(3), 6, where=nothing_new
        )
        assert all(not set(r.ids) & set(range(30, 40)) for r in results)
        # ...which are charged all the same: they were scored candidates.
        assert all(
            r.stats.computed_ids >= frozenset(range(30, 40)) for r in results
        )

    def test_non_linear_functions_merge_on_the_float64_lane(self, rng):
        dataset = Dataset(rng.uniform(0.5, 10.0, (60, 3)))
        base, overlay = self.overlay_over(
            dataset, range(50), inserts=range(50, 60), deletes=(1, 7, 9)
        )
        functions = [
            MinFunction(),
            ProductFunction([0.5, 1.0, 2.0]),
            LinearFunction([0.2, 0.3, 0.5]),  # a mixed batch rides float64 too
        ]
        for k in (1, 5, 57, 80):
            self.assert_matches_scan(dataset, base, overlay, functions, k)

    def test_k_past_the_alive_count_returns_every_alive_record(self, rng):
        dataset = Dataset(rng.uniform(0.0, 10.0, (30, 3)))
        base, overlay = self.overlay_over(
            dataset, range(20), inserts=range(20, 26), deletes=(0, 3, 4, 21)
        )
        alive = alive_record_ids(base, overlay).tolist()
        assert len(alive) == 22
        for k in (22, 23, 500):
            results = self.assert_matches_scan(
                dataset, base, overlay, _functions(3), k
            )
            assert all(sorted(r.ids) == alive for r in results)

    @pytest.mark.parametrize("lane", ["1", "0"])
    def test_exact_score_tie_across_base_and_delta_goes_to_the_lower_id(
        self, lane, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAST_LANE", lane)
        rows = np.random.default_rng(5).integers(0, 6, (24, 3)).astype(float)
        rows[20] = rows[3]  # delta record 20 ties base record 3 exactly
        rows[21] = rows[11]  # and 21 ties 11
        dataset = Dataset(rows)
        base, overlay = self.overlay_over(
            dataset, range(20), inserts=(20, 21, 22)
        )
        function = LinearFunction([0.5, 0.25, 0.25])
        for k in range(1, 24):
            (result,) = self.assert_matches_scan(
                dataset, base, overlay, [function], k
            )[:1]
            for low, high in ((3, 20), (11, 21)):
                if high in result.ids:  # the lower id ranks first, always
                    assert result.ids.index(low) + 1 == result.ids.index(high)
        full = overlay_top_k(base, overlay, function, 23)
        assert {3, 20, 11, 21} <= set(full.ids)
        # A cut that falls between the twins keeps the base record.
        cut = full.ids.index(20)
        assert 20 not in overlay_top_k(base, overlay, function, cut).ids

    def test_deadline_expiring_after_the_sweep_names_the_merge(self, rng):
        dataset = Dataset(rng.uniform(0.0, 10.0, (40, 3)))
        base, overlay = self.overlay_over(
            dataset, range(30), inserts=range(30, 34)
        )
        chunks = len(base._chunk_schedule(5))

        class ExpiresAfter(Deadline):
            """Alive for ``checks`` looks at the clock, expired after."""

            def remaining(self) -> float:
                looks.append(1)
                return 1.0 if len(looks) <= checks else -1.0

        function = LinearFunction([0.5, 0.3, 0.2])
        deadline = ExpiresAfter(expires_at=0.0, total_ms=10.0)
        looks, checks = [], chunks  # every kernel check passes
        stats = AccessCounter()
        with pytest.raises(DeadlineExceeded) as excinfo:
            overlay_top_k(
                base, overlay, function, 5, stats=stats, deadline=deadline
            )
        assert excinfo.value.stage == "overlay-merge"
        assert stats.computed == base.num_records  # swept, never merged
        looks, checks = [], chunks + 1  # ...and one more look lets it finish
        result = overlay_top_k(base, overlay, function, 5, deadline=deadline)
        assert result.stats.computed == base.num_records + 4
        looks, checks = [], 0  # expiry before the sweep is the kernel's
        with pytest.raises(DeadlineExceeded) as excinfo:
            overlay_top_k(base, overlay, function, 5, deadline=deadline)
        assert excinfo.value.stage == "kernel"


# ----------------------------------------------------------------------
# Builder visibility rules
# ----------------------------------------------------------------------
class TestOverlayBuilder:
    @pytest.fixture
    def base(self, rng):
        dataset = Dataset(rng.uniform(0.0, 8.0, (10, 2)).tolist())
        graph = build_dominant_graph(dataset)
        return graph.compile().detach()

    def test_freeze_is_none_until_something_changed(self, base):
        builder = OverlayBuilder(base)
        assert builder.freeze() is None
        assert builder.size == 0 and builder.age == 0.0

    def test_reinsert_of_a_base_record_supersedes_its_row(self, base):
        builder = OverlayBuilder(base)
        builder.delete(4)
        builder.insert(4, np.array([9.0, 9.0]))
        overlay = builder.freeze()
        assert overlay.delta_ids.tolist() == [4]
        # The base row stays masked: the delta entry is the answer.
        assert overlay.deleted_count == 1
        assert 4 in alive_record_ids(base, overlay).tolist()

    def test_delete_of_a_fresh_insert_cancels_it(self, base):
        builder = OverlayBuilder(base)
        builder.insert(77, np.array([1.0, 2.0]))
        builder.delete(77)
        assert builder.freeze() is None or 77 not in (
            builder.freeze().delta_ids.tolist()
        )

    def test_delete_of_an_unknown_record_raises(self, base):
        builder = OverlayBuilder(base)
        with pytest.raises(KeyError, match="neither"):
            builder.delete(999)

    def test_frozen_arrays_reject_mutation(self, base):
        builder = OverlayBuilder(base)
        builder.insert(50, np.array([3.0, 4.0]))
        builder.delete(2)
        overlay = builder.freeze()
        for array in (
            overlay.delta_ids,
            overlay.delta_values,
            overlay.deleted_rows,
        ):
            with pytest.raises((ValueError, RuntimeError)):
                array[0] = 0
        mask = overlay.deleted_mask(base.num_records)
        with pytest.raises((ValueError, RuntimeError)):
            mask[0] = True

    def test_freeze_snapshots_are_independent(self, base):
        """A published overlay must not see the builder's later changes."""
        builder = OverlayBuilder(base)
        builder.insert(50, np.array([3.0, 4.0]))
        first = builder.freeze()
        builder.insert(51, np.array([5.0, 6.0]))
        assert first.delta_ids.tolist() == [50]
        assert builder.freeze().delta_ids.tolist() == [50, 51]


# ----------------------------------------------------------------------
# Kernel exclude contract
# ----------------------------------------------------------------------
class TestKernelExclude:
    def test_exclude_mask_must_be_bool_and_full_width(self, rng):
        dataset = Dataset(rng.uniform(0.0, 8.0, (12, 2)).tolist())
        compiled = build_dominant_graph(dataset).compile().detach()
        functions = _functions(2, count=1)
        with pytest.raises(ValueError, match="exclude"):
            batch_top_k(
                compiled, functions, 3,
                exclude=np.zeros(compiled.num_records, dtype=np.int64),
            )
        with pytest.raises(ValueError, match="exclude"):
            batch_top_k(
                compiled, functions, 3,
                exclude=np.zeros(compiled.num_records + 1, dtype=bool),
            )

    def test_excluded_rows_never_surface_but_answers_stay_exact(self, rng):
        dataset = Dataset(rng.uniform(0.0, 8.0, (20, 2)).tolist())
        graph = build_dominant_graph(dataset)
        compiled = graph.compile().detach()
        function = _functions(2, count=1)[0]
        full = batch_top_k(compiled, [function], 20)[0]
        victim = full.ids[0]  # exclude the winner: hardest case
        dense = {
            int(r): i for i, r in enumerate(compiled.record_ids.tolist())
        }
        mask = np.zeros(compiled.num_records, dtype=bool)
        mask[dense[victim]] = True
        masked = batch_top_k(compiled, [function], 20, exclude=mask)[0]
        assert victim not in masked.ids
        assert masked.ids == tuple(i for i in full.ids if i != victim)


# ----------------------------------------------------------------------
# Serving index: O(changes) publish, compaction
# ----------------------------------------------------------------------
@pytest.fixture
def serving_dir(tmp_path, rng):
    dataset = Dataset(rng.uniform(0.0, 100.0, (40, 3)).tolist())
    graph = build_dominant_graph(dataset, record_ids=range(30))
    return str(tmp_path / "overlay-serve"), graph, dataset


class TestServingOverlay:
    def test_delta_publish_reuses_the_base(self, serving_dir):
        directory, graph, _dataset = serving_dir
        with ServingIndex.create(directory, graph, fsync="never") as index:
            base = index.snapshot().compiled
            edges_at_fold = graph.edge_count()
            index.insert(30)
            index.delete(3)
            snap = index.snapshot()
            assert snap.compiled is base  # no recompile happened
            assert snap.overlay is not None
            assert snap.overlay.delta_count == 1
            assert snap.overlay.deleted_count == 1
            health = index.health()
            assert health["overlay"]["delta_publishes"] == 2
            assert health["overlay"]["compactions"]["count"] == 0
            assert health["records"] == 30  # 30 base + 1 delta - 1 deleted
            # Unlike ``records``, ``edges`` is as of the last fold: the
            # live graph has moved on and only the writer may walk it.
            assert health["edges"] == edges_at_fold

    def test_queries_see_the_overlay_immediately(self, serving_dir):
        directory, graph, dataset = serving_dir
        with ServingIndex.create(directory, graph, fsync="never") as index:
            index.insert(35)
            index.delete(5)
            function = _functions(3, count=1)[0]
            got = index.query(function, k=31)
            assert 35 in got.ids and 5 not in got.ids
            batch = index.query_batch([function], 31)[0]
            assert batch.ids == got.ids and batch.scores == got.scores

    def test_compact_folds_under_the_same_epoch(self, serving_dir):
        directory, graph, _dataset = serving_dir
        with ServingIndex.create(directory, graph, fsync="never") as index:
            index.insert(31)
            index.mark_deleted(7)
            function = _functions(3, count=1)[0]
            before = index.query(function, k=30)
            epoch = index.epoch
            assert index.snapshot().overlay is not None
            assert index.compact() is True
            snap = index.snapshot()
            assert snap.overlay is None
            assert snap.epoch == epoch  # content-identical: no new epoch
            after = index.query(function, k=30)
            assert after.ids == before.ids
            assert after.scores == before.scores
            health = index.health()
            assert health["overlay"]["compactions"]["count"] == 1
            assert health["overlay"]["base_generation"] == 1
            assert health["edges"] == graph.edge_count()  # refreshed by the fold
            assert index.compact() is False  # nothing left to fold

    def test_overlay_overflow_forces_a_fold(self, serving_dir):
        directory, graph, _dataset = serving_dir
        index = ServingIndex.create(
            directory, graph, fsync="never", overlay_limit=2
        )
        try:
            for rid in (30, 31, 32):
                index.insert(rid)
            health = index.health()
            # The third insert overflowed the cap: recompile, fresh base.
            assert health["overlay"]["compactions"]["forced"] == 1
            snap = index.snapshot()
            assert snap.overlay is None
            assert {30, 31, 32} <= set(snap.alive_ids().tolist())
        finally:
            index.close(checkpoint=False)

    def test_overlay_disabled_publishes_bases_only(self, serving_dir):
        directory, graph, _dataset = serving_dir
        index = ServingIndex.create(
            directory, graph, fsync="never", overlay_limit=0
        )
        try:
            index.insert(30)
            snap = index.snapshot()
            assert snap.overlay is None
            assert 30 in snap.alive_ids().tolist()
            assert index.health()["overlay"]["enabled"] is False
        finally:
            index.close(checkpoint=False)

    def test_background_compactor_folds_when_writes_go_quiet(
        self, serving_dir
    ):
        import time

        directory, graph, _dataset = serving_dir
        index = ServingIndex.create(
            directory,
            graph,
            fsync="never",
            compact_interval=0.01,
            compact_age=0.02,
        )
        try:
            index.insert(33)
            assert index.snapshot().overlay is not None
            deadline = time.monotonic() + 5.0
            while (
                index.snapshot().overlay is not None
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert index.snapshot().overlay is None, (
                "background compactor never folded the overlay"
            )
            stats = index.health()["overlay"]["compactor"]
            assert stats is not None and stats["compactions"] >= 1
        finally:
            index.close(checkpoint=False)

    def test_scan_tier_matches_overlay_merge(self, serving_dir):
        directory, graph, _dataset = serving_dir
        with ServingIndex.create(directory, graph, fsync="never") as index:
            index.insert(36)
            index.delete(11)
            snap = index.snapshot()
            function = _functions(3, count=1)[0]
            merged = overlay_top_k(snap.compiled, snap.overlay, function, 30)
            scanned = snapshot_scan(
                snap.compiled, function, 30, overlay=snap.overlay
            )
            assert scanned.ids == merged.ids
            assert scanned.scores == merged.scores


def test_same_ops_at_any_pacing_leave_identical_directories(tmp_path, rng):
    """The serving directory is a function of the op sequence alone:
    replaying one script back to back and with a pause before its last
    op leaves the same files with the same bytes."""
    import time

    values = rng.uniform(0.0, 100.0, (40, 3)).tolist()

    def run(name: str, pause: float) -> dict:
        directory = str(tmp_path / name)
        graph = build_dominant_graph(Dataset(values), record_ids=range(30))
        with ServingIndex.create(directory, graph, fsync="never") as index:
            script = (
                lambda: index.insert(30),
                lambda: index.delete(3),
                lambda: index.insert_many([31, 32]),
                lambda: index.mark_deleted(7),
                index.compact,
                lambda: index.insert(33),
                index.checkpoint,
                lambda: index.delete(31),
            )
            for step in script[:-1]:
                step()
            time.sleep(pause)
            script[-1]()
        files = {}
        for entry in sorted(os.listdir(directory)):
            with open(os.path.join(directory, entry), "rb") as handle:
                files[entry] = handle.read()
        return files

    assert run("fast", 0.0) == run("paced", 0.12)


def test_overlay_application_failure_degrades_to_recompile(
    serving_dir, monkeypatch
):
    """A builder that cannot express an op must cost a recompile, never
    an answer: the op still publishes, overlay accounting records the
    fallback, and the next base carries a fresh builder."""
    directory, graph, _dataset = serving_dir
    with ServingIndex.create(directory, graph, fsync="never") as index:
        def broken(_rid, _vector):
            raise RuntimeError("synthetic overlay fault")

        monkeypatch.setattr(index._overlay_builder, "insert", broken)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            index.insert(37)
        assert any("recompile" in str(w.message) for w in caught)
        snap = index.snapshot()
        assert snap.overlay is None
        assert 37 in snap.alive_ids().tolist()
        health = index.health()
        assert health["overlay"]["fallbacks"] == 1
        # The writer healed: the next mutation rides the overlay again.
        index.insert(38)
        assert index.snapshot().overlay is not None
