"""Adversarial coverage for the float32 fast lane's boundary re-check.

The fast lane (:mod:`repro.core.compiled`) scores in float32 and
re-checks every candidate within a proven margin of the k-th score in
exact float64.  Its failure mode, if the margin or the threshold
rounding were wrong, is precisely *near-ties*: records whose exact
scores differ by less than float32 can resolve, or that tie exactly and
straddle the k-th rank.  Every test here builds such data on purpose
and requires bit-identical ``(-score, id)`` answers against the
reference traveler and against the float64 lane (toggled via
``REPRO_FAST_LANE=0``).

The native-kernel flag (``REPRO_NATIVE=1``) is covered at the end: with
numba installed it must be bit-identical too (the margin bound holds for
any summation order); without it the engine must warn once and fall
back to the numpy lane.  CI runs the whole suite under the flag.

Every sweep asks each query under both lanes *and* both chunk schedules
(:func:`kernel_results`): the stock one, which scans these small
fixtures in one chunk, and ``tests.conftest.layer_chunks`` — one layer
per chunk, so every layer edge is a retirement point for the last-layer
bound.
"""

import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.baselines.naive import naive_top_k_subset
from repro.core import compiled as compiled_engine
from repro.core import native
from repro.core.advanced import AdvancedTraveler
from repro.core.builder import build_dominant_graph, build_extended_graph
from repro.core.compiled import (
    FAST_LANE_ENV,
    CompiledAdvancedTraveler,
    CompiledBasicTraveler,
    _f32_margin,
    _f32_round_down,
    _iter_chunks,
    fast_lane_enabled,
)
from repro.core.dataset import Dataset
from repro.core.functions import LinearFunction, MinFunction
from repro.core.maintenance import (
    OverlayBuilder,
    delete_record,
    insert_record,
    mark_deleted,
)
from repro.core.overlay import overlay_batch_top_k
from repro.core.traveler import BasicTraveler
from repro.data.generators import uniform
from tests.conftest import layer_chunks

#: A score gap far below float32 resolution at magnitude ~1: the float32
#: lane cannot distinguish records this close, only the exact re-check can.
SUB_F32_GAP = 1e-12


def fast_lane_result(traveler, function, k, **kwargs):
    """Query with the fast lane explicitly enabled."""
    with mock.patch.dict(os.environ, {FAST_LANE_ENV: "1"}):
        assert fast_lane_enabled()
        return traveler.top_k(function, k, **kwargs)


def f64_lane_result(traveler, function, k, **kwargs):
    """Query with the fast lane disabled (pure float64 oracle)."""
    with mock.patch.dict(os.environ, {FAST_LANE_ENV: "0"}):
        assert not fast_lane_enabled()
        return traveler.top_k(function, k, **kwargs)


def kernel_results(traveler, function, k, **kwargs):
    """The query under both lanes x both chunk schedules."""
    results = [
        fast_lane_result(traveler, function, k, **kwargs),
        f64_lane_result(traveler, function, k, **kwargs),
    ]
    with layer_chunks():
        results += [
            fast_lane_result(traveler, function, k, **kwargs),
            f64_lane_result(traveler, function, k, **kwargs),
        ]
    return results


def assert_bit_identical(reference, result):
    assert reference.ids == result.ids
    assert reference.scores == result.scores


def assert_canonical_tie_order(result):
    """Equal scores must appear in ascending record-id order."""
    for (s_a, i_a), (s_b, i_b) in zip(
        zip(result.scores, result.ids), zip(result.scores[1:], result.ids[1:])
    ):
        assert s_a > s_b or (s_a == s_b and i_a < i_b)


class TestNearTies:
    def make_near_tie_dataset(self):
        """Clusters of records whose exact scores differ by ~1e-12.

        Each cluster shares a base row; members perturb one coordinate
        by ``SUB_F32_GAP``-sized steps.  In float32 every cluster
        collapses to one score, so ranking inside and across the k-th
        boundary is decided entirely by the exact float64 re-check.
        """
        rng = np.random.default_rng(42)
        base = rng.uniform(0.2, 1.0, size=(12, 3))
        rows = []
        for row in base:
            for step in range(5):
                bumped = row.copy()
                bumped[step % 3] += step * SUB_F32_GAP
                rows.append(bumped)
        return Dataset(np.asarray(rows, dtype=np.float64))

    @pytest.mark.parametrize("k", [1, 5, 17, 30, 60])
    def test_sub_float32_gaps_resolved_exactly(self, k):
        graph = build_dominant_graph(self.make_near_tie_dataset())
        snapshot = graph.compile()
        function = LinearFunction([0.4, 0.35, 0.25])
        reference = BasicTraveler(graph).top_k(function, k)
        for result in kernel_results(
            CompiledBasicTraveler(snapshot), function, k
        ):
            assert_bit_identical(reference, result)

    @pytest.mark.parametrize("k", [1, 3, 8, 12, 24])
    def test_duplicate_scores_straddling_kth_rank(self, k):
        """Permuted coordinates give *exactly* equal unit-weight sums.

        With blocks of identical scores wider than 1, most k values cut
        straight through a tie class; the answer set and order must then
        come from ascending record id, in both lanes.
        """
        rng = np.random.default_rng(7)
        base = rng.integers(1, 5, size=(9, 3)).astype(np.float64)
        rows = [np.roll(row, shift) for row in base for shift in range(3)]
        graph = build_dominant_graph(Dataset(np.asarray(rows)))
        snapshot = graph.compile()
        function = LinearFunction([1.0, 1.0, 1.0])
        reference = BasicTraveler(graph).top_k(function, k)
        for result in kernel_results(
            CompiledBasicTraveler(snapshot), function, k
        ):
            assert_bit_identical(reference, result)
            assert_canonical_tie_order(result)

    def test_overflow_scale_falls_back_to_f64_lane(self):
        """Data near float32 max must bypass the fast lane, not wrap it."""
        rng = np.random.default_rng(3)
        values = rng.uniform(0.5, 1.0, size=(50, 3)) * 1.0e38
        graph = build_dominant_graph(Dataset(values))
        snapshot = graph.compile()
        function = LinearFunction([0.5, 0.3, 0.2])
        reference = BasicTraveler(graph).top_k(function, 10)
        fast = fast_lane_result(CompiledBasicTraveler(snapshot), function, 10)
        assert_bit_identical(reference, fast)


class TestAcceptanceSweep:
    """plain/pseudo/mark-deleted/where/exclude x dims 2-5 x k in {1, 10, 50}.

    Both lanes must equal the reference traveler *and* a naive scan of
    the answerable records under ``(-score, id)``, bit for bit.
    """

    KS = (1, 10, 50)

    def functions(self, dims, k):
        rng = np.random.default_rng(dims * 1000 + k)
        return LinearFunction(rng.dirichlet(np.ones(dims))), MinFunction()

    def check(self, graph, k, where=None):
        snapshot = graph.compile()
        dims = int(snapshot.values.shape[1])
        for function in self.functions(dims, k):
            reference = AdvancedTraveler(graph).top_k(function, k, where=where)
            scan = naive_top_k_subset(
                graph.dataset, graph.real_ids(), function, k, where=where
            )
            assert_bit_identical(scan, reference)
            for result in kernel_results(
                CompiledAdvancedTraveler(snapshot), function, k, where=where
            ):
                assert_bit_identical(scan, result)

    @pytest.mark.parametrize("dims", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", KS)
    def test_plain(self, dims, k):
        self.check(build_dominant_graph(uniform(160, dims, seed=dims)), k)

    @pytest.mark.parametrize("dims", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", KS)
    def test_pseudo_levels(self, dims, k):
        self.check(build_extended_graph(uniform(160, dims, seed=dims), theta=3), k)

    @pytest.mark.parametrize("dims", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", KS)
    def test_mark_deleted(self, dims, k):
        graph = build_extended_graph(uniform(160, dims, seed=dims), theta=4)
        for rid in range(0, 160, 9):
            mark_deleted(graph, rid)
        self.check(graph, k)

    @pytest.mark.parametrize("dims", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", KS)
    def test_where_filtered(self, dims, k):
        graph = build_extended_graph(uniform(160, dims, seed=dims), theta=3)
        self.check(graph, k, where=lambda vector: vector[0] > 400.0)

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("dims", [2, 4])
    @pytest.mark.parametrize("k", KS)
    def test_excluded_rows(self, extended, dims, k):
        """Masked rows keep bounding retirement but never answer."""
        dataset = uniform(160, dims, seed=dims)
        graph = (
            build_extended_graph(dataset, theta=3) if extended
            else build_dominant_graph(dataset)
        )
        snapshot = graph.compile()
        exclude = np.zeros(snapshot.num_records, dtype=bool)
        exclude[::3] = True  # a third of every layer, layer 1 included
        masked = set(snapshot.record_ids[exclude].tolist())
        alive = [rid for rid in graph.real_ids() if rid not in masked]
        for function in self.functions(dims, k):
            scan = naive_top_k_subset(graph.dataset, alive, function, k)
            for result in kernel_results(
                snapshot, function, k, exclude=exclude
            ):
                assert_bit_identical(scan, result)


class TestLastLayerBound:
    """The kernel retires on the last scanned layer's maximum."""

    def test_chunks_tile_the_layers_and_name_their_last_layer(self):
        bounds = build_dominant_graph(uniform(400, 3, seed=8)).compile().layer_bounds()
        edges = bounds.tolist()
        with mock.patch.object(compiled_engine, "_CHUNK_MIN_ROWS", 1):
            schedules = [list(_iter_chunks(bounds, k)) for k in (1, 7, 64)]
        schedules.append(list(_iter_chunks(bounds, 10)))
        for chunks in schedules:
            assert chunks[0][0] == 0 and chunks[-1][1] == edges[-1]
            for (lo, hi, tail), following in zip(chunks, chunks[1:] + [None]):
                assert lo <= tail < hi
                assert hi in edges and tail == edges[edges.index(hi) - 1]
                assert following is None or following[0] == hi
        assert len(schedules[0]) > 1  # the patched target does split layers

    @pytest.mark.parametrize("lane", ["1", "0"])
    def test_read_that_provably_retires_in_chunk_one_scores_only_it(self, lane):
        """A k=10 read costs the first chunk's rows, not two chunks'."""
        dataset = uniform(4000, 3, seed=21)
        graph = build_dominant_graph(dataset)
        snapshot = graph.compile()
        bounds = snapshot.layer_bounds().tolist()
        _lo, first_hi, tail = next(_iter_chunks(snapshot.layer_bounds(), 10))
        assert first_hi < snapshot.num_records
        function = LinearFunction([0.5, 0.3, 0.2])
        scores = function.score_many(snapshot.values)
        kth = np.sort(scores[:first_hi])[-10]
        # Provable: the 10th best of chunk one beats its whole last
        # layer by far more than the float32 margin (~1e-3 here).
        assert kth - scores[tail:first_hi].max() > 1.0
        with mock.patch.dict(os.environ, {FAST_LANE_ENV: lane}):
            result = CompiledBasicTraveler(snapshot).top_k(function, 10)
        assert result.stats.computed == first_hi
        assert first_hi in bounds
        assert_bit_identical(BasicTraveler(graph).top_k(function, 10), result)


class TestSkippedBookkeeping:
    """What the sweep leaves ``None`` until needed, and what it shares."""

    def test_plain_snapshot_has_no_pseudo_layout(self):
        dataset = uniform(300, 3, seed=4)
        graph = build_dominant_graph(dataset)
        snapshot = graph.compile()
        assert snapshot._pseudo_layout() == (None, None)
        assert snapshot.num_pseudo == 0
        function = LinearFunction([0.5, 0.3, 0.2])
        reference = AdvancedTraveler(graph).top_k(function, 10)
        for result in kernel_results(
            CompiledAdvancedTraveler(snapshot), function, 10
        ):
            assert_bit_identical(reference, result)

    @pytest.mark.parametrize("variant", ["extended", "marked"])
    def test_pseudo_rows_bring_the_layout_back(self, variant):
        dataset = uniform(300, 3, seed=4)
        function = LinearFunction([0.5, 0.3, 0.2])
        if variant == "extended":
            graph = build_extended_graph(dataset, theta=4)
        else:
            graph = build_dominant_graph(dataset)
            for record_id in AdvancedTraveler(graph).top_k(function, 6).ids[::2]:
                mark_deleted(graph, record_id)
        snapshot = graph.compile()
        real, prefix = snapshot._pseudo_layout()
        assert real is not None and prefix is not None
        assert np.array_equal(real, ~snapshot.pseudo_mask)
        assert snapshot.num_pseudo == int(snapshot.pseudo_mask.sum()) > 0
        assert int(prefix[-1]) == snapshot.num_pseudo
        reference = AdvancedTraveler(graph).top_k(function, 10)
        for result in kernel_results(
            CompiledAdvancedTraveler(snapshot), function, 10
        ):
            assert_bit_identical(reference, result)
            assert result.stats.pseudo_computed > 0

    def test_reads_on_one_snapshot_charge_the_same_id_array(self):
        snapshot = build_dominant_graph(uniform(4000, 3, seed=21)).compile()
        _lo, first_hi, _tail = next(_iter_chunks(snapshot.layer_bounds(), 10))
        assert first_hi < snapshot.num_records
        first = snapshot.top_k(LinearFunction([0.5, 0.3, 0.2]), 10)
        second = snapshot.top_k(LinearFunction([0.2, 0.3, 0.5]), 3)
        (charged,) = first.stats._id_chunks
        assert charged is second.stats._id_chunks[0]
        assert charged.flags.owndata and not charged.flags.writeable
        assert first.stats.computed == first_hi
        assert first.stats.computed_ids == frozenset(
            snapshot.record_ids[:first_hi].tolist()
        )

    def test_k_past_the_default_schedule_copies_per_call(self):
        snapshot = build_dominant_graph(uniform(4000, 3, seed=21)).compile()
        function = LinearFunction([0.5, 0.3, 0.2])
        snapshot.top_k(function, 10)
        cached = len(snapshot._chunk_ids_cache)
        assert cached >= 1
        deep = compiled_engine._CHUNK_MIN_ROWS + 1
        results = [snapshot.top_k(function, deep) for _ in range(2)]
        assert len(snapshot._chunk_ids_cache) == cached
        assert (
            results[0].stats._id_chunks[0] is not results[1].stats._id_chunks[0]
        )
        assert results[0].ids == results[1].ids and len(results[0]) == deep
        # The cache tiles the snapshot at most once, whatever k asked.
        for k in (1, 50, compiled_engine._CHUNK_MIN_ROWS):
            snapshot.top_k(function, k)
        assert (
            sum(ids.size for ids in snapshot._chunk_ids_cache.values())
            <= snapshot.num_records
        )

    @pytest.mark.parametrize("variant", ["plain", "extended", "empty"])
    def test_cached_schedule_is_the_walked_one(self, variant):
        if variant == "extended":
            snapshot = build_extended_graph(uniform(3000, 3, seed=9), theta=6).compile()
        elif variant == "plain":
            snapshot = build_dominant_graph(uniform(3000, 3, seed=9)).compile()
        else:
            graph = build_dominant_graph(uniform(30, 3, seed=9))
            for record_id in range(30):
                delete_record(graph, record_id)
            snapshot = graph.compile()
        assert (snapshot.num_records == 0) == (variant == "empty")
        bounds = snapshot.layer_bounds()
        for k in (1, 10, 1024, 1025, 5000):
            walked = list(_iter_chunks(bounds, k))
            assert list(snapshot._chunk_schedule(k)) == walked
            assert snapshot._chunk_schedule(k) is snapshot._chunk_schedule(k)
        # Every k up to the row target shares the one default entry.
        assert snapshot._chunk_schedule(1) is snapshot._chunk_schedule(1024)
        assert sorted(snapshot._chunk_schedule_cache) == [1024, 1025, 5000]

    def test_a_new_snapshot_does_not_see_the_old_schedule(self):
        dataset = uniform(3000, 3, seed=9)
        graph = build_dominant_graph(dataset, record_ids=range(2600))
        before = graph.compile()
        old = before._chunk_schedule(10)
        for record_id in range(2600, 3000):
            insert_record(graph, record_id)
        after = graph.compile()
        assert not after._chunk_schedule_cache  # nothing carried over
        new = after._chunk_schedule(10)
        assert new == tuple(_iter_chunks(after.layer_bounds(), 10))
        assert new != old and new[-1][1] == 3000 and old[-1][1] == 2600
        function = LinearFunction([0.5, 0.3, 0.2])
        reference = AdvancedTraveler(graph).top_k(function, 10)
        assert_bit_identical(reference, after.top_k(function, 10))

    @pytest.mark.parametrize("lane", ["1", "0"])
    def test_running_topk_appears_when_a_chunk_must_be_merged(self, lane):
        """Fewer than k answerable rows in chunk one: bank, then merge."""
        dataset = uniform(4000, 3, seed=21)
        graph = build_dominant_graph(dataset)
        snapshot = graph.compile()
        _lo, first_hi, _tail = snapshot._chunk_schedule(10)[0]
        function = LinearFunction([0.5, 0.3, 0.2])
        keep = {tuple(row) for row in snapshot.values[first_hi - 4:first_hi + 400]}

        def where(vector):  # 4 answerable rows in chunk one, k = 10
            return tuple(vector) in keep

        reference = AdvancedTraveler(graph).top_k(function, 10, where)
        with mock.patch.dict(os.environ, {FAST_LANE_ENV: lane}):
            result = snapshot.top_k(function, 10, where=where)
            nothing = snapshot.top_k(function, 10, where=lambda vector: False)
        assert_bit_identical(reference, result)
        assert result.stats.computed > first_hi  # a second chunk was needed
        assert nothing.ids == () and nothing.stats.computed == snapshot.num_records


class TestAccessTallies:
    """What each query is charged, against a from-scratch model.

    The model walks the chunk schedule in exact float64: charge the
    chunk, bank its answerable scores, stop at the first chunk edge
    where ``k`` are banked and the k-th best beats the chunk's last
    layer.  The float64 lane must charge exactly that; the float32 lane
    pads the same test with its margin, so it stops at that edge or a
    later one, never an earlier one.
    """

    QUERIES = 200

    @staticmethod
    def model_stop(snapshot, function, k, answerable):
        scores = function.score_many(snapshot.values)
        banked = np.empty(0, dtype=np.float64)
        stops = []
        for lo, hi, tail in _iter_chunks(snapshot.layer_bounds(), k):
            stops.append(hi)
            banked = np.concatenate([banked, scores[lo:hi][answerable[lo:hi]]])
            if hi < snapshot.num_records and banked.size >= k:
                if np.sort(banked)[-k] > scores[tail:hi].max():
                    break
        return stops

    def check(self, snapshot, results, functions, k, answerable, extra_ids=()):
        prefix = np.concatenate([[0], np.cumsum(snapshot.pseudo_mask)])
        later = 0
        for lane, lane_results in results.items():
            for q, (function, result) in enumerate(zip(functions, lane_results)):
                stops = self.model_stop(snapshot, function, k, answerable)
                scanned = result.stats.computed - len(extra_ids)
                if lane == "0":
                    assert scanned == stops[-1]
                else:
                    assert scanned >= stops[-1]
                    assert scanned in stops or scanned == snapshot.num_records
                    later += scanned > stops[-1]
                assert result.stats.pseudo_computed == int(prefix[scanned])
                charged = np.concatenate(result.stats._id_chunks)
                assert np.array_equal(charged[:scanned], snapshot.record_ids[:scanned])
                assert charged[scanned:].tolist() == list(extra_ids)
                if q % 16 == 0:  # the set view is a Python int per id: sample it
                    assert result.stats.computed_ids == frozenset(charged.tolist())
        assert later <= len(functions) // 20  # the margin rarely matters

    @staticmethod
    def first_attribute_above_0_3(vector):
        return float(vector[0]) > 0.3

    def functions(self, dims):
        rows = np.random.default_rng(17).dirichlet(np.ones(dims), size=self.QUERIES)
        return [LinearFunction(row) for row in rows]

    def both_lanes(self, run):
        results = {}
        for lane in ("1", "0"):
            with mock.patch.dict(os.environ, {FAST_LANE_ENV: lane}):
                results[lane] = run()
        return results

    @pytest.mark.parametrize("k", [10, 1500])
    @pytest.mark.parametrize("variant", ["plain", "extended", "where"])
    def test_kernel_charges_what_the_model_charges(self, variant, k):
        dataset = uniform(5000, 4, seed=11)
        if variant == "extended":
            snapshot = build_extended_graph(dataset, theta=8).compile()
        else:
            snapshot = build_dominant_graph(dataset).compile()
        functions = self.functions(4)
        answerable = ~snapshot.pseudo_mask
        where = self.first_attribute_above_0_3 if variant == "where" else None
        if where is not None:
            answerable = answerable & (snapshot.values[:, 0] > 0.3)
        batch = self.both_lanes(
            lambda: compiled_engine.batch_top_k(snapshot, functions, k, where=where)
        )
        self.check(snapshot, batch, functions, k, answerable)
        some = functions[:25]
        single = self.both_lanes(
            lambda: [snapshot.top_k(f, k, where=where) for f in some]
        )
        self.check(snapshot, single, some, k, answerable)
        for lane in ("1", "0"):
            for alone, swept in zip(single[lane], batch[lane]):
                assert_bit_identical(swept, alone)
                assert alone.stats.computed == swept.stats.computed

    @pytest.mark.parametrize("k", [10, 1500])
    def test_overlay_read_charges_the_base_sweep_then_every_delta_id(self, k):
        dataset = uniform(5200, 4, seed=11)
        graph = build_dominant_graph(dataset, record_ids=range(5000))
        snapshot = graph.compile().detach()
        functions = self.functions(4)
        builder = OverlayBuilder(snapshot)
        for record_id in range(5000, 5040):
            builder.insert(record_id, dataset.values[record_id])
        gone = list(snapshot.top_k(functions[0], 20).ids[::2]) + list(range(100, 120))
        for record_id in gone:
            builder.delete(record_id)
        overlay = builder.freeze()
        answerable = ~overlay.deleted_mask(snapshot.num_records)
        results = self.both_lanes(
            lambda: overlay_batch_top_k(snapshot, overlay, functions, k)
        )
        for result in results["1"]:  # base chunks first, the delta ids last
            charged = result.stats._id_chunks
            assert len(charged) >= 2
            assert np.array_equal(charged[-1], overlay.delta_ids)
        self.check(
            snapshot, results, functions, k, answerable,
            extra_ids=overlay.delta_ids.tolist(),
        )


# Hypothesis sweep: small integer-grid blocks (ties and duplicates are
# frequent) with occasional sub-float32 perturbations.
tie_heavy_blocks = st.integers(min_value=2, max_value=4).flatmap(
    lambda dims: arrays(
        np.float64,
        st.tuples(st.integers(min_value=1, max_value=36), st.just(dims)),
        elements=st.sampled_from(
            [0.0, 1.0, 2.0, 3.0, 1.0 + SUB_F32_GAP, 2.0 - SUB_F32_GAP]
        ),
    )
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    block=tie_heavy_blocks,
    k=st.integers(min_value=1, max_value=12),
    weight_seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_fast_lane_matches_reference(block, k, weight_seed):
    graph = build_dominant_graph(Dataset(block))
    snapshot = graph.compile()
    dims = block.shape[1]
    weights = np.random.default_rng(weight_seed).dirichlet(np.ones(dims))
    for function in (LinearFunction(weights), MinFunction()):
        reference = BasicTraveler(graph).top_k(function, k)
        for result in kernel_results(
            CompiledBasicTraveler(snapshot), function, k
        ):
            assert_bit_identical(reference, result)
            assert_canonical_tie_order(result)


class TestMargin:
    def test_margin_covers_observed_float32_error(self):
        """The proven bound must dominate the measured error, with room."""
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 1000.0, size=(4096, 5))
        weights = rng.dirichlet(np.ones(5), size=8)
        exact = values @ weights.T
        approx = (
            values.astype(np.float32) @ weights.T.astype(np.float32)
        ).astype(np.float64)
        margin = _f32_margin(
            5, np.abs(weights).sum(axis=1), float(np.abs(values).max())
        )
        assert np.all(np.abs(exact - approx) <= margin[None, :])

    def test_margin_grows_with_dims_and_scale(self):
        sums = np.asarray([1.0])
        assert _f32_margin(8, sums, 1.0) > _f32_margin(2, sums, 1.0)
        assert _f32_margin(2, sums, 100.0) > _f32_margin(2, sums, 1.0)

    def test_round_down_never_rounds_up(self):
        for value in (0.1, 1.0 + 1e-9, -0.3, 1e-40, 7.25, np.pi):
            rounded = _f32_round_down(value)
            assert float(rounded) <= value
            assert float(np.nextafter(rounded, np.float32(np.inf))) > value


class TestNativeFlag:
    @pytest.fixture(autouse=True)
    def fresh_kernel_state(self):
        native.reset()
        yield
        native.reset()

    def test_flag_off_means_no_kernel(self):
        with mock.patch.dict(os.environ, {native.NATIVE_ENV: ""}):
            assert not native.requested()
            assert native.kernel() is None

    def test_requested_kernel_is_exact_or_warns_and_falls_back(self):
        """Both sides of the [native] extra, decided by the environment.

        With numba importable the kernel must activate and stay
        bit-identical to the reference; without it the first query warns
        (once) and the numpy lane answers, still bit-identically.
        """
        graph = build_dominant_graph(uniform(200, 3, seed=1))
        snapshot = graph.compile()
        function = LinearFunction([0.5, 0.3, 0.2])
        reference = BasicTraveler(graph).top_k(function, 10)
        with mock.patch.dict(os.environ, {native.NATIVE_ENV: "1"}):
            assert native.requested()
            if native.available():
                result = CompiledBasicTraveler(snapshot).top_k(function, 10)
                assert native.status()["active"]
            else:
                with pytest.warns(RuntimeWarning, match="falling back"):
                    result = CompiledBasicTraveler(snapshot).top_k(function, 10)
                assert not native.status()["active"]
                # The unavailability latch must make later queries silent.
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    again = CompiledBasicTraveler(snapshot).top_k(function, 10)
                assert_bit_identical(reference, again)
            with layer_chunks():  # the kernel's tail guard, chunk by chunk
                layered = CompiledBasicTraveler(snapshot).top_k(function, 10)
        assert_bit_identical(reference, result)
        assert_bit_identical(reference, layered)

    def test_native_chunk_matches_the_numpy_chunk_on_the_tail_bound(self):
        """Same scores, and the maximum is over the last layer only."""
        pytest.importorskip("numba")
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 100.0, size=(300, 4)).astype(np.float32)
        # Best rows first, as in a layered snapshot: a maximum taken over
        # the whole chunk would differ from the last layer's.
        values = values[np.argsort(-values.sum(axis=1))]
        weights = rng.dirichlet(np.ones(4), size=3).astype(np.float32)
        with mock.patch.dict(os.environ, {native.NATIVE_ENV: "1"}):
            kernel = native.kernel()
        assert kernel is not None
        for lo, hi, tail in ((0, 300, 0), (40, 300, 170), (40, 171, 170)):
            scores, maxima = kernel.score_chunk(values, weights, lo, hi, tail)
            expected = weights @ values[lo:hi].T
            assert scores.shape == expected.shape
            np.testing.assert_allclose(scores, expected, rtol=1e-5)
            np.testing.assert_allclose(
                maxima, expected[:, tail - lo:].max(axis=1), rtol=1e-5
            )

    def test_status_reports_all_three_signals(self):
        with mock.patch.dict(os.environ, {native.NATIVE_ENV: ""}):
            status = native.status()
        assert set(status) == {"requested", "importable", "active"}
        assert status["requested"] is False
        assert status["active"] is False
