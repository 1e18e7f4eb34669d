"""Unit tests for metrics (counters, timing) and the TopKResult type."""

import pickle
import time

import pytest

from repro.core.result import TopKResult
from repro.metrics.counters import AccessCounter
from repro.metrics.timing import Timer


class TestAccessCounter:
    def test_count_computed(self):
        counter = AccessCounter()
        counter.count_computed(5)
        counter.count_computed(7, pseudo=True)
        assert counter.computed == 2
        assert counter.pseudo_computed == 1
        assert counter.computed_ids == frozenset({5, 7})

    def test_computed_without_id(self):
        counter = AccessCounter()
        counter.count_computed()
        assert counter.computed == 1
        assert counter.computed_ids == frozenset()

    def test_sequential_and_random(self):
        counter = AccessCounter()
        counter.count_sequential(3)
        counter.count_random()
        counter.count_examined(2)
        assert (counter.sequential, counter.random, counter.examined) == (3, 1, 2)

    def test_accessed_property(self):
        counter = AccessCounter()
        counter.count_computed(1)
        counter.count_sequential(10)
        assert counter.accessed == 1

    def test_merge(self):
        a, b = AccessCounter(), AccessCounter()
        a.count_computed(1)
        b.count_computed(2, pseudo=True)
        b.count_random(4)
        a.merge(b)
        assert a.computed == 2 and a.pseudo_computed == 1 and a.random == 4
        assert a.computed_ids == frozenset({1, 2})

    def test_reset(self):
        counter = AccessCounter()
        counter.count_computed(1)
        counter.count_sequential(5)
        counter.reset()
        assert counter.computed == 0
        assert counter.sequential == 0
        assert counter.computed_ids == frozenset()


class TestTimer:
    def test_context_manager(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009

    def test_start_stop(self):
        t = Timer()
        t.start()
        time.sleep(0.005)
        elapsed = t.stop()
        assert elapsed >= 0.004
        assert t.elapsed == elapsed

    def test_stop_without_start_asserts(self):
        with pytest.raises(AssertionError):
            Timer().stop()


class TestTopKResult:
    def _stats(self):
        counter = AccessCounter()
        counter.count_computed(0)
        return counter

    def test_from_pairs(self):
        result = TopKResult.from_pairs([(3.0, 7), (1.0, 2)], self._stats(), "x")
        assert result.ids == (7, 2)
        assert result.scores == (3.0, 1.0)
        assert result.algorithm == "x"

    def test_rejects_increasing_scores(self):
        with pytest.raises(ValueError, match="non-increasing"):
            TopKResult(ids=(1, 2), scores=(1.0, 2.0), stats=self._stats())

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            TopKResult(ids=(1,), scores=(1.0, 2.0), stats=self._stats())

    def test_iteration(self):
        result = TopKResult.from_pairs([(3.0, 7), (1.0, 2)], self._stats())
        assert list(result) == [(7, 3.0), (2, 1.0)]

    def test_id_set(self):
        result = TopKResult.from_pairs([(3.0, 7), (1.0, 2)], self._stats())
        assert result.id_set == frozenset({2, 7})

    def test_score_multiset_sorted_desc(self):
        result = TopKResult.from_pairs([(3.0, 7), (3.0, 2), (1.0, 4)], self._stats())
        assert result.score_multiset() == (3.0, 3.0, 1.0)

    def test_repr_preview(self):
        result = TopKResult.from_pairs([(3.0, 7)], self._stats(), "alg")
        assert "alg" in repr(result)
        assert "7:3" in repr(result)

    def test_equality_ignores_stats(self):
        a = TopKResult.from_pairs([(3.0, 7)], self._stats())
        other_stats = AccessCounter()
        other_stats.count_computed(1)
        other_stats.count_computed(2)
        b = TopKResult.from_pairs([(3.0, 7)], other_stats)
        assert a == b


class TestServedBy:
    """``served_by`` stamps tier/epoch on a copy that shares the answer."""

    def _result(self):
        counter = AccessCounter()
        counter.count_computed(7)
        return TopKResult.from_pairs([(3.0, 7), (1.0, 2)], counter, "alg")

    def test_stamps_tier_and_epoch_and_shares_the_answer(self):
        original = self._result()
        served = original.served_by("compiled", 4)
        assert (served.tier, served.epoch) == ("compiled", 4)
        assert served == original
        assert served is not original
        assert served.ids is original.ids
        assert served.scores is original.scores
        assert served.stats is original.stats
        assert served.algorithm == "alg"

    def test_original_is_untouched(self):
        original = self._result()
        original.served_by("naive", 9)
        assert (original.tier, original.epoch) == ("", -1)

    def test_epoch_none_keeps_the_epoch(self):
        served = self._result().served_by("compiled", 3)
        restamped = served.served_by("naive")
        assert (restamped.tier, restamped.epoch) == ("naive", 3)
        assert (served.tier, served.epoch) == ("compiled", 3)

    def test_served_result_stays_frozen_and_pickles_equal(self):
        served = self._result().served_by("compiled", 2)
        with pytest.raises(AttributeError):
            served.tier = "naive"
        clone = pickle.loads(pickle.dumps(served))
        assert clone == served
        assert (clone.tier, clone.epoch, clone.algorithm) == ("compiled", 2, "alg")
        assert clone.stats.computed == served.stats.computed

    def test_direct_construction_still_validates(self):
        with pytest.raises(ValueError, match="non-increasing"):
            TopKResult(
                ids=(1, 2), scores=(1.0, 2.0), stats=AccessCounter(),
                tier="compiled", epoch=1,
            )
