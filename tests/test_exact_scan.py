"""One exact scan behind every full-scan entry point.

:func:`repro.core.result.exact_top_k` answers the naive baseline, the
guard's naive tier, the serving index's snapshot scan and the fabric's
shard scan.  Each entry is held here to a per-record reference, not to
the routine itself: :func:`tests.conftest.brute_force_scores` for the
score multiset and a Python sort of ``(-F(x), id)`` for the ids, over
the rows the entry should cover.  The cases are tie-heavy integer grids
with exact duplicates, ``k >= n``, empty id sets, ``where`` masks of
selectivity 0 and in between, overlays with deletions and delta rows,
and shard scans merged over one to four shards.

Two clock-free checks pin the routine's order of work: a budget refuses
the scan before ``score_many`` runs, and only ``k`` rows plus the ties
on the k-th score reach ``lexsort``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_top_k, naive_top_k_subset
from repro.core.builder import build_dominant_graph, build_extended_graph
from repro.core.dataset import Dataset
from repro.core.functions import LinearFunction, MinFunction
from repro.core.guard import BudgetedAccessCounter, run_query
from repro.core.maintenance import OverlayBuilder
from repro.errors import QueryBudgetExceeded
from repro.parallel.executor import merge_shard_results
from repro.parallel.worker import shard_scan
from repro.serve.index import snapshot_scan
from tests.conftest import brute_force_scores


def reference(dataset: Dataset, ids, function, k: int, where=None) -> tuple:
    """``(ids, scores)`` of the top ``k`` of ``ids``, record by record."""
    kept = [rid for rid in ids if where is None or where(dataset.values[rid])]
    if not kept:
        return (), ()
    ranked = sorted(kept, key=lambda rid: (-function(dataset.values[rid]), rid))
    scores = brute_force_scores(Dataset(dataset.values[kept]), function, k)
    return tuple(ranked[:k]), tuple(scores)


def sharded(compiled, function, k: int, shards: int, where=None):
    """Every shard's scan of ``compiled``, merged as the executor merges."""
    snapshot = SimpleNamespace(compiled=compiled)
    return merge_shard_results(
        [
            shard_scan(snapshot, function, k, where=where,
                       shard_index=index, shard_count=shards)
            for index in range(shards)
        ],
        k,
    )


def assert_answers(result, expected: tuple) -> None:
    assert (result.ids, result.scores) == expected


@st.composite
def scan_cases(draw):
    dims = draw(st.integers(2, 4))
    n = draw(st.integers(1, 30))
    levels = draw(st.sampled_from([1, 2, 3, 6]))
    values = draw(
        st.lists(
            st.lists(st.integers(0, levels), min_size=dims, max_size=dims),
            min_size=n, max_size=n,
        )
    )
    dataset = Dataset(values)
    base_count = draw(st.integers(1, n))
    inserts = draw(st.sets(st.integers(base_count, n - 1))) if base_count < n else set()
    deletes = draw(st.sets(st.integers(0, base_count - 1)))
    if draw(st.booleans()):
        function = MinFunction()
    else:
        function = LinearFunction(
            draw(st.lists(st.integers(1, 3), min_size=dims, max_size=dims))
        )
    selectivity = draw(st.sampled_from(["all", "none", "partial"]))
    threshold = draw(st.integers(0, levels))
    where = {
        "all": None,
        "none": lambda vector: False,
        "partial": lambda vector: vector[0] >= threshold,
    }[selectivity]
    return SimpleNamespace(
        dataset=dataset,
        base_ids=list(range(base_count)),
        inserts=sorted(inserts),
        deletes=sorted(deletes),
        function=function,
        k=draw(st.integers(1, n + 3)),
        where=where,
        extended=draw(st.booleans()),
        shards=draw(st.integers(1, 4)),
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=scan_cases())
def test_every_scan_entry_matches_the_per_record_reference(case):
    dataset, function, k, where = case.dataset, case.function, case.k, case.where
    build = build_extended_graph if case.extended else build_dominant_graph
    kwargs = {"theta": 2} if case.extended else {}
    graph = build(dataset, record_ids=case.base_ids, **kwargs)
    base = graph.compile().detach()
    builder = OverlayBuilder(base)
    for rid in case.inserts:
        builder.insert(rid, dataset.values[rid])
    for rid in case.deletes:
        builder.delete(rid)
    overlay = builder.freeze()
    alive = sorted(set(case.base_ids) - set(case.deletes) | set(case.inserts))

    # The overlay's record set: base minus deletions plus delta rows.
    expected = reference(dataset, alive, function, k, where)
    subset = naive_top_k_subset(dataset, alive, function, k, where=where)
    assert_answers(subset, expected)
    assert subset.algorithm == "naive-scan"
    assert subset.stats.computed == len(alive)
    scan = snapshot_scan(base, function, k, where=where, overlay=overlay)
    assert_answers(scan, expected)
    assert scan.algorithm == "snapshot-scan"
    assert scan.stats.computed == len(alive)

    # The base alone: the guard's naive tier and the merged shard scans.
    expected = reference(dataset, case.base_ids, function, k, where)
    guarded = run_query(graph, function, k, engine="naive", where=where)
    assert_answers(guarded, expected)
    assert guarded.tier == "naive"
    merged = sharded(base, function, k, case.shards, where=where)
    assert_answers(merged, expected)
    assert merged.stats.computed == base.num_records
    assert merged.stats.pseudo_computed == base.num_pseudo
    assert_answers(snapshot_scan(base, function, k, where=where), expected)

    # Every row of the dataset, no predicate: the naive baseline.
    full = naive_top_k(dataset, function, k)
    assert_answers(full, reference(dataset, range(len(dataset)), function, k))
    assert full.stats.computed == len(dataset)


def test_empty_scans_answer_nothing():
    dataset = Dataset(np.arange(12.0).reshape(6, 2))
    function = LinearFunction([1.0, 2.0])
    graph = build_dominant_graph(dataset)
    base = graph.compile().detach()
    builder = OverlayBuilder(base)
    for rid in range(len(dataset)):
        builder.delete(rid)
    never = lambda vector: False  # noqa: E731

    assert naive_top_k_subset(dataset, [], function, 3).ids == ()
    assert snapshot_scan(base, function, 3, overlay=builder.freeze()).ids == ()
    assert snapshot_scan(base, function, 3, where=never).ids == ()
    assert run_query(graph, function, 3, engine="naive", where=never).ids == ()
    for shards in (1, 4, 8):  # 8 shards leave two of them empty
        assert sharded(base, function, 3, shards, where=never).ids == ()


def test_a_budget_refuses_the_scan_before_scoring():
    """A degraded read whose budget is already spent pays no scoring."""

    class CountingFunction(LinearFunction):
        calls = 0

        def score_many(self, block):
            CountingFunction.calls += 1
            return super().score_many(block)

    dataset = Dataset(np.random.default_rng(3).uniform(0, 1, (500, 3)))
    base = build_dominant_graph(dataset).compile().detach()
    function = CountingFunction([0.5, 0.3, 0.2])
    with pytest.raises(QueryBudgetExceeded):
        snapshot_scan(
            base, function, 10,
            stats=BudgetedAccessCounter(max_records=len(dataset) - 1),
        )
    assert CountingFunction.calls == 0
    snapshot_scan(base, function, 10)
    assert CountingFunction.calls == 1


@pytest.fixture
def lexsorted_rows(monkeypatch):
    """Lengths of the key arrays of every ``np.lexsort`` call."""
    sizes: list = []
    lexsort = np.lexsort

    def recording(keys, *args, **kwargs):
        sizes.append(len(keys[0]))
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", recording)
    return sizes


@pytest.mark.parametrize("ties", [False, True])
def test_only_the_kth_score_and_better_reach_lexsort(lexsorted_rows, ties):
    """k = 10 rows go to ``lexsort`` when scores are distinct, every row
    when they all tie: the cut keeps every tie on the k-th score."""
    n, k = 2000, 10
    values = np.random.default_rng(4).uniform(0, 1, (n, 3))
    if ties:
        values[:] = values[0]
    dataset = Dataset(values)
    graph = build_dominant_graph(dataset)
    base = graph.compile().detach()
    function = LinearFunction([0.5, 0.3, 0.2])
    scans = {
        "naive_top_k": lambda: naive_top_k(dataset, function, k),
        "naive_top_k_subset": lambda: naive_top_k_subset(
            dataset, range(n), function, k
        ),
        # A fresh snapshot, so the count sees the scan, not the compile
        # (which sorts every row into layer order once).
        "guard naive tier": lambda: run_query(
            graph, function, k, engine="naive", snapshot=base
        ),
        "snapshot_scan": lambda: snapshot_scan(base, function, k),
        "shard_scan": lambda: shard_scan(
            SimpleNamespace(compiled=base), function, k
        ),
    }
    for name, scan in scans.items():
        lexsorted_rows.clear()
        scan()
        assert lexsorted_rows == [n if ties else k], name
