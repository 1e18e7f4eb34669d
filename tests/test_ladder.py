"""Every rung of the degradation ladder, reached by fault injection.

:func:`repro.core.guard.ladder_top_k` is the one ladder behind
``ServingIndex.query``, the in-process half of ``query_batch`` and
``run_query``: the compiled kernel behind the ``tier:compiled`` breaker
and the index's retry policy, then :func:`snapshot_scan`.  Each test
runs single reads and batches, over a bare base and over a live delta
overlay, and drives one rung or one rule of the exception policy:

- a kernel fault (patched kernel, or a :class:`FlakyFunction` striking
  mid-sweep) degrades to the scan, charging the breaker once per call;
- an open breaker skips the kernel without running it;
- a budget or deadline tripping inside the scan raises with
  ``.tier == "naive"``;
- ``fallback=False`` propagates the fault;
- the fabric rung in front of a batch: an open ``fabric`` breaker, or a
  failing fabric, falls to the in-process ladder (a stub fabric, so no
  worker process starts).

Degraded answers must equal the snapshot's own scan: same ids, same
scores, same epoch.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

import repro.core.guard as guard
from repro.core.builder import build_dominant_graph
from repro.core.dataset import Dataset
from repro.core.functions import LinearFunction
from repro.core.guard import ladder_top_k
from repro.data.generators import uniform
from repro.errors import DeadlineExceeded, DegradedResultWarning, QueryBudgetExceeded
from repro.serve.index import ServingIndex, snapshot_scan
from repro.testing.faults import FlakyFunction
from tests.conftest import layer_chunks

N = 400
K = 5
FUNCTIONS = [
    LinearFunction(row)
    for row in np.random.default_rng(3).dirichlet(np.ones(3), size=4)
]

MODES = pytest.mark.parametrize("mode", ["single", "batch"])


def make_index(directory: str, overlay: bool) -> ServingIndex:
    """An uncached index over ``N`` records.  With ``overlay``, ten inserts
    and the deletion of every function's base top three are parked in a
    live delta overlay; three of the inserts rank first for every
    function, so a rung that ignored either half would answer wrong."""
    values = uniform(N + 10, 3, seed=11).values.copy()
    values[N:N + 3] = 0.99 + 0.01 * values[N:N + 3]
    graph = build_dominant_graph(Dataset(values), record_ids=range(N))
    index = ServingIndex.create(directory, graph, fsync="batch", cache_size=0)
    if overlay:
        base = index.snapshot().compiled
        doomed = {
            record_id
            for function in FUNCTIONS
            for record_id in snapshot_scan(base, function, 3).ids
        }
        for record_id in range(N, N + 10):
            index.insert(record_id)
        for record_id in sorted(doomed):
            index.delete(record_id)
        overlaid = index.snapshot().overlay
        assert overlaid is not None
        for function in FUNCTIONS:
            assert (
                snapshot_scan(base, function, K, overlay=overlaid).ids
                != snapshot_scan(base, function, K).ids
            )
    return index


@pytest.fixture(params=[False, True], ids=["base", "overlay"])
def index(request, tmp_path):
    served = make_index(str(tmp_path / "serve"), request.param)
    yield served
    served.close(checkpoint=False)


def ask(index: ServingIndex, mode: str, functions, **kwargs):
    """Answer ``functions`` as single reads or as one batch."""
    if mode == "single":
        return [index.query(function, K, **kwargs) for function in functions]
    return index.query_batch(functions, K, **kwargs)


def assert_scanned(index: ServingIndex, results, functions) -> None:
    """Each result came from the scan rung and equals the snapshot's scan."""
    snap = index.snapshot()
    for result, function in zip(results, functions, strict=True):
        inner = getattr(function, "inner", function)
        oracle = snapshot_scan(snap.compiled, inner, K, overlay=snap.overlay)
        assert result.tier == "naive"
        assert result.algorithm == "snapshot-scan"
        assert result.epoch == snap.epoch
        assert result.ids == oracle.ids
        assert result.scores == oracle.scores


def compiled_breaker(index: ServingIndex) -> dict:
    return index.health()["breakers"]["tier:compiled"]


@pytest.fixture
def broken_kernel(monkeypatch):
    """Make both kernel entry points the ladder calls raise; returns the
    list of calls they received."""
    calls: list = []

    def broken(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("injected kernel fault")

    monkeypatch.setattr(guard, "batch_top_k", broken)
    monkeypatch.setattr(guard, "overlay_batch_top_k", broken)
    return calls


@MODES
def test_kernel_fault_degrades_to_the_scan(index, mode, broken_kernel):
    functions = FUNCTIONS[:2]  # two single reads stay under min_calls
    with pytest.warns(DegradedResultWarning, match="compiled tier failed") as record:
        results = ask(index, mode, functions)
    # Attributed to the code that asked, not to a frame inside the index.
    assert {warning.filename for warning in record} == {__file__}
    assert_scanned(index, results, functions)
    ladder_calls = len(functions) if mode == "single" else 1
    # Retried once per call (the default query_retries=1), charged once.
    assert len(broken_kernel) == 2 * ladder_calls
    assert compiled_breaker(index)["window_failures"] == ladder_calls


@MODES
def test_mid_traversal_fault_degrades_to_the_scan(index, mode):
    """The flaky function scores one layer chunk, then fails the rest of
    that attempt and the retry; the scan then answers."""
    flaky = FlakyFunction(FUNCTIONS[0], times=2, after=1)
    functions = [flaky, *FUNCTIONS[1:]]
    with layer_chunks(), pytest.warns(DegradedResultWarning):
        results = ask(index, mode, [flaky] if mode == "single" else functions)
    assert flaky.successes_before_failure == 0
    assert flaky.faults_raised == 2
    assert_scanned(index, results, [flaky] if mode == "single" else functions)


@MODES
def test_transient_fault_is_retried_not_degraded(index, mode):
    flaky = FlakyFunction(FUNCTIONS[0], times=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegradedResultWarning)
        results = ask(index, mode, [flaky, *FUNCTIONS[1:]])
    assert flaky.faults_raised == 1
    assert {result.tier for result in results} == {"compiled"}
    assert compiled_breaker(index)["window_failures"] == 0


@MODES
def test_open_breaker_skips_to_the_scan(index, mode, broken_kernel):
    breaker = index._compiled_breaker
    for _ in range(breaker.min_calls):
        breaker.record_failure()
    assert breaker.state == "open"
    with pytest.warns(DegradedResultWarning, match="circuit breaker is open"):
        results = ask(index, mode, FUNCTIONS)
    assert broken_kernel == []  # skipped, never run
    assert_scanned(index, results, FUNCTIONS)


@MODES
def test_budget_trips_inside_the_scan(index, mode, broken_kernel, monkeypatch):
    """A budget the kernel never reached trips in the scan, which charges
    every candidate before scoring: ``.tier`` names the scan rung."""
    if mode == "single":
        with pytest.warns(DegradedResultWarning):
            with pytest.raises(QueryBudgetExceeded) as excinfo:
                index.query(FUNCTIONS[0], K, budget_records=10)
        assert excinfo.value.kind == "records"
    else:
        # The batch path takes no budgets, only a deadline: a kernel that
        # fails after the deadline passed leaves the scan to notice.
        def slow_then_broken(*args, **kwargs):
            time.sleep(0.3)
            raise RuntimeError("injected kernel fault")

        monkeypatch.setattr(guard, "batch_top_k", slow_then_broken)
        monkeypatch.setattr(guard, "overlay_batch_top_k", slow_then_broken)
        with pytest.warns(DegradedResultWarning):
            with pytest.raises(DeadlineExceeded) as excinfo:
                index.query_batch(FUNCTIONS, K, deadline_ms=250)
        assert excinfo.value.kind == "time"
    assert excinfo.value.tier == "naive"
    # Budget trips are the request's verdict: the scan charges no breaker.
    assert compiled_breaker(index)["window_failures"] == 1


def test_a_record_budget_binds_every_scan_of_a_batch(index):
    snap = index.snapshot()
    with pytest.raises(QueryBudgetExceeded) as excinfo:
        ladder_top_k(
            snap.compiled, snap.overlay, FUNCTIONS, K,
            budget_records=10, compiled_rung=False,
        )
    assert (excinfo.value.kind, excinfo.value.tier) == ("records", "naive")


@MODES
def test_fallback_false_propagates_the_fault(index, mode, broken_kernel):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegradedResultWarning)
        with pytest.raises(RuntimeError, match="injected kernel fault"):
            if mode == "single":
                index.query(FUNCTIONS[0], K, fallback=False)
            else:
                snap = index.snapshot()
                ladder_top_k(
                    snap.compiled, snap.overlay, FUNCTIONS, K,
                    breaker=index._compiled_breaker,
                    fallback=False,
                )
    assert compiled_breaker(index)["window_failures"] == 1


class StubFabric:
    """Stands in for the worker fabric; fails every batch it is handed."""

    def __init__(self) -> None:
        self.calls = 0

    def map_queries(self, *args, **kwargs):
        self.calls += 1
        raise RuntimeError("injected fabric fault")


@pytest.fixture
def fabric_index(tmp_path):
    served = make_index(str(tmp_path / "serve"), overlay=False)
    stub = StubFabric()
    served._fabric = stub
    yield served, stub
    served._fabric = None
    served.close(checkpoint=False)


def test_open_fabric_breaker_skips_to_the_ladder(fabric_index):
    index, stub = fabric_index
    breaker = index._breakers.get("fabric")
    for _ in range(breaker.min_calls):
        breaker.record_failure()
    with pytest.warns(DegradedResultWarning, match="fabric skipped"):
        results = index.query_batch(FUNCTIONS, K)
    assert stub.calls == 0
    assert {result.tier for result in results} == {"compiled"}


def test_fabric_fault_falls_to_the_ladder(fabric_index):
    index, stub = fabric_index
    with pytest.warns(DegradedResultWarning, match="fabric batch failed"):
        results = index.query_batch(FUNCTIONS, K)
    assert stub.calls == 1
    assert {result.tier for result in results} == {"compiled"}
    clean = [index.query(function, K) for function in FUNCTIONS]
    assert [result.ids for result in results] == [result.ids for result in clean]
