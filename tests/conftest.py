"""Shared fixtures and assertion helpers for the test suite."""

from __future__ import annotations

import contextlib
import faulthandler
import os
from unittest import mock

import numpy as np
import pytest

from repro.core import compiled as compiled_engine
from repro.core.dataset import Dataset
from repro.core.functions import LinearFunction
from repro.core.result import TopKResult

#: Per-test wall-clock deadline in seconds, enabled by setting the
#: ``REPRO_TEST_DEADLINE`` environment variable (the CI concurrency job
#: sets it).  A deadlocked interleaving then dumps every thread's
#: traceback and kills the run instead of hanging the suite forever —
#: a dependency-free stand-in for pytest-timeout, which the local
#: toolchain does not ship.
_DEADLINE = float(os.environ.get("REPRO_TEST_DEADLINE", "0") or 0)

if _DEADLINE > 0:

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(item, nextitem):
        faulthandler.dump_traceback_later(_DEADLINE, exit=True)
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


def one_layer_per_chunk(bounds, k):
    """Stand-in for ``repro.core.compiled._iter_chunks``: one layer a chunk."""
    for layer in range(len(bounds) - 1):
        lo, hi = int(bounds[layer]), int(bounds[layer + 1])
        yield lo, hi, lo


@contextlib.contextmanager
def layer_chunks():
    """Run the compiled kernel with one layer per chunk.

    Every layer edge becomes a retirement point, the hardest schedule
    for the kernel's last-layer bound.  The stock schedule swallows the
    suites' few-hundred-record fixtures in its first chunk, where
    nothing can retire early, so the parity sweeps repeat each query
    under this one.
    """
    def schedule(snapshot, k):  # uncached: gone when the patch is
        return tuple(one_layer_per_chunk(snapshot.layer_bounds(), k))

    with mock.patch.object(
        compiled_engine.CompiledDG, "_chunk_schedule", schedule
    ):
        yield


@pytest.fixture
def small_dataset() -> Dataset:
    """Hand-checkable 2-d dataset with known layers.

    Layers (max-preferring):
      L1 = {0 (4,1), 1 (1,4), 4 (3,3)}
      L2 = {2 (2,2), 5 (0.5, 3.5)}  -- wait, see test_layers for the
      derivation; values chosen so every test can verify by hand.
    """
    return Dataset(
        [
            [4.0, 1.0],   # 0: maximal
            [1.0, 4.0],   # 1: maximal
            [2.0, 2.0],   # 2: dominated by 4 -> layer 2
            [0.5, 0.5],   # 3: dominated by 2 -> layer 3
            [3.0, 3.0],   # 4: maximal
            [0.5, 3.5],   # 5: dominated by 1 -> layer 2
        ]
    )


@pytest.fixture
def running_example() -> Dataset:
    """The quickstart's 13-record dataset (spirit of the paper's Fig. 1)."""
    rows = [
        (150.0, 400.0), (200.0, 250.0), (300.0, 380.0), (350.0, 300.0),
        (180.0, 350.0), (250.0, 270.0), (100.0, 200.0), (120.0, 330.0),
        (260.0, 150.0), (90.0, 120.0), (80.0, 390.0), (140.0, 210.0),
        (60.0, 60.0),
    ]
    return Dataset(rows, labels=[f"TID{i + 1}" for i in range(len(rows))])


@pytest.fixture
def linear2() -> LinearFunction:
    return LinearFunction([0.6, 0.4])


def brute_force_scores(dataset: Dataset, function, k: int) -> list:
    """Reference top-k score multiset, descending."""
    scores = sorted(function.score_many(dataset.values), reverse=True)
    return scores[:k]


def assert_correct_topk(
    result: TopKResult, dataset: Dataset, function, k: int
) -> None:
    """Assert a result matches brute force up to score ties."""
    expected = brute_force_scores(dataset, function, min(k, len(dataset)))
    got = sorted(result.scores, reverse=True)
    assert len(got) == len(expected), (
        f"{result.algorithm}: expected {len(expected)} answers, got {len(got)}"
    )
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)
