"""Unit tests for the skyline algorithm suite.

All seven algorithms must return exactly the maximal set of any block;
each also has algorithm-specific tests for its own machinery.
"""

import numpy as np
import pytest

from repro.core.dominance import dominates, maximal_mask
from repro.data.generators import all_skyline, anticorrelated, correlated, uniform
from repro.data.server import server_dataset
from repro.skyline import ALGORITHMS, as_mask_function
from repro.skyline.bnl import bnl_skyline
from repro.skyline.dnc import dnc_skyline
from repro.skyline.nn import nn_skyline
from repro.skyline.bbs import bbs_skyline
from repro.spatial.rtree import RTree


def brute_skyline(values):
    return sorted(
        i
        for i in range(len(values))
        if not any(dominates(values[j], values[i]) for j in range(len(values)) if j != i)
    )


WORKLOADS = [
    ("uniform-2d", lambda: uniform(120, 2, seed=1).values),
    ("uniform-3d", lambda: uniform(120, 3, seed=2).values),
    ("correlated", lambda: correlated(120, 3, seed=3).values),
    ("anticorrelated", lambda: anticorrelated(80, 3, seed=4).values),
    ("ties", lambda: server_dataset(100, seed=5).values),
    ("antichain", lambda: all_skyline(60, 3, seed=6).values),
]


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("workload,make", WORKLOADS)
def test_matches_bruteforce(name, workload, make):
    if name == "nn" and workload == "anticorrelated":
        pytest.skip("NN's region recursion is exponential on wide skylines")
    values = make()
    got = sorted(int(i) for i in ALGORITHMS[name](values))
    assert got == brute_skyline(values), f"{name} wrong on {workload}"


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_single_row(name):
    values = np.array([[1.0, 2.0]])
    assert list(ALGORITHMS[name](values)) == [0]


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_all_duplicates(name):
    values = np.ones((6, 2))
    assert sorted(int(i) for i in ALGORITHMS[name](values)) == list(range(6))


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_total_order(name):
    values = np.array([[float(i)] * 3 for i in range(8)])
    assert list(ALGORITHMS[name](values)) == [7]


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_dominator_with_an_equal_float_sum(name):
    # 1e16 + 0.25 == 1e16 + 0.5 in float64; the sort-filter order (and the
    # algorithms that finish with it) must still visit the dominator first,
    # and NN's "strictly below every record" corner must be below 1e16.
    for values, expected in (
        ([[1e16, 0.25], [1e16, 0.5]], [1]),
        ([[1e16, 1.0], [1e16, 2.0], [1e16 + 2, 0.0]], [1, 2]),
    ):
        assert sorted(ALGORITHMS[name](np.array(values))) == expected


def test_as_mask_function(rng):
    values = rng.uniform(size=(50, 2))
    mask = as_mask_function(ALGORITHMS["sfs"])(values)
    np.testing.assert_array_equal(mask, maximal_mask(values))


class TestBNLSpecifics:
    def test_small_window_forces_multiple_passes(self, rng):
        values = anticorrelated(80, 2, seed=7).values  # wide skyline
        got = sorted(int(i) for i in bnl_skyline(values, window_size=4))
        assert got == brute_skyline(values)

    def test_window_of_one(self, rng):
        values = rng.uniform(size=(40, 2))
        got = sorted(int(i) for i in bnl_skyline(values, window_size=1))
        assert got == brute_skyline(values)

    def test_rejects_zero_window(self):
        with pytest.raises(ValueError):
            bnl_skyline(np.ones((2, 2)), window_size=0)


class TestDnCSpecifics:
    def test_small_cutoff_forces_recursion(self, rng):
        values = rng.uniform(size=(100, 3))
        got = sorted(int(i) for i in dnc_skyline(values, cutoff=4))
        assert got == brute_skyline(values)

    def test_degenerate_first_dimension(self):
        # All rows share x1: the split is degenerate and falls back.
        values = np.column_stack([
            np.ones(30),
            np.linspace(0, 1, 30),
            np.linspace(1, 0, 30),
        ])
        got = sorted(int(i) for i in dnc_skyline(values, cutoff=4))
        assert got == brute_skyline(values)


class TestRTreeBacked:
    def test_nn_accepts_prebuilt_tree(self, rng):
        values = rng.uniform(size=(60, 2))
        tree = RTree.bulk_load(values)
        got = sorted(int(i) for i in nn_skyline(values, rtree=tree))
        assert got == brute_skyline(values)

    def test_bbs_accepts_prebuilt_tree(self, rng):
        values = rng.uniform(size=(80, 3))
        tree = RTree.bulk_load(values)
        got = sorted(int(i) for i in bbs_skyline(values, rtree=tree))
        assert got == brute_skyline(values)

    def test_bbs_with_inserted_tree(self, rng):
        values = rng.uniform(size=(70, 2))
        tree = RTree(dims=2, max_entries=5)
        for i, p in enumerate(values):
            tree.insert(i, p)
        got = sorted(int(i) for i in bbs_skyline(values, rtree=tree))
        assert got == brute_skyline(values)

    def test_empty_input(self):
        assert nn_skyline(np.empty((0, 2))).size == 0
        assert bbs_skyline(np.empty((0, 2))).size == 0


class TestLayerPeeling:
    """Any skyline algorithm must be usable for DG layer construction."""

    @pytest.mark.parametrize("name", ["bnl", "dnc", "bitmap", "index", "bbs"])
    def test_layers_agree_with_default(self, name):
        from repro.core.layers import compute_layers

        values = uniform(90, 3, seed=8).values
        default = compute_layers(values)
        custom = compute_layers(values, skyline=as_mask_function(ALGORITHMS[name]))
        assert [set(a.tolist()) for a in default] == [
            set(b.tolist()) for b in custom
        ]
