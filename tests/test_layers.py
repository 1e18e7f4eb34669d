"""Unit tests for repro.core.layers (Definition 2.3)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dominance import maximal_mask
from repro.core.layers import (
    _BLOCK as BLOCK,
    compute_layers,
    layer_indices_by_chains,
    layers_from_indices,
    validate_layers,
)
from repro.data.generators import all_skyline, correlated, gaussian, uniform


def peeled_indices(values):
    """Layer index per record from peeling — the blocked pass's reference."""
    layer_of = np.zeros(values.shape[0], dtype=np.intp)
    for index, layer in enumerate(compute_layers(values, skyline=maximal_mask), 1):
        layer_of[layer] = index
    return layer_of


class TestComputeLayers:
    def test_small_dataset(self, small_dataset):
        layers = compute_layers(small_dataset.values)
        as_sets = [set(layer.tolist()) for layer in layers]
        assert as_sets == [{0, 1, 4}, {2, 5}, {3}]

    def test_partitions_all_records(self, rng):
        values = rng.uniform(size=(80, 3))
        layers = compute_layers(values)
        ids = sorted(int(i) for layer in layers for i in layer)
        assert ids == list(range(80))

    def test_validates(self, rng):
        values = rng.uniform(size=(60, 2))
        validate_layers(values, compute_layers(values))

    def test_total_order_gives_singleton_layers(self):
        values = np.array([[float(i), float(i)] for i in range(6)])
        layers = compute_layers(values)
        assert [len(l) for l in layers] == [1] * 6
        assert layers[0].tolist() == [5]

    def test_antichain_gives_single_layer(self):
        values = all_skyline(40, 3, seed=1).values
        layers = compute_layers(values)
        assert len(layers) == 1
        assert len(layers[0]) == 40

    def test_single_record(self):
        layers = compute_layers(np.array([[1.0, 2.0]]))
        assert len(layers) == 1 and layers[0].tolist() == [0]

    def test_duplicates_share_a_layer(self):
        values = np.array([[2.0, 2.0], [2.0, 2.0], [1.0, 1.0], [1.0, 1.0]])
        layers = compute_layers(values)
        assert set(layers[0].tolist()) == {0, 1}
        assert set(layers[1].tolist()) == {2, 3}

    def test_custom_skyline_function(self, rng):
        from repro.skyline import as_mask_function, bnl_skyline

        values = rng.uniform(size=(50, 3))
        default = compute_layers(values)
        custom = compute_layers(values, skyline=as_mask_function(bnl_skyline))
        assert [set(a.tolist()) for a in default] == [
            set(b.tolist()) for b in custom
        ]

    def test_broken_skyline_function_raises(self, rng):
        values = rng.uniform(size=(10, 2))
        with pytest.raises(RuntimeError, match="empty maximal set"):
            compute_layers(values, skyline=lambda block: np.zeros(len(block), bool))


class TestChainFormula:
    @pytest.mark.parametrize("maker,dims", [
        (uniform, 2), (uniform, 4), (gaussian, 3), (correlated, 3),
    ])
    def test_agrees_with_peeling(self, maker, dims):
        values = maker(3 * BLOCK + 7, dims, seed=3).values
        np.testing.assert_array_equal(
            layer_indices_by_chains(values), peeled_indices(values)
        )

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        n=st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]),
        dims=st.integers(min_value=1, max_value=6),
        grid=st.sampled_from([2, 5, 40]),
        big=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_blocked_pass_equals_peeling(self, n, dims, grid, big, seed):
        # A coarse grid gives exact duplicates and long chains inside one
        # block; adding 1e16 to a column makes every coordinate sum round
        # to a handful of floats, so dominators tie with what they
        # dominate and only the lexicographic tie-break orders them.
        rng = np.random.default_rng(seed)
        values = rng.integers(0, grid, size=(n, dims)).astype(np.float64) / 4.0
        if big:
            values[:, rng.integers(dims)] += 1e16
        chains = layer_indices_by_chains(values)
        np.testing.assert_array_equal(chains, peeled_indices(values))
        default = compute_layers(values)
        validate_layers(values, default)
        for got, want in zip(default, layers_from_indices(chains), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_tied_float_sums_keep_the_dominator_first(self):
        # 1e16 + 0.25 == 1e16 + 0.5 in float64, yet record 1 dominates 0.
        values = np.array([[1e16, 0.25], [1e16, 0.5]])
        assert values[0].sum() == values[1].sum()
        assert layer_indices_by_chains(values).tolist() == [2, 1]
        assert [layer.tolist() for layer in compute_layers(values)] == [[1], [0]]
        assert [
            layer.tolist() for layer in compute_layers(values, skyline=maximal_mask)
        ] == [[1], [0]]

    def test_chain_longer_than_a_block(self):
        values = np.arange(2 * BLOCK + 3, dtype=np.float64)[:, None].repeat(2, axis=1)
        expected = np.arange(2 * BLOCK + 3, 0, -1)
        np.testing.assert_array_equal(layer_indices_by_chains(values), expected)

    def test_layers_list_ids_in_ascending_order(self, rng):
        values = rng.uniform(size=(2 * BLOCK, 3))
        for layer in compute_layers(values):
            assert layer.tolist() == sorted(layer.tolist())

    def test_no_records(self):
        assert layer_indices_by_chains(np.empty((0, 3))).shape == (0,)
        assert compute_layers(np.empty((0, 3))) == []

    def test_layers_from_indices_roundtrip(self, rng):
        values = rng.uniform(size=(70, 3))
        chains = layer_indices_by_chains(values)
        grouped = layers_from_indices(chains)
        peeled = compute_layers(values, skyline=maximal_mask)
        assert [set(a.tolist()) for a in grouped] == [
            set(b.tolist()) for b in peeled
        ]

    def test_empty_indices(self):
        assert layers_from_indices(np.array([], dtype=np.intp)) == []


class TestValidateLayers:
    def test_rejects_missing_record(self, rng):
        values = rng.uniform(size=(10, 2))
        layers = compute_layers(values)
        with pytest.raises(AssertionError, match="cover"):
            validate_layers(values, layers[:-1] if len(layers) > 1 else [])

    def test_rejects_in_layer_dominance(self):
        values = np.array([[2.0, 2.0], [1.0, 1.0]])
        with pytest.raises(
            AssertionError, match="record 1 dominated within its own layer 1"
        ):
            validate_layers(values, [np.array([0, 1])])

    def test_accepts_duplicates_within_a_layer(self):
        values = np.array([[2.0, 2.0], [2.0, 2.0], [1.0, 1.0]])
        validate_layers(values, [np.array([0, 1]), np.array([2])])

    def test_rejects_layer_without_upstream_dominator(self):
        values = np.array([[2.0, 2.0], [3.0, 1.0]])
        # Record 1 is incomparable with record 0, so placing it in layer 2
        # violates the maximal-layer property.
        with pytest.raises(
            AssertionError, match="record 1 in layer 2 has no dominator in layer 1"
        ):
            validate_layers(values, [np.array([0]), np.array([1])])
