"""Property-based tests (hypothesis) for the core invariants.

These complement the example-based suites: every property here is an
invariant stated or implied by the paper, checked on arbitrary generated
record sets.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.builder import build_dominant_graph, build_extended_graph
from repro.core.dataset import Dataset
from repro.core.dominance import dominates, maximal_mask
from repro.core.functions import LinearFunction
from repro.core.layers import compute_layers, layer_indices_by_chains
from repro.core.maintenance import delete_record, insert_record
from repro.core.advanced import AdvancedTraveler
from repro.core.traveler import BasicTraveler
from repro.cluster.kmeans import kmeans
from repro.spatial.mbr import MBR
from repro.spatial.rtree import RTree

# Record blocks: 1..40 records, 1..4 dims, values on a small integer-ish
# grid so ties and duplicates are generated frequently.
blocks = st.integers(min_value=1, max_value=4).flatmap(
    lambda dims: arrays(
        np.float64,
        st.tuples(st.integers(min_value=1, max_value=40), st.just(dims)),
        elements=st.integers(min_value=0, max_value=8).map(float),
    )
)

weight_lists = st.lists(
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False), min_size=1, max_size=4
)

common = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@common
@given(blocks)
def test_maximal_mask_is_exact(block):
    mask = maximal_mask(block)
    n = block.shape[0]
    for i in range(n):
        dominated = any(dominates(block[j], block[i]) for j in range(n) if j != i)
        assert mask[i] == (not dominated)


@common
@given(blocks)
def test_layers_partition_and_stratify(block):
    layers = compute_layers(block)
    seen = sorted(int(i) for layer in layers for i in layer)
    assert seen == list(range(block.shape[0]))
    # No intra-layer dominance; every deeper record dominated from above.
    for index, layer in enumerate(layers):
        for a in layer:
            for b in layer:
                if a != b:
                    assert not dominates(block[a], block[b])
        if index > 0:
            above = block[np.asarray(layers[index - 1])]
            for rid in layer:
                assert any(dominates(v, block[rid]) for v in above)


@common
@given(blocks)
def test_chain_formula_matches_peeling(block):
    layers = compute_layers(block, skyline=maximal_mask)
    chains = layer_indices_by_chains(block)
    for index, layer in enumerate(layers, start=1):
        assert all(chains[int(i)] == index for i in layer)


@common
@given(blocks, weight_lists, st.integers(min_value=1, max_value=10))
def test_basic_traveler_matches_bruteforce(block, weights, k):
    dims = block.shape[1]
    weights = (weights * dims)[:dims]
    dataset = Dataset(block)
    f = LinearFunction(weights)
    graph = build_dominant_graph(dataset)
    result = BasicTraveler(graph).top_k(f, k)
    expected = sorted(f.score_many(block), reverse=True)[: min(k, len(block))]
    np.testing.assert_allclose(
        sorted(result.scores, reverse=True), expected, atol=1e-9
    )


@common
@given(blocks, weight_lists, st.integers(min_value=1, max_value=10))
def test_advanced_traveler_matches_bruteforce(block, weights, k):
    dims = block.shape[1]
    weights = (weights * dims)[:dims]
    dataset = Dataset(block)
    f = LinearFunction(weights)
    graph = build_extended_graph(dataset, theta=4)
    result = AdvancedTraveler(graph).top_k(f, k)
    expected = sorted(f.score_many(block), reverse=True)[: min(k, len(block))]
    np.testing.assert_allclose(
        sorted(result.scores, reverse=True), expected, atol=1e-9
    )


@common
@given(blocks)
def test_graph_invariants_validate(block):
    graph = build_dominant_graph(Dataset(block))
    graph.validate()


@common
@given(blocks, st.integers(min_value=0, max_value=100))
def test_insert_equals_rebuild(block, split_seed):
    if block.shape[0] < 2:
        return
    dataset = Dataset(block)
    n = block.shape[0]
    rng = np.random.default_rng(split_seed)
    initial = sorted(rng.choice(n, size=max(1, n // 2), replace=False).tolist())
    graph = build_dominant_graph(dataset, record_ids=initial)
    for rid in range(n):
        if rid not in set(initial):
            insert_record(graph, rid)
    graph.validate()
    assert graph.layers() == build_dominant_graph(dataset).layers()


@common
@given(blocks, st.integers(min_value=0, max_value=100))
def test_delete_equals_rebuild(block, victim_seed):
    if block.shape[0] < 2:
        return
    dataset = Dataset(block)
    n = block.shape[0]
    graph = build_dominant_graph(dataset)
    rng = np.random.default_rng(victim_seed)
    victims = rng.choice(n, size=n // 2, replace=False).tolist()
    for rid in victims:
        delete_record(graph, int(rid))
    graph.validate()
    survivors = sorted(graph.real_ids())
    if survivors:
        rebuilt = build_dominant_graph(dataset, record_ids=survivors)
        assert graph.layers() == rebuilt.layers()


@common
@given(blocks)
def test_all_skyline_algorithms_agree(block):
    from repro.skyline import ALGORITHMS

    if block.shape[1] > 3:
        block = block[:, :3]  # keep NN tractable
    reference = set(np.flatnonzero(maximal_mask(block)).tolist())
    for name, algorithm in ALGORITHMS.items():
        got = set(int(i) for i in algorithm(block))
        assert got == reference, name


@common
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(min_value=1, max_value=30), st.just(2)),
        elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32),
    ),
    st.integers(min_value=1, max_value=6),
)
def test_kmeans_covers_all_points(points, n_clusters):
    result = kmeans(points, n_clusters)
    assert result.assignments.shape == (points.shape[0],)
    for c in range(result.n_clusters):
        assert len(result.members(c)) > 0
    assert sum(len(result.members(c)) for c in range(result.n_clusters)) == len(points)


@common
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(min_value=1, max_value=60), st.just(2)),
        elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32),
    )
)
def test_rtree_box_search_complete(points):
    tree = RTree.bulk_load(points)
    tree.validate()
    box = MBR(np.array([0.2, 0.2]), np.array([0.8, 0.8]))
    got = sorted(tree.search_box(box))
    expected = sorted(
        i for i, p in enumerate(points) if box.contains_point(p)
    )
    assert got == expected


@common
@given(blocks, weight_lists)
def test_ta_nra_ca_agree(block, weights):
    from repro.baselines.ca import CombinedAlgorithm
    from repro.baselines.nra import NoRandomAccess
    from repro.baselines.ta import ThresholdAlgorithm

    dims = block.shape[1]
    weights = (weights * dims)[:dims]
    dataset = Dataset(block)
    f = LinearFunction(weights)
    k = min(5, len(dataset))
    expected = sorted(f.score_many(block), reverse=True)[:k]
    for algo in (
        ThresholdAlgorithm(dataset),
        CombinedAlgorithm(dataset, cost_ratio=3),
        NoRandomAccess(dataset),
    ):
        result = algo.top_k(f, k)
        np.testing.assert_allclose(
            sorted(result.scores, reverse=True), expected, atol=1e-9
        )


@common
@given(blocks, weight_lists, st.integers(min_value=1, max_value=8))
def test_traveler_cost_at_least_prediction(block, weights, k):
    from repro.core.cost import search_space

    dims = block.shape[1]
    weights = (weights * dims)[:dims]
    dataset = Dataset(block)
    f = LinearFunction(weights)
    scores = np.sort(f.score_many(block))
    gaps = np.diff(scores)
    if len(scores) > 1 and np.min(gaps) < 1e-9 * (1.0 + np.abs(scores).max()):
        return  # Theorem 3.1 presumes unambiguous ranks; exact or
        # floating-point near-ties void both directions (duplicate groups
        # flood S3, and the Traveler's scalar-dot scores can order
        # virtual ties differently from the vectorized brute force).
    k = min(k, len(dataset))
    graph = build_dominant_graph(dataset)
    result = BasicTraveler(graph).top_k(f, k)
    space = search_space(dataset, f, k)
    # With distinct scores the strong direction holds: every predicted
    # record really is scored.
    assert space.predicted <= result.stats.computed_ids
