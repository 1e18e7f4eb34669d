"""Parity sweep: the compiled engine must equal the reference bit-for-bit.

The compiled engine (:mod:`repro.core.compiled`) replaces the reference
Travelers' execution model wholesale — every query runs the
layer-progressive batch kernel (a single query is a batch of one), with
a float32 fast lane whose boundary is re-checked in exact float64 — so
the *answer* contract is checked at the strongest level available:
identical ids and identical float scores on every (data distribution ×
scoring function × k) combination, on plain and Extended (pseudo-level)
graphs, including the ``where=`` filtered path.

Access tallies are deliberately *not* compared against the reference:
the batch kernel charges whole layer chunks (trading extra score
computations for vectorization), so its counters legitimately exceed
the best-first traversal's.  The counters are instead held to their own
invariants — monotone in the reference's, consistent with the scanned
id set, pseudo split correct — and
``tests/test_guard.py``/``tests/test_fast_lane.py`` cover their budget
and threading behaviour.  The paper's accessed-record set stays a
checked lower bound: the kernel scans a superset of what the reference
Traveler accesses, even with one layer per chunk, where the kernel
stops as early as its bound allows.

Every sweep asks each query twice: under the stock chunk schedule, which
scans these small fixtures in one chunk, and under
``tests.conftest.layer_chunks`` — one layer per chunk, so that every
layer edge is a retirement point for the last-layer bound.
"""

import contextlib

import numpy as np
import pytest

from repro.core.advanced import AdvancedTraveler
from repro.core.builder import build_dominant_graph, build_extended_graph
from repro.core.compiled import (
    SNAPSHOT_FIELDS,
    CompiledAdvancedTraveler,
    CompiledBasicTraveler,
    CompiledDG,
)
from repro.core.dataset import Dataset
from repro.core.functions import (
    LinearFunction,
    MinFunction,
    WeightedPowerFunction,
)
from repro.core.maintenance import delete_record, insert_record, mark_deleted
from repro.core.traveler import BasicTraveler
from repro.data.generators import anticorrelated, correlated, uniform
from repro.parallel import attach_snapshot, export_snapshot
from repro.store import StoreDirectory, attach_store, read_toc
from tests.conftest import layer_chunks

N = 250
DIMS = 3
KINDS = {"uniform": uniform, "correlated": correlated,
         "anticorrelated": anticorrelated}


def make_functions(seed: int) -> list:
    """One linear and two nonlinear monotone functions per seed."""
    weights = np.random.default_rng(seed).dirichlet(np.ones(DIMS))
    return [
        LinearFunction(weights),
        MinFunction(),
        WeightedPowerFunction(weights, p=2.0),
    ]


def assert_kernel_parity(reference, traveler, function, k, **kwargs):
    """:func:`assert_parity` under the stock and the per-layer schedule."""
    assert_parity(reference, traveler.top_k(function, k, **kwargs))
    with layer_chunks():
        assert_parity(reference, traveler.top_k(function, k, **kwargs))


def assert_parity(reference, compiled):
    """Answers must match bit-for-bit; counters must be self-consistent.

    The compiled kernel scans whole layer chunks, so it computes a
    *superset* of the best-first traversal's records: its tally must
    cover the reference's and agree with its own scanned-id set.
    """
    assert reference.ids == compiled.ids
    assert reference.scores == compiled.scores
    assert compiled.stats.computed >= reference.stats.computed
    assert compiled.stats.pseudo_computed >= reference.stats.pseudo_computed
    assert compiled.stats.computed == len(compiled.stats.computed_ids)
    assert reference.stats.computed_ids <= compiled.stats.computed_ids


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("k", [1, 10, N])
def test_basic_traveler_parity(kind, k):
    dataset = KINDS[kind](N, DIMS, seed=11)
    graph = build_dominant_graph(dataset)
    snapshot = graph.compile()
    for function in make_functions(seed=k):
        assert_kernel_parity(
            BasicTraveler(graph).top_k(function, k),
            CompiledBasicTraveler(snapshot), function, k,
        )


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("k", [1, 10, N])
def test_advanced_traveler_parity_with_pseudo_levels(kind, k):
    dataset = KINDS[kind](N, DIMS, seed=23)
    graph = build_extended_graph(dataset, theta=2)
    if kind != "correlated":  # correlated layers are already tiny
        assert graph.num_pseudo > 0, "theta=2 must force pseudo levels"
    snapshot = graph.compile()
    for function in make_functions(seed=k):
        assert_kernel_parity(
            AdvancedTraveler(graph).top_k(function, k),
            CompiledAdvancedTraveler(snapshot), function, k,
        )


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("k", [1, 10, N])
def test_filtered_path_parity(kind, k):
    dataset = KINDS[kind](N, DIMS, seed=37)
    graph = build_extended_graph(dataset, theta=2)
    snapshot = graph.compile()
    where = lambda vector: vector[0] > 350.0  # noqa: E731
    for function in make_functions(seed=k):
        assert_kernel_parity(
            AdvancedTraveler(graph).top_k(function, k, where=where),
            CompiledAdvancedTraveler(snapshot), function, k, where=where,
        )


def test_advanced_on_plain_graph_parity():
    dataset = uniform(N, DIMS, seed=5)
    graph = build_dominant_graph(dataset)
    snapshot = graph.compile()
    function = LinearFunction([0.2, 0.5, 0.3])
    assert_parity(
        AdvancedTraveler(graph).top_k(function, 25),
        CompiledAdvancedTraveler(snapshot).top_k(function, 25),
    )


@pytest.mark.parametrize("k", [1, 10, 50])
def test_kernel_scans_a_superset_of_the_travelers_accesses(k):
    """The paper's accessed-record set is a lower bound on the scan.

    Plain DG, continuous data, strictly positive weights (generic
    position: no score ties).  The graph is large enough that the stock
    schedule stops short of a full scan too, so both schedules retire on
    a last-layer bound here.
    """
    graph = build_dominant_graph(uniform(2500, DIMS, seed=41))
    snapshot = graph.compile()
    traveler = CompiledAdvancedTraveler(snapshot)
    rng = np.random.default_rng(k)
    for weights in rng.dirichlet(np.ones(DIMS), size=6):
        function = LinearFunction(weights + 0.01)
        assert_kernel_parity(
            AdvancedTraveler(graph).top_k(function, k), traveler, function, k
        )
        assert traveler.top_k(function, k).stats.computed < snapshot.num_records


def test_k_larger_than_dataset_returns_everything():
    dataset = uniform(40, DIMS, seed=9)
    graph = build_dominant_graph(dataset)
    result = CompiledBasicTraveler(graph.compile()).top_k(MinFunction(), 500)
    assert len(result) == 40


def mutated_extended_graph():
    """An Extended DG that maintenance has inserted into, deleted from
    and marked.

    ``from_graph`` sorts ``DominantGraph.indexed_arrays()``, whose order
    is placement order: here records have moved between layers without
    moving in that order, late ids sit in early layers, and pseudo rows
    carry both fresh ids (pseudo levels) and dataset ids (marked rows).
    """
    dataset = uniform(N, DIMS, seed=2)
    graph = build_extended_graph(dataset, theta=6, record_ids=range(N - 40))
    rng = np.random.default_rng(12)
    for rid in range(N - 40, N):
        insert_record(graph, rid)
    for rid in rng.choice(N - 40, size=25, replace=False).tolist():
        delete_record(graph, rid)
    for rid in rng.choice(np.arange(N - 40, N), size=6, replace=False).tolist():
        mark_deleted(graph, rid)
    assert graph.num_pseudo > 6  # pseudo levels and marked rows both present
    return graph


def reference_arrays(graph) -> dict:
    """The snapshot arrays by per-record calls — the loop ``from_graph``
    used to run, kept as the reference for its vectorised gather."""
    order = sorted((graph.layer_of(rid), rid) for rid in graph.iter_records())
    return {
        "values": np.array([graph.vector(rid) for _, rid in order]),
        "record_ids": np.array([rid for _, rid in order], dtype=np.int64),
        "layer_index": np.array([layer for layer, _ in order], dtype=np.int32),
        "pseudo_mask": np.array([graph.is_pseudo(rid) for _, rid in order]),
    }


def assert_snapshot_arrays(snapshot, expected: dict) -> None:
    """``snapshot`` holds exactly the declared arrays, equal and frozen."""
    held = {
        name
        for name, value in vars(snapshot).items()
        if isinstance(value, np.ndarray) and not name.startswith("_")
    }
    assert held == set(SNAPSHOT_FIELDS) == set(expected)
    for name in SNAPSHOT_FIELDS:
        array = getattr(snapshot, name)
        assert array.dtype == expected[name].dtype, name
        assert array.shape == expected[name].shape, name
        np.testing.assert_array_equal(array, expected[name])
        assert not array.flags.writeable, name


def test_compiled_snapshot_structure():
    graph = mutated_extended_graph()
    snapshot = graph.compile()
    assert isinstance(snapshot, CompiledDG)
    assert snapshot.num_records == len(graph)
    assert snapshot.num_pseudo == graph.num_pseudo
    assert snapshot.first_layer_size == len(graph.layer(0))
    assert snapshot.source_version == graph.version
    assert_snapshot_arrays(snapshot, reference_arrays(graph))
    bounds = snapshot.layer_bounds()
    assert np.diff(bounds).tolist() == graph.layer_sizes()


def test_compiled_arrays_are_frozen():
    snapshot = mutated_extended_graph().compile()
    for name in SNAPSHOT_FIELDS:
        array = getattr(snapshot, name)
        with pytest.raises((ValueError, RuntimeError)):
            array[:1] = array[:1]


@pytest.mark.parametrize("transport", ["shm", "spool"])
def test_transport_round_trip_keeps_exactly_the_declared_arrays(
    transport, tmp_path
):
    """Both transports lay out ``SNAPSHOT_FIELDS`` and nothing else, and
    the attached snapshot answers like the one that was published."""
    snapshot = mutated_extended_graph().compile()
    with contextlib.ExitStack() as stack:
        if transport == "shm":
            shared = stack.enter_context(export_snapshot(snapshot, epoch=3))
            assert [spec.field for spec in shared.handle.arrays] == list(
                SNAPSHOT_FIELDS
            )
            attached = stack.enter_context(attach_snapshot(shared.handle))
        else:
            handle = StoreDirectory(str(tmp_path)).publish_compiled(
                snapshot, epoch=3, durable=False
            )
            assert read_toc(handle.path).section_names == SNAPSHOT_FIELDS
            attached = stack.enter_context(attach_store(handle))
        assert attached.epoch == 3
        assert attached.compiled.first_layer_size == snapshot.first_layer_size
        assert_snapshot_arrays(
            attached.compiled,
            {name: getattr(snapshot, name) for name in SNAPSHOT_FIELDS},
        )
        for function in make_functions(5):
            assert attached.compiled.top_k(function, 10) == snapshot.top_k(
                function, 10
            )


def test_mutation_makes_snapshot_stale():
    dataset = uniform(80, DIMS, seed=4)
    graph = build_dominant_graph(dataset, record_ids=range(79))
    snapshot = graph.compile()
    assert not snapshot.stale
    insert_record(graph, 79)
    assert snapshot.stale
    with pytest.raises(RuntimeError, match="stale"):
        CompiledBasicTraveler(snapshot).top_k(MinFunction(), 5)
    fresh = graph.compile()
    assert not fresh.stale
    assert_parity(
        BasicTraveler(graph).top_k(MinFunction(), 5),
        CompiledBasicTraveler(fresh).top_k(MinFunction(), 5),
    )


def test_basic_rejects_pseudo_graphs():
    dataset = uniform(N, 5, seed=6)
    graph = build_extended_graph(dataset, theta=6)
    assert graph.num_pseudo > 0
    with pytest.raises(ValueError, match="plain DG"):
        CompiledBasicTraveler(graph.compile())


def test_k_must_be_positive():
    snapshot = build_dominant_graph(uniform(20, 2, seed=1)).compile()
    with pytest.raises(ValueError, match="positive"):
        CompiledBasicTraveler(snapshot).top_k(MinFunction(), 0)


def test_tie_heavy_grid_parity():
    """Duplicate coordinates stress (-score, id) tie-breaking."""
    rng = np.random.default_rng(17)
    values = rng.integers(0, 4, size=(120, 3)).astype(float)
    dataset = Dataset(values)
    graph = build_dominant_graph(dataset)
    snapshot = graph.compile()
    function = LinearFunction([1.0, 1.0, 1.0])
    for k in (1, 7, 120):
        assert_kernel_parity(
            BasicTraveler(graph).top_k(function, k),
            CompiledBasicTraveler(snapshot), function, k,
        )
