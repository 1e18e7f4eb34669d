"""Parity sweep: every fabric mode must equal the reference bit-for-bit.

The parallel fabric (:mod:`repro.parallel`) answers queries three ways —
one full Traveler per query, hash-sharded scans k-way merged by the
executor, and the layer-progressive batch kernel — and all of them
promise answers *bit-identical* to the reference
:class:`~repro.core.advanced.AdvancedTraveler`: same ids, same float
scores, same ``(-score, id)`` order.  This sweep checks that promise
across dimensionalities, ``k`` values, pseudo levels (Extended DG), and
the paper's cheap deletion (:func:`~repro.core.maintenance.mark_deleted`),
for both the in-process batch kernel and real forked worker pools.

Access *tallies* are intentionally not compared for the shard and batch
modes: they trade extra score computations for vectorization (whole
layers / whole shards at a time), so their counters legitimately exceed
the best-first traversal's.  Only the answers carry the bit-identity
contract.
"""

import numpy as np
import pytest

from repro.core.advanced import AdvancedTraveler
from repro.core.builder import build_dominant_graph, build_extended_graph
from repro.core.compiled import batch_top_k
from repro.core.functions import LinearFunction, WeightedPowerFunction
from repro.core.maintenance import mark_deleted
from repro.data.generators import uniform
from repro.parallel import ParallelQueryExecutor

N = 160
KS = (1, 10, 50)
VARIANTS = ("plain", "pseudo", "deleted")


def build_variant(dims: int, variant: str):
    """A graph with / without pseudo levels and marked deletions."""
    dataset = uniform(N, dims, seed=100 + dims)
    if variant == "plain":
        return build_dominant_graph(dataset)
    graph = build_extended_graph(dataset, theta=3)
    if variant == "deleted":
        # Delete a third of the records the reference would rank highest,
        # so the deletion path actually changes every answer prefix.
        probe = AdvancedTraveler(graph).top_k(
            LinearFunction(np.full(dims, 1.0 / dims)), 30
        )
        for record_id in probe.ids[::3]:
            mark_deleted(graph, record_id)
    return graph


def make_functions(dims: int) -> list:
    """Two linear and one nonlinear monotone function per dimensionality."""
    rng = np.random.default_rng(dims)
    return [
        LinearFunction(rng.dirichlet(np.ones(dims))),
        LinearFunction(np.full(dims, 1.0 / dims)),
        WeightedPowerFunction(rng.dirichlet(np.ones(dims)), p=2.0),
    ]


def assert_answers_identical(reference, got, label: str) -> None:
    assert reference.ids == got.ids, label
    assert reference.scores == got.scores, label


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("dims", [2, 3, 4, 5])
def test_fabric_modes_match_reference(dims, variant):
    graph = build_variant(dims, variant)
    compiled = graph.compile()
    reference = AdvancedTraveler(graph)
    functions = make_functions(dims)

    with ParallelQueryExecutor(compiled, workers=2, batch_size=2) as pool:
        for k in KS:
            expected = [reference.top_k(f, k) for f in functions]
            for mode in ("full", "batch", "shard"):
                got = pool.map_queries(functions, k, mode=mode)
                for ref, out in zip(expected, got):
                    assert_answers_identical(
                        ref, out, f"{mode} d={dims} {variant} k={k}"
                    )
            inproc = batch_top_k(compiled, functions, k)
            for ref, out in zip(expected, inproc):
                assert_answers_identical(
                    ref, out, f"inproc-batch d={dims} {variant} k={k}"
                )


@pytest.mark.parametrize("dims", [2, 4])
def test_fabric_filtered_path_matches_reference(dims):
    graph = build_variant(dims, "pseudo")
    compiled = graph.compile()
    reference = AdvancedTraveler(graph)
    functions = make_functions(dims)
    where = _first_above_300

    with ParallelQueryExecutor(compiled, workers=2, batch_size=2) as pool:
        for k in (1, 10):
            expected = [reference.top_k(f, k, where=where) for f in functions]
            for mode in ("full", "batch", "shard"):
                got = pool.map_queries(functions, k, where=where, mode=mode)
                for ref, out in zip(expected, got):
                    assert_answers_identical(
                        ref, out, f"where {mode} d={dims} k={k}"
                    )


def _first_above_300(vector) -> bool:
    """Module-level so it pickles by reference into worker tasks."""
    return bool(vector[0] > 300.0)


def test_single_query_helpers_match_reference():
    graph = build_variant(3, "pseudo")
    compiled = graph.compile()
    reference = AdvancedTraveler(graph)
    function = make_functions(3)[0]
    expected = reference.top_k(function, 10)

    with ParallelQueryExecutor(compiled, workers=2) as pool:
        assert_answers_identical(expected, pool.query(function, 10), "query")
        assert_answers_identical(
            expected, pool.query_sharded(function, 10), "query_sharded"
        )


def test_full_mode_stats_match_compiled_engine():
    """Full mode runs the exact single-process kernel, counters included."""
    from repro.core.compiled import CompiledAdvancedTraveler

    graph = build_variant(3, "pseudo")
    compiled = graph.compile()
    function = make_functions(3)[0]
    expected = CompiledAdvancedTraveler(compiled).top_k(function, 10)

    with ParallelQueryExecutor(compiled, workers=1) as pool:
        got = pool.query(function, 10)
    assert expected.stats.computed == got.stats.computed
    assert expected.stats.pseudo_computed == got.stats.pseudo_computed
    assert expected.stats.computed_ids == got.stats.computed_ids


def test_fabric_reply_counter_is_one_int32_buffer():
    """Workers charge the snapshot's shared id chunks; the reply still
    ships each counter's ids as one consolidated int32 array."""
    compiled = build_variant(3, "plain").compile()
    functions = make_functions(3)[:2]
    local = batch_top_k(compiled, functions, 10)

    with ParallelQueryExecutor(compiled, workers=1) as pool:
        for mode in ("full", "batch"):
            for inproc, got in zip(
                local, pool.map_queries(functions, 10, mode=mode)
            ):
                (wire,) = got.stats._id_chunks
                assert wire.dtype == np.int32 and wire.flags.owndata
                assert got.stats.computed == wire.size == inproc.stats.computed
                assert got.stats.computed_ids == inproc.stats.computed_ids
