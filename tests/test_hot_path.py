"""Deterministic ratchets on the read, build and write paths' bookkeeping.

The kernel's arithmetic is a small part of a served read; what is left
is Python-level bookkeeping, and the cheapest stable proxy for it is how
many calls into this package one read makes.  Counted with ``cProfile``
over uncached ``ServingIndex.query`` reads (and ``query_batch`` sweeps)
and filtered to functions defined under ``src/repro/``, the figure
involves no clock, so it does not move with the host or the numpy
build — only with the code.  The same count over one
``build_dominant_graph`` keeps per-record and per-parent Python loops
out of the build, and over ``insert_record`` keeps set-to-array round
trips out of a write.  Named-call counts over a recovery keep the graph
build off the read path and make it happen once.  The served import
closure — every ``repro`` module that
``import repro.serve`` loads — is pinned the same way: a module may
leave it, never join it.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import subprocess
import sys

import numpy as np

import repro
from repro.core.builder import build_dominant_graph
from repro.core.functions import LinearFunction
from repro.core.maintenance import insert_record
from repro.data.generators import uniform
from repro.serve import ServingIndex

READS = 200

#: Calls into ``src/repro`` one uncached read may make.  71 before the
#: sweep stopped gathering for unretired queries and unmasked rows and
#: the serving spine stopped re-validating results; 47 after; 45 now.
#: The cached chunk schedule, the answerable mask nobody asks an
#: unmasked snapshot for, the direct batch-of-one entry and one pass over
#: the functions instead of three took six away; the admission slot
#: (four calls where the generator's two resumptions counted two) and
#: the up-front request check (two) put four back — the ratchet counts
#: calls, not what they cost.
MAX_CALLS_PER_READ = 48

#: The same count with inserts and deletes parked in the overlay: 56,
#: where ranking the base answer and then the base-plus-delta pool as
#: two selections and two results took 60.
MAX_CALLS_PER_OVERLAY_READ = 58

#: Calls into ``src/repro`` one uncached ``query_batch`` of
#: ``BATCH_WIDTH`` may make: 320 when the in-process batch ran its own
#: rungs, 326 once it shared the read path's ladder (the breaker gate,
#: the retry policy and the ladder itself, a fixed few per batch).  A
#: call per query would add 32.
MAX_CALLS_PER_BATCH = 328

BATCH_WIDTH = 32
BATCHES = 10

BUILD_RECORDS = 2500

#: Calls into ``src/repro`` one build of ``BUILD_RECORDS`` records may
#: make: 504 when this was written, none of them per record.  Placing
#: records one ``place_record`` at a time made 5,500 on the same input,
#: and peeling with one ``dominators_of`` call per candidate 22,890.
MAX_CALLS_PER_BUILD = 700

INSERTS = 50

#: Calls into ``src/repro`` one ``insert_record`` may make: 116 when this
#: was written, 24 of them ``add_edge`` (edges are maintained eagerly).
#: The dict-of-sets graph made 145, with 4.4 ``numpy.fromiter`` calls and
#: 3.4 ``rows_for`` gathers per insert turning id sets back into arrays.
MAX_CALLS_PER_INSERT = 125

#: The 46 ``repro`` modules ``import repro.serve`` loads in a fresh
#: interpreter: 47 while the store module of the delta overlay's
#: sidecar file was among them.
SERVED_MODULES = frozenset(
    "repro repro.errors repro.cluster repro.cluster.kmeans "
    "repro.core repro.core.advanced repro.core.builder repro.core.compiled "
    "repro.core.dataset repro.core.dominance repro.core.functions "
    "repro.core.graph repro.core.guard repro.core.io repro.core.layers "
    "repro.core.maintenance repro.core.native repro.core.nway "
    "repro.core.overlay repro.core.progressive repro.core.pseudo "
    "repro.core.result repro.core.traveler "
    "repro.metrics repro.metrics.counters repro.metrics.timing "
    "repro.parallel repro.parallel.executor repro.parallel.shm "
    "repro.parallel.worker "
    "repro.resilience repro.resilience.breaker repro.resilience.deadline "
    "repro.resilience.policy "
    "repro.serve repro.serve.admission repro.serve.cache "
    "repro.serve.compactor repro.serve.index repro.serve.wal "
    "repro.store repro.store.directory repro.store.format "
    "repro.store.graphstore repro.store.mapped repro.store.scrub".split()
)


def package_calls(profiler: cProfile.Profile) -> int:
    """Calls the profile recorded into functions defined under src/repro."""
    package_dir = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    return sum(
        entry[1]  # total call count, recursive calls included
        for (filename, _line, _name), entry in pstats.Stats(profiler).stats.items()
        if filename.startswith(package_dir)
    )


def calls_named(profiler: cProfile.Profile, name: str) -> int:
    """Calls the profile recorded into functions called ``name``, anywhere."""
    return sum(
        entry[1]
        for (_filename, _line, function), entry in pstats.Stats(profiler).stats.items()
        if name in function
    )


def test_build_makes_few_package_calls():
    dataset = uniform(BUILD_RECORDS, 4, seed=5)
    profiler = cProfile.Profile()
    profiler.enable()
    graph = build_dominant_graph(dataset)
    profiler.disable()
    assert len(graph) == BUILD_RECORDS and graph.num_layers == 14
    calls = package_calls(profiler)
    assert calls <= MAX_CALLS_PER_BUILD, calls


def test_insert_makes_few_package_calls_and_no_round_trips():
    dataset = uniform(BUILD_RECORDS, 4, seed=5)
    first = BUILD_RECORDS - 100
    graph = build_dominant_graph(dataset, record_ids=range(first))
    profiler = cProfile.Profile()
    profiler.enable()
    for record_id in range(first, first + INSERTS):
        insert_record(graph, record_id)
    profiler.disable()
    assert len(graph) == first + INSERTS
    assert calls_named(profiler, "fromiter") == 0
    assert calls_named(profiler, "rows_for") == 0
    calls = package_calls(profiler)
    assert calls / INSERTS <= MAX_CALLS_PER_INSERT, calls / INSERTS


def profile_uncached_reads(index: ServingIndex, seed: int) -> cProfile.Profile:
    """Profile ``READS`` never-seen queries after warming the lazy caches."""
    weights = np.random.default_rng(seed).dirichlet(np.ones(4), size=READS + 20)
    functions = [LinearFunction(row) for row in weights]
    for function in functions[READS:]:
        index.query(function, k=10)
    hits_before = index.health()["cache"]["hits"]
    profiler = cProfile.Profile()
    profiler.enable()
    for function in functions[:READS]:
        index.query(function, k=10)
    profiler.disable()
    assert index.health()["cache"]["hits"] == hits_before
    return profiler


def test_uncached_read_makes_few_package_calls(tmp_path):
    graph = build_dominant_graph(uniform(2500, 4, seed=5))
    index = ServingIndex.create(str(tmp_path / "serve"), graph, fsync="batch")
    try:
        profiler = profile_uncached_reads(index, seed=5)
    finally:
        index.close(checkpoint=False)

    calls = package_calls(profiler)
    assert calls / READS <= MAX_CALLS_PER_READ, calls / READS


def test_uncached_batch_makes_few_package_calls(tmp_path):
    weights = np.random.default_rng(7).dirichlet(
        np.ones(4), size=(BATCHES + 2) * BATCH_WIDTH
    )
    batches = [
        [LinearFunction(row) for row in weights[start:start + BATCH_WIDTH]]
        for start in range(0, len(weights), BATCH_WIDTH)
    ]
    graph = build_dominant_graph(uniform(2500, 4, seed=5))
    index = ServingIndex.create(str(tmp_path / "serve"), graph, fsync="batch")
    try:
        for functions in batches[BATCHES:]:  # warm the lazy caches
            index.query_batch(functions, k=10)
        hits_before = index.health()["cache"]["hits"]
        profiler = cProfile.Profile()
        profiler.enable()
        for functions in batches[:BATCHES]:
            results = index.query_batch(functions, k=10)
        profiler.disable()
        assert index.health()["cache"]["hits"] == hits_before
        assert [result.tier for result in results] == ["compiled"] * BATCH_WIDTH
    finally:
        index.close(checkpoint=False)

    calls = package_calls(profiler)
    assert calls / BATCHES <= MAX_CALLS_PER_BATCH, calls / BATCHES


def test_overlay_read_selects_once_and_builds_one_result(tmp_path):
    dataset = uniform(2600, 4, seed=5)
    graph = build_dominant_graph(dataset, record_ids=range(2500))
    index = ServingIndex.create(str(tmp_path / "serve"), graph, fsync="batch")
    try:
        for record_id in range(2500, 2510):
            index.insert(record_id)
        for record_id in range(10):
            index.delete(record_id)
        overlay = index.snapshot().overlay
        assert overlay is not None
        assert (overlay.delta_count, overlay.deleted_count) == (10, 10)
        profiler = profile_uncached_reads(index, seed=6)
        assert index.snapshot().overlay is overlay  # nothing folded it away
    finally:
        index.close(checkpoint=False)

    assert calls_named(profiler, "__post_init__") == READS
    assert calls_named(profiler, "_select_exact") == READS
    calls = package_calls(profiler)
    assert calls / READS <= MAX_CALLS_PER_OVERLAY_READ, calls / READS


#: Operations logged past the checkpoint of :func:`recoverable`'s directory.
SUFFIX_OPS = 20


def recoverable(tmp_path) -> str:
    """A serving directory a killed writer left: a checkpoint and a WAL
    suffix of ``SUFFIX_OPS`` inserts and deletes past it."""
    dataset = uniform(2600, 4, seed=5)
    directory = str(tmp_path / "serve")
    index = ServingIndex.create(
        directory, build_dominant_graph(dataset, record_ids=range(2500)), fsync="batch"
    )
    for record_id in range(2500, 2510):
        index.insert(record_id)
    for record_id in range(10):
        index.delete(record_id)
    index.close(checkpoint=False)
    return directory


def test_recovery_serves_reads_without_building_the_graph(tmp_path):
    """Open, read, close: the checkpoint's arrays and the WAL suffix as an
    overlay answer everything; the mutable graph is never built and no
    maintenance runs (the eager open made one ``_construct`` and twenty
    ``insert_record`` / ``delete_record`` calls here)."""
    directory = recoverable(tmp_path)
    weights = np.random.default_rng(7).dirichlet(np.ones(4), size=READS)
    functions = [LinearFunction(row) for row in weights]
    profiler = cProfile.Profile()
    profiler.enable()
    index = ServingIndex.open(directory, fsync="batch")
    for function in functions:
        index.query(function, k=10)
    index.close(checkpoint=False)
    profiler.disable()
    for name in ("graph_from_payload", "_construct", "insert_record", "delete_record"):
        assert calls_named(profiler, name) == 0, name
    assert calls_named(profiler, "scan_wal") == 1  # the eager open parsed it twice


def test_the_deferred_build_runs_once(tmp_path):
    """Open plus three writes: one graph built, each suffix op replayed once."""
    directory = recoverable(tmp_path)
    profiler = cProfile.Profile()
    profiler.enable()
    index = ServingIndex.open(directory, fsync="batch")
    index.insert(2510)
    index.delete(2510)
    index.insert(2511)
    index.close(checkpoint=False)
    profiler.disable()
    assert calls_named(profiler, "_construct") == 1
    assert calls_named(profiler, "apply_op") == SUFFIX_OPS


def test_served_import_closure_only_shrinks():
    """``import repro.serve`` in a fresh interpreter loads no ``repro``
    module outside :data:`SERVED_MODULES`."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    probe = (
        "import sys, repro.serve; "
        "print(*[m for m in sys.modules if m.split('.')[0] == 'repro'])"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout.split()
    assert "repro.serve.index" in loaded  # the probe really ran
    joined = sorted(set(loaded) - SERVED_MODULES)
    assert not joined, f"modules joined the served import closure: {joined}"
