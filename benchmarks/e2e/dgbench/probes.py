"""The traced run: per-layer metrics, measured from outside each layer.

Nothing under ``src/`` is instrumented.  A layer's time is taken by
calling its public entry points from here, on this workload's own index
and inputs, inside spans.  Two *shadow* requests re-enact, call by call,
what ``ServingIndex.query`` and ``ServingIndex.insert`` do; their spans
are the per-layer rows, and ``trace.read_closure`` /
``trace.write_closure`` say how much of the real call's time those rows
account for.  Counters come from ``health()`` and ``AccessCounter``.

Entry points are resolved by import when a probe runs.  One that is gone
(say ``.npz`` I/O after a later clean-up) makes that probe's metrics
``null`` and adds a ``layers_skipped`` line; it never fails the run.
"""

from __future__ import annotations

import copy
import importlib
import os
import shutil
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable

from dgbench import stats
from dgbench.loadgen import BATCH_WIDTH, Scale, Shape, weight_stream
from dgbench.phases import INDEX_KNOBS, Run, measure, peak_rss_mb, tail_metrics
from dgbench.tracing import Tracer

clock = time.perf_counter
US = 1e6
MS = 1e3

#: Share of ``--seconds`` the traced copy of the measured phases gets;
#: the rest of the traced run is fixed-count probes.
TRACED_PHASES_SHARE = 0.4
OVERHEAD_SHARE = 0.05
CONCURRENT_SHARE = 0.15
#: Operations per fixed-count probe.
PROBE_OPS = 1000
REFERENCE_QUERIES = 100
SHADOW_WRITES = 200
#: Open-loop rates of the concurrent segment (operations per second).
READ_RATE = 500.0
WRITE_RATE = 100.0
OVERLAY_CHANGES = 64


class LayerMissing(Exception):
    """A layer's public entry point no longer exists."""


def resolve(module: str, *names: str):
    try:
        loaded = importlib.import_module(module)
    except ImportError as exc:
        raise LayerMissing(f"{module}: {exc}") from exc
    found = []
    for name in names:
        if not hasattr(loaded, name):
            raise LayerMissing(f"{module}.{name}")
        found.append(getattr(loaded, name))
    return found[0] if len(found) == 1 else found


def p50(samples: "list[float]") -> float:
    return stats.percentile(sorted(samples), 50)


def timed(call: Callable[[], object]) -> float:
    started = clock()
    call()
    return clock() - started


def attribute_requests(tracer: Tracer, first_span: int):
    """Self times and totals of the requests traced since ``first_span``.

    Returns ``(layers, totals)``: ``layers[root name][span name]`` lists
    each span's self time, ``totals[root name]`` each request's summed
    self times, both corrected for the tracer's own cost.
    """
    layers: "dict[str, dict[str, list[float]]]" = {}
    per_request: "dict[int, float]" = {}
    roots: "dict[int, str]" = {}
    rows = tracer.attribute(tracer.spans[first_span:], tracer.span_overhead())
    for span, self_time, root in rows:
        layers.setdefault(root.name, {}).setdefault(span.name, []).append(self_time)
        per_request[root.id] = per_request.get(root.id, 0.0) + self_time
        roots[root.id] = root.name
    totals: "dict[str, list[float]]" = {}
    for request, total in per_request.items():
        totals.setdefault(roots[request], []).append(total)
    return layers, totals


@dataclass
class Context:
    run: Run
    tracer: Tracer
    seconds: float
    scratch: str
    #: Graph reloaded from the index's checkpoint; probes may mutate it.
    graph_copy: object = None
    #: Mean records the kernel scored per query, for ``scan_inflation``.
    records_scored: float = 0.0

    def fresh_weights(self, label: str):
        return weight_stream(self.run.shape, self.run.seed, label, reuse=False)

    def path(self, name: str) -> str:
        return os.path.join(self.scratch, name)


@dataclass(frozen=True)
class Probe:
    layer: str
    metrics: "tuple[str, ...]"
    measure: Callable[[Context], dict]


# ----------------------------------------------------------------------
# Read side, on the freshly built index
# ----------------------------------------------------------------------
def probe_builder(ctx: Context) -> dict:
    graph = ctx.run.graph
    return {
        "core.builder.build_s": ctx.run.setup["build_s"],
        "core.builder.layers": graph.num_layers,
        "core.builder.edges": graph.edge_count(),
    }


def probe_compiled(ctx: Context) -> dict:
    batch_top_k = resolve("repro.core.compiled", "batch_top_k")
    run = ctx.run
    k = run.shape.k
    compile_s = min(timed(run.graph.compile) for _ in range(3))
    compiled = run.index.snapshot().compiled
    weights = ctx.fresh_weights("probe/compiled")
    singles, scored = [], []
    for _ in range(PROBE_OPS):
        function = next(weights)
        started = clock()
        result = compiled.top_k(function, k)
        singles.append(clock() - started)
        scored.append(result.stats.computed)
    batches = []
    for _ in range(PROBE_OPS // BATCH_WIDTH):
        functions = [next(weights) for _ in range(BATCH_WIDTH)]
        batches.append(timed(lambda: batch_top_k(compiled, functions, k)))
    ctx.records_scored = sum(scored) / len(scored)
    return {
        "core.compiled.compile_s": compile_s,
        "core.compiled.top_k_p50_us": US * p50(singles),
        "core.compiled.batch_us_per_query": US * p50(batches) / BATCH_WIDTH,
        "core.compiled.records_scored_per_query": ctx.records_scored,
    }


def probe_advanced(ctx: Context) -> dict:
    """The paper's own count: records the reference Traveler accesses."""
    traveler_cls = resolve("repro.core", "AdvancedTraveler")
    run = ctx.run
    traveler = traveler_cls(run.graph)
    weights = ctx.fresh_weights("probe/compiled")  # the kernel probe's queries
    accessed = [
        traveler.top_k(next(weights), run.shape.k).stats.accessed
        for _ in range(REFERENCE_QUERIES)
    ]
    mean = sum(accessed) / len(accessed)
    return {
        "core.advanced.records_accessed_per_query": mean,
        "core.compiled.scan_inflation": ctx.records_scored / mean,
    }


def probe_naive(ctx: Context) -> dict:
    run = ctx.run
    weights = ctx.fresh_weights("probe/naive")
    epoch = len(run.oracle.log)
    scans = [
        timed(lambda: run.oracle.expected(next(weights), run.shape.k, epoch))
        for _ in range(PROBE_OPS // 5)
    ]
    return {"baselines.naive.scan_p50_us": US * p50(scans)}


def probe_read_path(ctx: Context) -> dict:
    """Shadow of ``ServingIndex.query`` for an uncached linear query."""
    admission_cls, cache_cls, cache_key = resolve(
        "repro.serve", "AdmissionController", "ResultCache", "cache_key"
    )
    counter_cls = resolve("repro.core", "BudgetedAccessCounter")
    boards_cls, retry_cls, timeouts_cls = resolve(
        "repro.resilience", "BreakerBoard", "RetryPolicy", "TimeoutPolicy"
    )
    run, tracer = ctx.run, ctx.tracer
    span = tracer.span
    k = run.shape.k
    snapshot = run.index.snapshot()
    compiled, epoch = snapshot.compiled, snapshot.epoch
    # Constructed as ServingIndex.__init__ constructs its own.
    admission = admission_cls(max_concurrent=8, max_waiting=16, wait_timeout=5.0)
    cache = cache_cls(256)
    breakers = boards_cls(window=8, min_calls=3, cooldown=0.5)
    retry = retry_cls(attempts=2, base_delay=0.005)
    timeouts = timeouts_cls()

    def shadow_query(function):
        with span("shadow.read"):
            with span("resilience.policy.deadline"):
                deadline = timeouts.deadline_for(None)
            with span("serve.admission"), admission.admit(deadline=deadline):
                with span("serve.cache.key"):
                    key = cache_key(function, k, epoch)
                with span("serve.cache.get"):
                    cache.get(key)
                started = time.monotonic()
                with span("resilience.breaker.allow"):
                    breaker = breakers.get("tier:compiled")
                    breaker.allow()

                def attempt():
                    with span("core.guard.counter"):
                        counter = counter_cls(started=started, deadline=deadline)
                    with span("core.compiled"):
                        result = compiled.top_k(
                            function, k, stats=counter, deadline=deadline
                        )
                    with span("core.guard.enforce"):
                        counter.enforce()
                    return result

                with span("resilience.policy.retry"):
                    result = retry.run(attempt, deadline=deadline)
                with span("resilience.breaker.record"):
                    breaker.record_success(MS * (time.monotonic() - started))
                with span("core.result"):
                    final = replace(result, tier="compiled", epoch=epoch)
                with span("serve.cache.put"):
                    cache.put(key, final)
        return key, final

    weights = ctx.fresh_weights("probe/read-path")
    first_span = len(tracer.spans)
    real, keys = [], []
    for _ in range(PROBE_OPS):
        function = next(weights)
        real.append(timed(lambda: run.index.query(function, k)))
        run.tally.attempted += 1
        key, final = shadow_query(function)
        keys.append(key)
    hits = [timed(lambda: cache.get(key)) for key in keys[-200:]]

    layers, totals = attribute_requests(tracer, first_span)
    layer = {name: p50(values) for name, values in layers["shadow.read"].items()}
    real_p50 = p50(real)
    cache_miss = layer["serve.cache.get"] + layer["serve.cache.put"]
    attributed = (
        layer["serve.admission"]
        + layer["serve.cache.key"]
        + cache_miss
        + layer["core.compiled"]
    )
    return {
        "serve.admission.admit_us": US * layer["serve.admission"],
        "serve.cache.key_us": US * layer["serve.cache.key"],
        "serve.cache.miss_put_us": US * cache_miss,
        "serve.cache.get_hit_us": US * p50(hits),
        "core.guard.counter_overhead_us": US
        * (layer["core.guard.counter"] + layer["core.guard.enforce"]),
        "serve.index.query_self_us": US * (real_p50 - attributed),
        "trace.read_closure": p50(totals["shadow.read"]) / real_p50,
    }


# ----------------------------------------------------------------------
# The measured phases again, traced, and the index's own counters
# ----------------------------------------------------------------------
def probe_phases(ctx: Context) -> dict:
    run = ctx.run
    # Reads with tracing off and on, turn by turn, so that a slow stretch
    # of the host hits both alike: the ratio is what the spans cost.
    run.park()
    run.tracer = ctx.tracer
    k = run.shape.k
    untraced, traced = [], []
    end = clock() + 2 * OVERHEAD_SHARE * ctx.seconds
    while clock() < end:
        function = next(run.reads)
        untraced.append(timed(lambda: run.index.query(function, k)))
        function = next(run.reads)
        traced.append(timed(lambda: run.traced_query(function, k)))
    run.tally.attempted += len(untraced) + len(traced)
    cache_before = run.index.health()["cache"]
    latencies = measure(run, TRACED_PHASES_SHARE * ctx.seconds)
    run.tracer = None

    health = run.index.health()
    cache_after = health["cache"]
    lookups = sum(cache_after[key] - cache_before[key] for key in ("hits", "misses"))
    overlay = health["overlay"]
    folds = overlay["compactions"]
    return {
        **tail_metrics(latencies),
        "trace.overhead_ratio": p50(traced) / p50(untraced),
        "serve.cache.hit_ratio": (
            (cache_after["hits"] - cache_before["hits"]) / lookups
        ),
        "serve.cache.evictions": cache_after["evictions"] - cache_before["evictions"],
        "serve.admission.admitted": health["admission"]["admitted"],
        "serve.admission.shed": health["admission"]["shed"],
        "serve.admission.peak_active": health["admission"]["peak_active"],
        "serve.index.publish_p50_ms": health["store"]["publish"]["p50_ms"],
        "serve.index.delta_publishes": overlay["delta_publishes"],
        "serve.index.overlay_fallbacks": overlay["fallbacks"],
        "serve.index.folds": folds["count"],
        "serve.index.fold_ms": folds["total_ms"] / folds["count"],
        "serve.index.degraded_ratio": run.tally.degraded / run.tally.attempted,
    }


# ----------------------------------------------------------------------
# Write side, persistence and the fabric
# ----------------------------------------------------------------------
def probe_graphstore(ctx: Context) -> dict:
    save, load = resolve("repro.store", "save_graph_store", "load_graph_store")
    run = ctx.run
    name = run.index.checkpoint()
    path = os.path.join(run.directory, name)
    loads = []
    for _ in range(3):
        started = clock()
        ctx.graph_copy = load(path)
        loads.append(clock() - started)
    saves = [
        timed(lambda: save(ctx.graph_copy, ctx.path("probe.dgs"), durable=True))
        for _ in range(3)
    ]
    return {
        "store.graphstore.save_ms": MS * p50(saves),
        "store.graphstore.load_ms": MS * p50(loads),
        "store.format.file_bytes": os.path.getsize(path),
    }


def probe_write_path(ctx: Context) -> dict:
    """Shadow of ``ServingIndex.insert`` / ``delete`` on a private graph.

    The shadow applies the write stream's next operation to a copy of
    the graph reloaded from a checkpoint taken now, then the real index
    applies the very same operation, turn by turn, so both sides do
    identical maintenance work on identical graphs at the same moment.
    """
    validate_insert, validate_delete, insert_record, delete_record, builder_cls = resolve(
        "repro.core.maintenance",
        "validate_insert_batch",
        "validate_delete_batch",
        "insert_record",
        "delete_record",
        "OverlayBuilder",
    )
    create_wal, wal_cls, cache_cls = resolve(
        "repro.serve", "create_wal", "WriteAheadLog", "ResultCache"
    )
    run, tracer = ctx.run, ctx.tracer
    span = tracer.span
    graph = ctx.graph_copy
    builder = builder_cls(graph.compile().detach())
    cache = cache_cls(256)
    wal_path = ctx.path("shadow.wal")
    create_wal(wal_path, base_seq=0)

    first_span = len(tracer.spans)
    stream = copy.deepcopy(run.writes)
    real: "dict[str, list[float]]" = {"insert": [], "delete": []}
    with wal_cls(wal_path, fsync=INDEX_KNOBS["fsync"]) as wal:
        for epoch in range(1, SHADOW_WRITES + 1):
            kind, rid = stream.next()
            inserting = kind == "insert"
            with span(f"shadow.{kind}"):
                with span("core.maintenance.validate"):
                    (validate_insert if inserting else validate_delete)(graph, [rid])
                with span("core.maintenance"):
                    (insert_record if inserting else delete_record)(graph, rid)
                with span("serve.wal"):
                    wal.append({"op": kind, "rid": rid})
                with span("core.overlay"):
                    if inserting:
                        builder.insert(rid, graph.vector(rid))
                    else:
                        builder.delete(rid)
                    builder.freeze()
                with span("serve.cache.purge"):
                    cache.purge_other_epochs(epoch)
            # The copied stream and the run's own advance in lockstep, so
            # this is the same operation on the same graph state, taken
            # within a millisecond of its shadow.
            _, elapsed = run.write()
            real[kind].append(elapsed)

    layers, totals = attribute_requests(tracer, first_span)
    inserts, deletes = layers["shadow.insert"], layers["shadow.delete"]
    return {
        "core.maintenance.insert_p50_ms": MS * p50(inserts["core.maintenance"]),
        "core.maintenance.delete_p50_ms": MS * p50(deletes["core.maintenance"]),
        "serve.wal.append_us": US * p50(inserts["serve.wal"] + deletes["serve.wal"]),
        "serve.wal.bytes_per_op": os.path.getsize(wal_path) / SHADOW_WRITES,
        "trace.write_closure": p50(totals["shadow.insert"]) / p50(real["insert"]),
    }


def probe_wal(ctx: Context) -> dict:
    create_wal, wal_cls, scan_wal = resolve(
        "repro.serve", "create_wal", "WriteAheadLog", "scan_wal"
    )
    path = ctx.path("probe.wal")
    create_wal(path, base_seq=0)
    with wal_cls(path, fsync="always") as wal:
        synced = [
            timed(lambda: wal.append({"op": "insert", "rid": rid}))
            for rid in range(50)
        ]
    with wal_cls(path, fsync="never") as wal:
        for rid in range(50, 5000):
            wal.append({"op": "insert", "rid": rid})
    started = clock()
    scan = scan_wal(path)
    elapsed = clock() - started
    return {
        "serve.wal.append_fsync_ms": MS * p50(synced),
        "serve.wal.scan_ops_s": len(scan.records) / elapsed,
    }


def probe_overlay(ctx: Context) -> dict:
    overlay_top_k = resolve("repro.core.overlay", "overlay_top_k")
    run = ctx.run
    k = run.shape.k
    run.index.compact()
    for _ in range(OVERLAY_CHANGES):
        run.write()
    snapshot = run.index.snapshot()
    weights = ctx.fresh_weights("probe/overlay")
    merged, base = [], []
    for _ in range(PROBE_OPS // 2):
        function = next(weights)
        merged.append(
            timed(
                lambda: overlay_top_k(snapshot.compiled, snapshot.overlay, function, k)
            )
        )
        base.append(timed(lambda: snapshot.compiled.top_k(function, k)))
    return {
        "core.overlay.top_k_p50_us": US * p50(merged),
        "core.overlay.merge_overhead_us": US * (p50(merged) - p50(base)),
    }


def probe_mapped(ctx: Context) -> dict:
    directory_cls, open_store = resolve("repro.store", "StoreDirectory", "open_store")
    compiled = ctx.run.index.snapshot().compiled
    handle = directory_cls(ctx.path("mapped")).publish_compiled(
        compiled, durable=False
    )
    fast, deep, views = [], [], []
    for _ in range(5):
        started = clock()
        store = open_store(handle.path)
        fast.append(clock() - started)
        views.append(timed(store.compiled))
        store.close()
        started = clock()
        open_store(handle.path, deep=True).close()
        deep.append(clock() - started)
    return {
        "store.mapped.open_fast_ms": MS * p50(fast),
        "store.mapped.open_deep_ms": MS * p50(deep),
        "store.mapped.compiled_ms": MS * p50(views),
    }


def probe_io(ctx: Context) -> dict:
    """The legacy ``.npz`` container, same graph as ``store.graphstore``."""
    save_graph, load_graph = resolve("repro.core", "save_graph", "load_graph")
    saves, loads = [], []
    for _ in range(3):
        started = clock()
        path = save_graph(ctx.graph_copy, ctx.path("probe-io"), durable=True)
        saves.append(clock() - started)
        loads.append(timed(lambda: load_graph(path)))
    return {
        "core.io.save_ms": MS * p50(saves),
        "core.io.load_ms": MS * p50(loads),
        "core.io.file_bytes": os.path.getsize(path),
    }


def probe_executor(ctx: Context) -> dict:
    """One worker in batch mode against the in-process sweep, same batches.

    No workload routes through the fabric: with two cores, worker scaling
    would measure the scheduler.  What is measured is its fixed cost.
    """
    executor_cls = resolve("repro.parallel", "ParallelQueryExecutor")
    batch_top_k = resolve("repro.core.compiled", "batch_top_k")
    run = ctx.run
    k = run.shape.k
    compiled = run.index.snapshot().compiled
    weights = ctx.fresh_weights("probe/executor")
    batches = [[next(weights) for _ in range(BATCH_WIDTH)] for _ in range(20)]
    started = clock()
    pool = executor_cls(
        compiled, workers=1, batch_size=BATCH_WIDTH, snapshot_dir=ctx.path("spool")
    )
    try:
        pool.map_queries(batches[0], k, mode="batch")
        spawn_s = clock() - started
        publish_s = timed(lambda: pool.publish(compiled, epoch=1))
        started = clock()
        answers = [pool.map_queries(batch, k, mode="batch") for batch in batches]
        elapsed = clock() - started
    finally:
        pool.shutdown()
    for batch, answer in zip(batches, answers):
        run.tally.attempted += 1
        expected = batch_top_k(compiled, batch, k)
        if [r.ids for r in answer] != [r.ids for r in expected]:
            run.tally.mismatched += 1
    return {
        "parallel.executor.spawn_s": spawn_s,
        "parallel.executor.publish_ms": MS * publish_s,
        "parallel.executor.batch_qps_w1": len(batches) * BATCH_WIDTH / elapsed,
    }


# ----------------------------------------------------------------------
# Two threads: what the closed-loop phases cannot show
# ----------------------------------------------------------------------
def open_loop(
    rate: float,
    seconds: float,
    operation: Callable[[int], None],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> "tuple[list[float], list[float], float]":
    """Issue ``operation`` on a fixed schedule, however slow it is.

    Returns ``(latencies, lags, elapsed)``: each latency runs from the
    operation's *due* time, so the wait a stall imposes on the
    operations queued behind it is counted; each lag is how late the
    generator itself started the operation.
    """
    start = clock()
    latencies, lags = [], []
    for i in range(int(rate * seconds)):
        due = start + i / rate
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        lags.append(now - due)
        operation(i)
        latencies.append(clock() - due)
    return latencies, lags, clock() - start


def probe_concurrent(ctx: Context) -> dict:
    """Open-loop reader and writer threads with the background compactor.

    Runs on a recovered copy of the directory opened with
    ``compact_interval`` set, and advances the run's write stream and
    model, so it has to be the last thing that touches either.
    """
    serving_cls = resolve("repro.serve", "ServingIndex")
    run = ctx.run
    k = run.shape.k
    seconds = CONCURRENT_SHARE * ctx.seconds
    image = ctx.path("concurrent")
    shutil.copytree(run.directory, image)
    epoch_zero = len(run.oracle.log)
    index = serving_cls.open(image, compact_interval=0.05, **INDEX_KNOBS)
    weights = ctx.fresh_weights("probe/concurrent")
    samples = []
    outcome: dict = {}

    def read(i: int) -> None:
        function = next(weights)
        result = index.query(function, k)
        if i % 50 == 0:
            samples.append((function, result))

    def write(_: int) -> None:
        kind, rid = run.writes.next()
        (index.insert if kind == "insert" else index.delete)(rid)
        run.oracle.record(kind, rid)

    def writer() -> None:
        try:
            outcome["writes"] = open_loop(WRITE_RATE, seconds, write)
        except BaseException as exc:  # re-raised on the main thread below
            outcome["error"] = exc

    thread = threading.Thread(target=writer, name="bench-writer")
    try:
        thread.start()
        reads, lags, _ = open_loop(READ_RATE, seconds, read)
        thread.join(timeout=60.0)
        if thread.is_alive():
            raise RuntimeError("the writer thread did not finish")
        if "error" in outcome:
            raise outcome["error"]
        compactor = index.health()["overlay"]["compactor"]
    finally:
        index.close(checkpoint=False)
    run.tally.attempted += len(reads) + len(outcome["writes"][0])
    run.verify(samples, index_epoch_zero=epoch_zero)
    writes, _, write_elapsed = outcome["writes"]
    scheduled = len(writes) / WRITE_RATE  # seconds the schedule allowed
    reads, lags, writes = sorted(reads), sorted(lags), sorted(writes)
    return {
        "client.sched_lag_p50_ms": MS * stats.percentile(lags, 50),
        "client.sched_lag_p99_ms": MS * stats.percentile(lags, 99),
        "client.read_due_p50_ms": MS * stats.percentile(reads, 50),
        "client.read_due_p99_ms": MS * stats.percentile(reads, 99),
        "client.write_due_p99_ms": MS * stats.percentile(writes, 99),
        "client.write_attainment": scheduled / max(write_elapsed, scheduled),
        "serve.compactor.folds": compactor["compactions"],
        "serve.compactor.skipped": compactor["skipped"],
        "serve.compactor.busy_ms": compactor["total_ms"],
    }


#: In run order.  Order matters: the read-side probes want the index as
#: built, the write-side ones need ``probe_graphstore``'s reloaded graph,
#: and ``probe_concurrent`` leaves the live index behind the model.  Each
#: probe names its metrics up front so that a missing layer can report
#: them as ``null``.
PROBES = (
    Probe(
        "core.builder",
        (
            "core.builder.build_s",
            "core.builder.layers",
            "core.builder.edges",
        ),
        probe_builder,
    ),
    Probe(
        "core.compiled",
        (
            "core.compiled.compile_s",
            "core.compiled.top_k_p50_us",
            "core.compiled.batch_us_per_query",
            "core.compiled.records_scored_per_query",
        ),
        probe_compiled,
    ),
    Probe(
        "core.advanced",
        (
            "core.advanced.records_accessed_per_query",
            "core.compiled.scan_inflation",
        ),
        probe_advanced,
    ),
    Probe(
        "baselines.naive",
        ("baselines.naive.scan_p50_us",),
        probe_naive,
    ),
    Probe(
        "serve.index (read path)",
        (
            "serve.admission.admit_us",
            "serve.cache.key_us",
            "serve.cache.miss_put_us",
            "serve.cache.get_hit_us",
            "core.guard.counter_overhead_us",
            "serve.index.query_self_us",
            "trace.read_closure",
        ),
        probe_read_path,
    ),
    Probe(
        "serve.index (counters)",
        (
            "trace.overhead_ratio",
            "serve.cache.hit_ratio",
            "client.read_p99_ms",
            "client.read_p999_ms",
            "client.batch_p95_ms",
            "client.write_p99_ms",
            "serve.index.publish_p50_ms",
            "serve.index.fold_ms",
            "serve.cache.evictions",
            "serve.admission.admitted",
            "serve.admission.shed",
            "serve.admission.peak_active",
            "serve.index.delta_publishes",
            "serve.index.overlay_fallbacks",
            "serve.index.folds",
            "serve.index.degraded_ratio",
        ),
        probe_phases,
    ),
    Probe(
        "store.graphstore",
        (
            "store.graphstore.save_ms",
            "store.graphstore.load_ms",
            "store.format.file_bytes",
        ),
        probe_graphstore,
    ),
    Probe(
        "serve.index (write path)",
        (
            "core.maintenance.insert_p50_ms",
            "core.maintenance.delete_p50_ms",
            "serve.wal.append_us",
            "serve.wal.bytes_per_op",
            "trace.write_closure",
        ),
        probe_write_path,
    ),
    Probe(
        "serve.wal",
        (
            "serve.wal.append_fsync_ms",
            "serve.wal.scan_ops_s",
        ),
        probe_wal,
    ),
    Probe(
        "core.overlay",
        (
            "core.overlay.top_k_p50_us",
            "core.overlay.merge_overhead_us",
        ),
        probe_overlay,
    ),
    Probe(
        "store.mapped",
        (
            "store.mapped.open_fast_ms",
            "store.mapped.open_deep_ms",
            "store.mapped.compiled_ms",
        ),
        probe_mapped,
    ),
    Probe(
        "core.io",
        (
            "core.io.save_ms",
            "core.io.load_ms",
            "core.io.file_bytes",
        ),
        probe_io,
    ),
    Probe(
        "parallel.executor",
        (
            "parallel.executor.spawn_s",
            "parallel.executor.publish_ms",
            "parallel.executor.batch_qps_w1",
        ),
        probe_executor,
    ),
    Probe(
        "client + serve.compactor",
        (
            "client.sched_lag_p50_ms",
            "client.sched_lag_p99_ms",
            "client.read_due_p50_ms",
            "client.read_due_p99_ms",
            "client.write_due_p99_ms",
            "client.write_attainment",
            "serve.compactor.folds",
            "serve.compactor.skipped",
            "serve.compactor.busy_ms",
        ),
        probe_concurrent,
    ),
)


def run_traced(
    scale: Scale,
    shape: Shape,
    seed: int,
    seconds: float,
    workdir: str,
    trace_out: str,
) -> dict:
    """Set up once, run every probe, write the spans; per-layer metrics."""
    tracer = Tracer()
    run = Run(scale, shape, seed, workdir)
    scratch = os.path.join(workdir, "probes")
    os.makedirs(scratch)
    ctx = Context(run, tracer, seconds, scratch)
    metrics: "dict[str, float | None]" = {}
    skipped = []
    try:
        run.set_up()
        for probe in PROBES:
            try:
                values = probe.measure(ctx)
            except LayerMissing as missing:
                skipped.append(f"{probe.layer}: {missing}")
                values = {}
            for name in probe.metrics:
                metrics[name] = values.get(name)
    finally:
        run.close()
    tracer.dump(trace_out)
    metrics["process.peak_rss_mb"] = peak_rss_mb()
    return {
        "metrics": metrics,
        "tally": run.tally,
        "phases": run.phases,
        "layers_skipped": skipped,
        "spans": len(tracer.spans),
        "trace_file": os.path.relpath(trace_out),
    }
