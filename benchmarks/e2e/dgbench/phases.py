"""The measured run: set-up, then time-boxed phases against one live index.

Every phase is a closed loop with one client on one thread: the next
operation is issued when the previous one returned.  (Latencies taken
with a second thread running repeat 2-5x worse from run to run on a
2-core host, so concurrency is measured only in the traced run's
``client.*`` layer metrics, see :mod:`dgbench.probes`.)  A phase's
length is its share of ``--seconds``; how many operations fit is the
measurement.
"""

from __future__ import annotations

import glob
import os
import resource
import shutil
import statistics
import tempfile
import time
import warnings
from dataclasses import dataclass, field

from repro.core.builder import build_dominant_graph
from repro.errors import DegradedResultWarning, ReproError
from repro.serve import ServingIndex

from dgbench import stats
from dgbench.loadgen import (
    BATCH_WIDTH,
    Scale,
    Shape,
    WriteStream,
    make_dataset,
    weight_stream,
)
from dgbench.oracle import Oracle
from dgbench.tracing import Tracer

#: Share of ``--seconds`` each phase measures for.  The same on every
#: workload: every metric has to be steady on every workload, and a
#: phase's steadiness is set by how long it runs.
PHASE_SHARE = {
    "read": 0.25,
    "batch": 0.15,
    "write": 0.30,
    "persist": 0.30,
}
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Every n-th read is kept for the oracle (and every batch's first answer).
SAMPLE_EVERY = 50
#: Reads checked against the oracle after each recovery.
VERIFY_READS = 40
#: Checkpoint-and-recover rounds run at least this often, however short the box.
MIN_ROUNDS = 3
#: Every knob not named here is the serving index's default.
INDEX_KNOBS = {"fsync": "batch", "checkpoint_interval": None}

clock = time.perf_counter
MS = 1000.0


@dataclass
class Tally:
    attempted: int = 0
    errors: int = 0
    mismatched: int = 0
    degraded: int = 0

    @property
    def failed(self) -> int:
        return self.errors + self.mismatched + self.degraded


@dataclass
class Run:
    """One workload's live state: inputs, index, model, counters."""

    scale: Scale
    shape: Shape
    seed: int
    workdir: str
    tracer: "Tracer | None" = None
    tally: Tally = field(default_factory=Tally)
    phases: dict = field(default_factory=dict)
    setup: dict = field(default_factory=dict)
    index: "ServingIndex | None" = None

    def set_up(self) -> None:
        """Generate data, build, create the serving directory, warm up.

        Replaces any index a previous call created, so calling it again
        times a second, independent set-up of the same inputs.
        """
        self.close()
        started = clock()
        self.dataset = make_dataset(self.scale, self.shape, self.seed)
        generated = clock()
        self.graph = build_dominant_graph(
            self.dataset, record_ids=range(self.scale.indexed)
        )
        built = clock()
        self.directory = os.path.join(
            tempfile.mkdtemp(prefix="serve-", dir=self.workdir), "index"
        )
        self.index = ServingIndex.create(self.directory, self.graph, **INDEX_KNOBS)
        created = clock()
        warm = weight_stream(self.shape, self.seed, "warmup", reuse=False)
        for _ in range(self.scale.warmup_queries):
            self.index.query(next(warm), self.shape.k)
        warmed = clock()
        self.setup = {
            "total_s": warmed - started,
            "datagen_s": generated - started,
            "build_s": built - generated,
            "create_s": created - built,
            "warmup_s": warmed - created,
        }
        self.writes = WriteStream(self.scale, self.seed)
        self.oracle = Oracle(self.dataset, self.writes.alive)
        self.reads = weight_stream(self.shape, self.seed, "reads")
        (checkpoint,) = glob.glob(os.path.join(self.directory, "*.dgs"))
        self.store_bytes_per_record = (
            os.path.getsize(checkpoint) / self.scale.indexed
        )

    def close(self) -> None:
        if self.index is not None:
            self.index.close(checkpoint=False)
            shutil.rmtree(os.path.dirname(self.directory))
            self.index = None

    # -- operations ----------------------------------------------------
    def write(self) -> "tuple[str, float]":
        """Apply the stream's next write; ``(kind, seconds)``."""
        kind, rid = self.writes.next()
        apply = self.index.insert if kind == "insert" else self.index.delete
        self.tally.attempted += 1
        started = clock()
        if self.tracer is None:
            apply(rid)
        else:
            with self.tracer.span("client.write"):
                with self.tracer.span(f"serve.index.{kind}"):
                    apply(rid)
        elapsed = clock() - started
        self.oracle.record(kind, rid)
        return kind, elapsed

    def traced_query(self, function, k: int):
        with self.tracer.span("client.read"):
            with self.tracer.span("serve.index.query"):
                return self.index.query(function, k)

    def park(self) -> None:
        """Fold the overlay, then leave ``shape.parked`` changes unfolded."""
        self.index.compact()
        for _ in range(self.shape.parked):
            self.write()

    def verify(self, samples: list, index_epoch_zero: "int | None" = None) -> None:
        """Check ``(function, result)`` samples against the oracle.

        ``index_epoch_zero`` is the model epoch a recovered index's own
        epoch 0 corresponds to (recovery restarts the counter).
        """
        for function, result in samples:
            epoch = (
                result.epoch
                if index_epoch_zero is None
                else index_epoch_zero + result.epoch
            )
            if not self.oracle.agrees(result, function, self.shape.k, epoch):
                self.tally.mismatched += 1

    def note(self, phase: str, ops: int, started: float) -> None:
        entry = self.phases.setdefault(phase, {"ops": 0, "wall_s": 0.0})
        entry["ops"] += ops
        entry["wall_s"] += clock() - started


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def op_phase(run: Run, seconds: float, pattern: str, name: str) -> dict:
    """Cycle through ``pattern`` ('r' = one read, 'w' = one write)."""
    query = run.index.query if run.tracer is None else run.traced_query
    k = run.shape.k
    latencies: "dict[str, list[float]]" = {
        "read": [], "insert": [], "delete": [], "write": []
    }  # fmt: skip
    reads = latencies["read"]
    samples = []
    started = clock()
    end = started + seconds
    while clock() < end:
        for op in pattern:
            if op == "w":
                kind, elapsed = run.write()
                latencies[kind].append(elapsed)
                latencies["write"].append(elapsed)
                continue
            function = next(run.reads)
            run.tally.attempted += 1
            begun = clock()
            try:
                result = query(function, k)
            except ReproError:
                run.tally.errors += 1
                continue
            reads.append(clock() - begun)
            if len(reads) % SAMPLE_EVERY == 0:
                samples.append((function, result))
    run.note(name, len(reads) + len(latencies["write"]), started)
    run.verify(samples)
    return latencies


def batch_phase(run: Run, seconds: float) -> "list[float]":
    k = run.shape.k
    latencies = []
    samples = []
    started = clock()
    end = started + seconds
    while clock() < end:
        functions = [next(run.reads) for _ in range(BATCH_WIDTH)]
        run.tally.attempted += 1
        begun = clock()
        try:
            if run.tracer is None:
                results = run.index.query_batch(functions, k)
            else:
                with run.tracer.span("client.batch"):
                    with run.tracer.span("serve.index.query_batch"):
                        results = run.index.query_batch(functions, k)
        except ReproError:
            run.tally.errors += 1
            continue
        latencies.append(clock() - begun)
        if len(results) != BATCH_WIDTH:
            run.tally.mismatched += 1
        samples.append((functions[0], results[0]))
    run.note("batch", len(latencies), started)
    run.verify(samples)
    return latencies


def persist_phase(run: Run, seconds: float) -> "dict[str, list[float]]":
    """Rounds of: checkpoint, log more writes, crash image, recover it.

    An image is a copy of the live directory taken without ``close()``:
    WAL appends have been flushed to the operating system but not
    fsynced, which is what a killed process leaves behind.  Every round
    checkpoints first and then logs ``shape.replay`` further writes, so
    each recovery replays a different WAL suffix and one unusually
    expensive write cannot sit in all of them; and the checkpoints are
    spread over the whole phase, not bunched where one slow second of
    the sandbox's disk would catch them all.
    """
    verify = weight_stream(run.shape, run.seed, "verify", reuse=False)
    checkpoints, recoveries = [], []
    started = clock()
    end = started + seconds
    while clock() < end or len(recoveries) < MIN_ROUNDS:
        run.tally.attempted += 2
        begun = clock()
        run.index.checkpoint()
        checkpoints.append(clock() - begun)
        for _ in range(run.shape.replay):
            run.write()
        model_epoch = len(run.oracle.log)
        image = os.path.join(run.workdir, f"image-{len(recoveries)}")
        shutil.copytree(run.directory, image)
        begun = clock()
        recovered = ServingIndex.open(image, **INDEX_KNOBS)
        recoveries.append(clock() - begun)
        try:
            alive = set(recovered.snapshot().alive_ids().tolist())
            if alive != run.oracle.alive_at(model_epoch):
                run.tally.mismatched += 1
            samples = []
            for _ in range(VERIFY_READS):
                function = next(verify)
                run.tally.attempted += 1
                samples.append((function, recovered.query(function, run.shape.k)))
            run.verify(samples, index_epoch_zero=model_epoch)
        finally:
            recovered.close(checkpoint=False)
            shutil.rmtree(image)
    run.note("persist", len(recoveries), started)
    return {"checkpoint": checkpoints, "recover": recoveries}


def measure(run: Run, seconds: float) -> "dict[str, list[float]]":
    """All phases in order; raw latency samples (seconds) by operation."""
    box = {name: share * seconds for name, share in PHASE_SHARE.items()}
    shape = run.shape
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run.park()
        if shape.reads_per_write:
            latencies = op_phase(
                run,
                box["read"] + box["write"],
                "r" * shape.reads_per_write + "w",
                "read+write",
            )
        else:
            latencies = op_phase(run, box["read"], "r", "read")
        run.park()
        latencies["batch"] = batch_phase(run, box["batch"])
        if not shape.reads_per_write:
            writes = op_phase(run, box["write"], "w", "write")
            del writes["read"]
            latencies.update(writes)
        latencies.update(persist_phase(run, box["persist"]))
    run.tally.degraded += sum(
        1 for warning in caught if issubclass(warning.category, DegradedResultWarning)
    )
    return latencies


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(latencies: dict) -> "dict[str, float]":
    """The timed end-to-end metrics from one run's raw samples.

    Medians and rates only, each the calm quartile over the phase's
    windows (see :mod:`dgbench.stats`).  Tails are not here: on this
    host a phase's p99 is set by how long the host was slow during it,
    and repeats no better than 20-50 % between runs of the same code, so
    they are per-layer ``client.*`` metrics without a bound.
    """
    return {
        "read_p50_ms": MS * stats.calm_percentile(latencies["read"], 50),
        "read_qps": stats.calm_rate(latencies["read"]),
        "batch_qps": stats.calm_rate(latencies["batch"], BATCH_WIDTH),
        "insert_p50_ms": MS * stats.calm_percentile(latencies["insert"], 50),
        "delete_p50_ms": MS * stats.calm_percentile(latencies["delete"], 50),
        "write_ops_s": stats.calm_rate(latencies["write"]),
        "checkpoint_ms": MS * stats.calm(latencies["checkpoint"]),
        "recover_s": stats.calm(latencies["recover"]),
    }


def tail_metrics(latencies: dict) -> "dict[str, float]":
    """Whole-phase tails, nearest rank: what a client saw, noise and all."""
    reads = sorted(latencies["read"])
    return {
        "client.read_p99_ms": MS * stats.percentile(reads, 99),
        "client.read_p999_ms": MS * stats.percentile(reads, 99.9),
        "client.batch_p95_ms": MS * stats.percentile(sorted(latencies["batch"]), 95),
        "client.write_p99_ms": MS * stats.percentile(sorted(latencies["write"]), 99),
    }


def sample_counts(latencies: dict) -> dict:
    """Per operation: samples taken and the highest percentile they support."""
    return {
        name: {
            "samples": len(values),
            "highest_supported_percentile": stats.highest_supported(len(values)),
        }
        for name, values in latencies.items()
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_end_to_end(
    scale: Scale, shape: Shape, seed: int, seconds: float, workdir: str
) -> dict:
    """The untraced run: every end-to-end metric, plus the run's details."""
    run = Run(scale, shape, seed, workdir)
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            run.set_up()
            setups.append(run.setup["total_s"])
        latencies = measure(run, seconds)
    finally:
        run.close()
    metrics = end_to_end_metrics(latencies)
    metrics["setup_s"] = statistics.median(setups)
    metrics["store_bytes_per_record"] = run.store_bytes_per_record
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {
        "metrics": metrics,
        "tally": run.tally,
        "phases": run.phases,
        "samples": sample_counts(latencies),
        "tails": tail_metrics(latencies),
        "setup_runs_s": setups,
        "setup_breakdown_s": run.setup,
    }
