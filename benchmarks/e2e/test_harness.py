"""Checks of the benchmark harness itself (``pytest benchmarks/e2e -q``).

Not part of the tier-1 suite: the smoke runs take about half a minute.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

from dgbench import loadgen, probes, stats
from dgbench.oracle import Oracle
from dgbench.tracing import Tracer, check_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SCRIPT = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def smoke(workload: str, trace: int, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, SCRIPT, "--workload", workload, "--seed", "7", "--smoke",
         "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_runs(contract, tmp_path_factory) -> dict:
    """Every workload once untraced and once traced, at smoke scale."""
    spans = tmp_path_factory.mktemp("spans")
    runs = {}
    started = time.monotonic()
    for workload in contract["workloads"]:
        runs[workload["name"], 0] = smoke(workload["name"], 0)
    runs["untraced_seconds"] = time.monotonic() - started
    for workload in contract["workloads"]:
        name = workload["name"]
        path = str(spans / f"{name}.json")
        runs[name, 1] = smoke(name, 1, "--trace-out", path)
        with open(path) as handle:
            runs[name, "spans"] = json.load(handle)
    return runs


# ----------------------------------------------------------------------
# The contract file
# ----------------------------------------------------------------------
def test_contract_is_within_the_drivers_limits(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert contract["paths"] == ["benchmarks/e2e"]
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for entry in contract["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in contract["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = [e for e in contract["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in contract["end_to_end"])


def test_contract_names_what_the_harness_measures(contract):
    assert {w["name"] for w in contract["workloads"]} == set(loadgen.SHAPES)
    declared = [name for probe in probes.PROBES for name in probe.metrics]
    declared.append("process.peak_rss_mb")
    assert [e["name"] for e in contract["per_layer"]] == declared


# ----------------------------------------------------------------------
# Smoke runs of the real command
# ----------------------------------------------------------------------
def test_smoke_runs_emit_every_named_metric(contract, smoke_runs):
    assert smoke_runs["untraced_seconds"] < 60
    for workload in contract["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            summary = smoke_runs[workload["name"], trace]
            assert set(summary) == {"correct", "attempted", "failed", "metrics"}
            assert summary["correct"] is True and summary["failed"] == 0
            assert summary["attempted"] >= 1
            expected = {e["name"]: e["unit"] for e in contract[key]}
            measured = {n: m["unit"] for n, m in summary["metrics"].items()}
            assert measured == expected
            for name, metric in summary["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name


def test_cache_is_bypassed_or_used_as_each_workload_says(smoke_runs):
    distinct = smoke_runs["read_distinct", 1]["metrics"]
    repeat = smoke_runs["batch_repeat", 1]["metrics"]
    assert distinct["serve.cache.hit_ratio"]["value"] == 0
    assert 0.3 < repeat["serve.cache.hit_ratio"]["value"] < 0.9
    writes = smoke_runs["write_recover", 1]["metrics"]
    assert writes["serve.index.delta_publishes"]["value"] > 0
    assert writes["serve.index.overlay_fallbacks"]["value"] == 0


def test_span_files_are_well_formed(contract, smoke_runs):
    for workload in contract["workloads"]:
        records = smoke_runs[workload["name"], "spans"]
        assert records, workload["name"]
        assert check_spans(records) == []
        names = {record["name"] for record in records}
        assert {"shadow.read", "core.compiled", "shadow.insert", "serve.wal"} <= names


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, there is nothing to measure."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "read_distinct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0
    assert not done.stdout.strip()


# ----------------------------------------------------------------------
# Load generation and the model
# ----------------------------------------------------------------------
def test_same_seed_same_operations_other_seed_other_operations():
    shape = loadgen.SHAPES["batch_repeat"]
    first = loadgen.sequence_hash(loadgen.SMOKE, shape, 3)
    assert first == loadgen.sequence_hash(loadgen.SMOKE, shape, 3)
    assert first != loadgen.sequence_hash(loadgen.SMOKE, shape, 4)


def test_reusing_stream_draws_from_a_bounded_pool():
    shape = loadgen.SHAPES["batch_repeat"]
    stream = loadgen.weight_stream(shape, 5, "reads")
    drawn = {next(stream).weights.tobytes() for _ in range(5000)}
    assert len(drawn) <= loadgen.PREFERENCE_POOL
    fresh = loadgen.weight_stream(loadgen.SHAPES["read_distinct"], 5, "reads")
    assert len({next(fresh).weights.tobytes() for _ in range(5000)}) == 5000


def test_write_stream_is_its_own_model():
    stream = loadgen.WriteStream(loadgen.SMOKE, 9)
    alive = set(range(loadgen.SMOKE.indexed))
    for step in range(1000):
        kind, rid = stream.next()
        assert kind == ("insert" if step % 2 == 0 else "delete")
        if kind == "insert":
            assert rid not in alive
            alive.add(rid)
        else:
            alive.remove(rid)
        assert set(stream.alive) == alive


def test_oracle_replays_the_log_to_any_epoch():
    scale, shape = loadgen.SMOKE, loadgen.SHAPES["read_distinct"]
    dataset = loadgen.make_dataset(scale, shape, 2)
    stream = loadgen.WriteStream(scale, 2)
    oracle = Oracle(dataset, stream.alive)
    states = [set(stream.alive)]
    for _ in range(40):
        oracle.record(*stream.next())
        states.append(set(stream.alive))
    for epoch in (40, 7, 0, 23, 23, 40):
        assert oracle.alive_at(epoch) == states[epoch]
    function = next(loadgen.weight_stream(shape, 2, "reads"))
    ids, scores = oracle.expected(function, 5, 40)
    assert set(ids) <= states[40] and list(scores) == sorted(scores, reverse=True)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_highest_supported_percentile_keeps_ten_samples_beyond():
    assert stats.highest_supported(15) is None
    assert stats.highest_supported(30) == 50.0
    assert stats.highest_supported(150) == 90.0
    assert stats.highest_supported(300) == 95.0
    assert stats.highest_supported(1500) == 99.0
    assert stats.highest_supported(20000) == 99.9
    for count in (30, 150, 300, 1500, 20000):
        assert stats.samples_beyond(count, stats.highest_supported(count)) >= 10


def test_percentile_is_nearest_rank():
    ordered = list(range(1, 101))
    assert stats.percentile(ordered, 50) == 51
    assert stats.percentile(ordered, 99) == 100
    assert stats.percentile([4.0], 99.9) == 4.0


def test_relative_spread_is_iqr_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / q2)


# ----------------------------------------------------------------------
# The open-loop scheduler and the tracer, under a fake clock
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        assert seconds > 0
        self.now += seconds


def test_open_loop_times_from_due_time():
    clock = FakeClock()
    service = {3: 0.35}  # the fourth operation stalls for 3.5 periods

    def operation(i: int) -> None:
        clock.now += service.get(i, 0.01)

    latencies, lags, elapsed = probes.open_loop(
        10.0, 1.0, operation, clock=clock, sleep=clock.sleep
    )
    assert len(latencies) == 10
    assert latencies[:3] == pytest.approx([0.01] * 3)
    assert latencies[3] == pytest.approx(0.35)
    # Operations 4-6 were due during the stall: they start late and
    # their latency counts the wait.
    assert lags[4:7] == pytest.approx([0.25, 0.16, 0.07])
    assert latencies[4:7] == pytest.approx([0.26, 0.17, 0.08])
    assert lags[7] == pytest.approx(0, abs=1e-9)
    assert latencies[7] == pytest.approx(0.01)
    assert elapsed == pytest.approx(0.91)


def test_spans_nest_within_a_request():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    for _ in range(2):
        with tracer.span("request"):
            clock.now += 1
            with tracer.span("layer"):
                clock.now += 2
                with tracer.span("inner"):
                    clock.now += 4
            clock.now += 8
    records = [span.as_dict() for span in tracer.spans]
    assert check_spans(records) == []
    assert [r["request"] for r in records] == [0, 0, 0, 3, 3, 3]
    assert [r["parent"] for r in records] == [None, 0, 1, None, 3, 4]
    rows = tracer.attribute()
    assert [self_time for _, self_time, _ in rows[:3]] == [9, 2, 4]
    assert all(root.name == "request" for _, _, root in rows)
    records[2]["end"] = records[1]["end"] + 1
    records[5]["request"] = 0
    assert len(check_spans(records)) == 2
