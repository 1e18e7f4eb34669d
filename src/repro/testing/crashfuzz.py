"""Crash-recovery fuzz: kill the writer anywhere, recovery must be exact.

Each trial runs a randomized serving session — create a
:class:`~repro.serve.index.ServingIndex`, apply a random schedule of
inserts / deletes / mark-deleteds / batches, maybe checkpoint partway —
then simulates a crash by copying the serving directory with the WAL
truncated at a random byte offset (record boundaries *and* mid-record
cuts are both drawn).  The recovered index must:

1. answer top-k bit-identically — same ids, same float scores — to a
   from-scratch :func:`~repro.core.builder.build_dominant_graph` over
   the records that survive the surviving operations, for k in
   {1, 10, 50} over several random weight vectors, as it serves them
   right after opening (the checkpoint's base plus the WAL suffix as an
   overlay);
2. pass :func:`repro.core.verify.verify_graph` (structural soundness)
   on the graph it then builds from checkpoint + replay;
3. answer the same queries identically again once that graph is folded
   into the base.

"Surviving operations" are computed by replaying the truncated WAL's
intact records over the checkpoint with the same maintenance code — so
the oracle is sequential maintenance, and the comparison closes the
triangle sequential == checkpoint+replay == rebuild.

Any typed recovery error other than the tolerated torn-tail warning,
any verification issue, or any answer mismatch fails the trial.  Used
by the CI concurrency job::

    PYTHONPATH=src python -m repro.testing.crashfuzz --trials 25

Exit status 0 on success, 1 on any contract violation.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import warnings

import numpy as np

from repro.core.builder import build_dominant_graph
from repro.core.compiled import CompiledAdvancedTraveler
from repro.core.dataset import Dataset
from repro.core.functions import LinearFunction
from repro.core.verify import format_issues, verify_graph
from repro.serve.index import ServingIndex
from repro.testing.concurrency import crash_offsets, crashed_copy

K_VALUES = (1, 10, 50)
WEIGHT_VECTORS = 5


def _random_session(index: ServingIndex, rng, pending: list, alive: set) -> None:
    """Apply a random maintenance schedule to a live serving index."""
    for _ in range(int(rng.integers(8, 25))):
        choice = rng.random()
        if choice < 0.40 and pending:
            rid = pending.pop()
            index.insert(rid)
            alive.add(rid)
        elif choice < 0.55 and len(pending) >= 3:
            batch = [pending.pop() for _ in range(3)]
            index.insert_many(batch)
            alive.update(batch)
        elif choice < 0.75 and len(alive) > 5:
            rid = int(rng.choice(sorted(alive)))
            index.delete(rid)
            alive.discard(rid)
        elif choice < 0.85 and len(alive) > 8:
            batch = [int(r) for r in rng.choice(sorted(alive), 2, replace=False)]
            index.delete_many(batch)
            alive.difference_update(batch)
        elif len(alive) > 5:
            rid = int(rng.choice(sorted(alive)))
            index.mark_deleted(rid)
            alive.discard(rid)
        if rng.random() < 0.08:
            index.checkpoint()


def crash_trial(trial: int, directory: str) -> str:
    """One randomized session + crash + recovery; returns an outcome label.

    Raises ``AssertionError`` on any contract violation.
    """
    rng = np.random.default_rng(trial)
    n = int(rng.integers(60, 120))
    dims = int(rng.integers(2, 5))
    dataset = Dataset(rng.random((n, dims)))
    start = list(range(n // 2))
    live_dir = os.path.join(directory, f"live-{trial}")

    graph = build_dominant_graph(dataset, record_ids=start)
    index = ServingIndex.create(
        live_dir, graph, fsync="batch", checkpoint_interval=None
    )
    pending = list(range(n // 2, n))
    alive = set(start)
    _random_session(index, rng, pending, alive)
    # The writer is now "killed": no close(), no final checkpoint.

    wal_path = os.path.join(live_dir, "wal.log")
    offsets = crash_offsets(wal_path)
    cut = int(rng.choice(offsets))
    crash_dir = crashed_copy(
        live_dir, os.path.join(directory, f"crash-{trial}"), cut
    )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # torn-tail warnings are expected
        recovered = ServingIndex.open(crash_dir, checkpoint_interval=None)

    # Oracle: rebuild from scratch over the records the recovered index
    # says survive.  Bit-identical answers close the loop — recovery is
    # not merely "valid", it is *the* index the surviving operations
    # produce.
    survivors = sorted(int(rid) for rid in recovered.snapshot().alive_ids().tolist())
    rebuilt = build_dominant_graph(dataset, record_ids=survivors)
    rebuilt_queries = CompiledAdvancedTraveler(rebuilt.compile())
    functions = [LinearFunction(rng.random(dims) + 0.05) for _ in range(WEIGHT_VECTORS)]

    def check_answers(stage: str) -> None:
        for q, function in enumerate(functions):
            for k in K_VALUES:
                want = rebuilt_queries.top_k(function, min(k, max(len(survivors), 1)))
                got = recovered.query(function, min(k, max(len(survivors), 1)))
                assert got.ids == want.ids and got.scores == want.scores, (
                    f"trial {trial} cut={cut} k={k} q={q}: recovered answers "
                    f"{stage} diverge from rebuild ({got.ids} vs {want.ids})"
                )

    # First as recovery serves them (checkpoint base + WAL-suffix overlay),
    # then from the graph the suffix replays into, then once more.
    check_answers("before the graph is built")
    issues = verify_graph(recovered._materialized_graph())
    assert not issues, (
        f"trial {trial} cut={cut}: recovered graph fails verification: "
        f"{format_issues(issues)}"
    )
    recovered.compact()
    check_answers("after the graph is built and folded")
    recovered.close(checkpoint=False)
    index.close(checkpoint=False)
    boundary = cut in _record_boundaries(wal_path)
    return "clean-cut" if boundary else "torn-tail"


def _record_boundaries(wal_path: str) -> set:
    from repro.serve.wal import FRAME_HEADER_SIZE, HEADER_SIZE, scan_wal
    import struct

    boundaries = {HEADER_SIZE}
    offset = HEADER_SIZE
    with open(wal_path, "rb") as handle:
        data = handle.read()
    for _ in scan_wal(wal_path).records:
        length = struct.unpack_from("<I", data, offset + 12)[0]
        offset += FRAME_HEADER_SIZE + length
        boundaries.add(offset)
    return boundaries


def main(argv=None) -> int:
    """CLI entry point: run ``--trials`` crash trials, exit 1 on failure."""
    parser = argparse.ArgumentParser(
        description="crash-recovery fuzz for the serving layer"
    )
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to each trial's seed")
    args = parser.parse_args(argv)

    outcomes: dict = {}
    failures = 0
    with tempfile.TemporaryDirectory() as directory:
        for trial in range(args.trials):
            try:
                label = crash_trial(args.seed + trial, directory)
                outcomes[label] = outcomes.get(label, 0) + 1
            except AssertionError as exc:
                failures += 1
                print(f"FAIL trial {trial}: {exc}", file=sys.stderr)
            except Exception as exc:  # repro: noqa[typed-errors] -- an untyped escape is exactly what this harness reports; it must catch everything
                failures += 1
                print(
                    f"FAIL trial {trial}: untyped {type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )
    total = args.trials
    summary = ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
    print(f"crashfuzz: {total - failures}/{total} trials ok ({summary})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
