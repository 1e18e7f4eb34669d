"""Seeded load: dataset size, traffic shapes, preference and write streams.

Everything the program under test receives is derived here from
``--seed``; the same seed gives the same dataset, the same weight
vectors in the same order and the same insert/delete sequence.  How far
a run gets along those streams depends on how fast the host is (phases
are time-boxed), which is why :func:`sequence_hash` fingerprints a fixed
prefix rather than what one run happened to consume.
"""

from __future__ import annotations

import hashlib
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.functions import LinearFunction
from repro.data.generators import uniform
from repro.data.queries import random_queries

#: Queries per ``query_batch`` call.
BATCH_WIDTH = 32
#: Distinct preferences a reusing shape draws from: 4x the serving
#: index's default 256-entry result cache, so the cache is used but
#: cannot hold the working set (hit ratio ~0.7 under Zipf s=1).
PREFERENCE_POOL = 1024
ZIPF_EXPONENT = 1.0
#: Weight vectors generated per refill of a stream.
_BLOCK = 4096


@dataclass(frozen=True)
class Scale:
    """Dataset size.  ``held_back`` rows start unindexed: the insert pool."""

    records: int
    held_back: int
    warmup_queries: int

    @property
    def indexed(self) -> int:
        return self.records - self.held_back


#: Builder wall clock is ~O(n^2) on this host (1.0 s at 5k, 3.1 s at 10k,
#: 13 s at 20k, 78 s at 50k); 10k is the largest size at which three
#: set-ups plus the measured phases fit the driver's per-run budget.
FULL = Scale(records=10_000, held_back=1_000, warmup_queries=500)
SMOKE = Scale(records=2_000, held_back=200, warmup_queries=50)


@dataclass(frozen=True)
class Shape:
    """One workload: the traffic properties the stack's behaviour depends on.

    Every workload issues every kind of operation (the benchmark contract
    wants every end-to-end metric from every workload); what differs is
    the shape below, and with it which layers do the work.

    dims, k:
        Dataset dimensionality and answers per query.
    reuse:
        ``False``: every weight vector is fresh, the result cache never
        hits.  ``True``: weights are drawn Zipf from ``PREFERENCE_POOL``.
    reads_per_write:
        ``0``: reads and writes run in separate phases (reads see no
        overlay unless ``parked``).  ``> 0``: one closed-loop client
        interleaves this many reads with each write, so reads merge a
        live overlay and every publish purges the cache.
    parked:
        Changes left unfolded in the overlay while reads and batches run.
    replay:
        Writes logged between a checkpoint and the crash image taken
        after it, i.e. the WAL suffix each recovery must replay.
    """

    dims: int
    k: int
    reuse: bool = False
    reads_per_write: int = 0
    parked: int = 0
    replay: int = 16


SHAPES = {
    "read_distinct": Shape(dims=4, k=10),
    "batch_repeat": Shape(dims=3, k=50, reuse=True),
    "mixed_rw": Shape(dims=4, k=10, reads_per_write=8),
    "write_recover": Shape(dims=4, k=10, parked=64, replay=100),
}


def child_seed(seed: int, label: str) -> int:
    """A stream-specific seed, stable across runs and Python versions."""
    return (int(seed) * 1_000_003 + zlib.crc32(label.encode())) % (2**32)


def make_dataset(scale: Scale, shape: Shape, seed: int):
    return uniform(scale.records, shape.dims, seed=child_seed(seed, "data"))


def weight_stream(
    shape: Shape, seed: int, label: str, reuse: "bool | None" = None
) -> Iterator[LinearFunction]:
    """Endless Dirichlet preferences; fresh, or Zipf-reused from a pool."""
    reuse = shape.reuse if reuse is None else reuse
    if not reuse:
        block = 0
        while True:
            yield from random_queries(
                shape.dims, _BLOCK, seed=child_seed(seed, f"{label}/{block}")
            )
            block += 1
    pool = random_queries(
        shape.dims, PREFERENCE_POOL, seed=child_seed(seed, f"{label}/pool")
    )
    ranks = np.arange(1, PREFERENCE_POOL + 1, dtype=np.float64)
    probabilities = ranks**-ZIPF_EXPONENT
    probabilities /= probabilities.sum()
    rng = np.random.default_rng(child_seed(seed, f"{label}/zipf"))
    while True:
        for pick in rng.choice(PREFERENCE_POOL, size=_BLOCK, p=probabilities):
            yield pool[pick]


class WriteStream:
    """Alternating insert-from-pool / delete-random-alive, and the model.

    The stream is its own model of the index's membership: ``alive``
    after ``n`` calls to :meth:`next` is the record set an index that
    applied those ``n`` operations must hold.  Deleted ids rejoin the
    back of the pool, so the stream never runs dry.
    """

    def __init__(self, scale: Scale, seed: int) -> None:
        self.alive = list(range(scale.indexed))
        self.pool = deque(range(scale.indexed, scale.records))
        self._rng = np.random.default_rng(child_seed(seed, "writes"))
        self._inserting = True

    def next(self) -> "tuple[str, int]":
        if self._inserting:
            rid = self.pool.popleft()
            self.alive.append(rid)
            op = ("insert", rid)
        else:
            slot = int(self._rng.integers(len(self.alive)))
            rid = self.alive[slot]
            self.alive[slot] = self.alive[-1]
            self.alive.pop()
            self.pool.append(rid)
            op = ("delete", rid)
        self._inserting = not self._inserting
        return op


def sequence_hash(scale: Scale, shape: Shape, seed: int, prefix: int = 512) -> str:
    """Fingerprint of the inputs: dataset, first weights, first writes."""
    digest = hashlib.sha256()
    digest.update(make_dataset(scale, shape, seed).values.tobytes())
    weights = weight_stream(shape, seed, "reads")
    for _ in range(prefix):
        digest.update(next(weights).weights.tobytes())
    writes = WriteStream(scale, seed)
    for _ in range(prefix):
        kind, rid = writes.next()
        digest.update(f"{kind}:{rid};".encode())
    return digest.hexdigest()
