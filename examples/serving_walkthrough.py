"""Durable serving walkthrough: WAL, snapshots, kill -9, recovery.

A ticketing marketplace serves "best seats under my preferences" queries
while inventory churns.  This walkthrough runs the whole serving story
(see docs/serving.md) against a real on-disk serving directory:

1. initialize a serving directory (checkpoint + CURRENT + WAL);
2. serve epoch-tagged queries while applying durable maintenance;
3. watch a reader pinned to an old snapshot answer consistently while
   a batch lands around it;
4. checkpoint (truncating the WAL atomically);
5. simulate kill -9 — copy the directory with the WAL torn mid-record —
   and recover, comparing answers bit-for-bit against a from-scratch
   rebuild of the surviving operations.

Run:  python examples/serving_walkthrough.py
"""

import os
import shutil
import tempfile
import warnings

import numpy as np

from repro import Dataset, LinearFunction, build_dominant_graph
from repro.core.compiled import CompiledAdvancedTraveler
from repro.serve import ServingIndex, scan_wal, wal_record_offsets

SEATS = 400
ATTRS = ("view", "legroom", "value")
PREFER = LinearFunction([0.5, 0.2, 0.3])


def survivors(index: ServingIndex) -> list:
    # Overlay-aware: unfolded inserts and deletions ride on the base.
    return sorted(int(r) for r in index.snapshot().alive_ids().tolist())


def main() -> None:
    rng = np.random.default_rng(7)
    seats = Dataset(rng.uniform(0, 100, (SEATS, len(ATTRS))), attribute_names=ATTRS)
    root = tempfile.mkdtemp(prefix="dg-serving-")
    live_dir = os.path.join(root, "live")

    # -- 1. initialize -------------------------------------------------
    onsale = build_dominant_graph(seats, record_ids=range(300))
    index = ServingIndex.create(live_dir, onsale, fsync="always")
    print(f"serving {len(survivors(index))} seats from {live_dir}")
    print(f"  epoch={index.epoch}  health={index.health()['status']}")

    # -- 2. durable maintenance under queries --------------------------
    best = index.query(PREFER, k=3)
    print(f"\ntop-3 before churn (epoch {best.epoch}):")
    for rid, score in best:
        print(f"  seat {rid}: score {score:.2f}")

    index.insert_many(list(range(300, 320)))   # a new block goes on sale
    index.delete(best.ids[0])                  # the best seat sells
    index.mark_deleted(best.ids[1])            # a hold: cheap mark-delete
    after = index.query(PREFER, k=3)
    print(f"\ntop-3 after churn (epoch {after.epoch}): {list(after.ids)}")
    wal = scan_wal(os.path.join(live_dir, "wal.log"))
    print(f"WAL now holds {len(wal.records)} acknowledged operations")

    # -- 3. snapshot isolation ----------------------------------------
    pinned = index.snapshot()                  # what a reader pins
    index.insert_many(list(range(320, 340)))   # a batch lands "around" it
    old = CompiledAdvancedTraveler(pinned.compiled).top_k(PREFER, 3)
    new = index.query(PREFER, k=3)
    print(
        f"\npinned epoch {pinned.epoch} still answers {list(old.ids)}; "
        f"epoch {new.epoch} answers {list(new.ids)} — no mixed state"
    )

    # -- 4. checkpoint -------------------------------------------------
    name = index.checkpoint()
    wal = scan_wal(os.path.join(live_dir, "wal.log"))
    print(f"\ncheckpointed to {name}; WAL truncated (base_seq={wal.base_seq})")

    # -- 5. kill -9 and recover ---------------------------------------
    index.insert(340)
    index.insert(341)
    index.delete(5)
    # No close(): the process "dies" here.  Copy the directory with the
    # final WAL record torn mid-frame, as an interrupted write leaves it.
    crash_dir = os.path.join(root, "crashed")
    shutil.copytree(live_dir, crash_dir)
    wal_path = os.path.join(crash_dir, "wal.log")
    offsets = wal_record_offsets(wal_path)
    with open(wal_path, "rb+") as handle:
        handle.truncate(offsets[-1] - 3)       # tear the last append
    print(f"\nsimulated crash: WAL torn 3 bytes short of record {len(offsets) - 1}")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        recovered = ServingIndex.open(crash_dir)
    for warning in caught:
        print(f"  recovery: {warning.message}")

    alive = survivors(recovered)
    rebuilt = CompiledAdvancedTraveler(
        build_dominant_graph(seats, record_ids=alive).compile()
    )
    want, got = rebuilt.top_k(PREFER, 10), recovered.query(PREFER, k=10)
    assert got.ids == want.ids and got.scores == want.scores
    print(
        f"recovered {len(alive)} seats; top-10 bit-identical to a "
        "from-scratch rebuild"
    )
    print(f"  (the torn op 'delete(5)' was never acknowledged: "
          f"seat 5 {'survives' if 5 in alive else 'is gone'})")

    recovered.close()
    index.close(checkpoint=False)
    shutil.rmtree(root)
    print("\nclean shutdown — walkthrough complete")


if __name__ == "__main__":
    main()
