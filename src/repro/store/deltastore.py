"""Delta-overlay sidecars in the binary store container.

The base+delta overlay (:mod:`repro.core.overlay`) keeps the durable
truth in the WAL — recovery rebuilds the overlay from the log suffix —
so the overlay sidecar is derived data: a ``kind="delta"`` store file
spooled next to the checkpoint on every delta publish, letting ``repro
doctor`` and offline tooling inspect the unfolded changes without
replaying the log.  Losing, tearing, or corrupting the sidecar
therefore costs nothing: the serving index never reads it, rewrites it
from the overlay it recovers, and removes it after every compaction
(the overlay it described has been folded into the base).

Staleness stamps bind the sidecar to its position in the store
rotation: ``generation`` is the base generation the overlay applies to
and ``applied_seq`` the WAL sequence of the last folded-in operation —
a sidecar whose stamps do not match the live base is stale by
definition and discarded on sight.
"""

from __future__ import annotations

import numpy as np

from repro.core.overlay import DeltaOverlay
from repro.errors import StoreCorruptionError
from repro.store.format import StoreStamp, write_store
from repro.store.mapped import open_store

#: Payload vocabulary of ``kind="delta"`` files, in layout order.
DELTA_SECTIONS = (
    "delta_ids",
    "delta_values",
    "deleted_rows",
)


def save_delta_store(
    overlay: DeltaOverlay,
    path: str,
    *,
    base_generation: int = 0,
    applied_seq: int = 0,
    durable: bool = False,
) -> str:
    """Write an overlay sidecar as a ``.dgs`` store file.

    Non-durable by default: the sidecar is derived data rewritten on
    every delta publish, and an O(changes) publish path cannot afford
    an fsync per mutation for a file recovery never needs.  The rename
    is still atomic, so readers only ever see a complete sidecar.
    """
    if not path.endswith(".dgs"):
        path = path + ".dgs"
    arrays = {
        "delta_ids": np.asarray(overlay.delta_ids, dtype=np.int64),
        "delta_values": np.asarray(overlay.delta_values, dtype=np.float64),
        "deleted_rows": np.asarray(overlay.deleted_rows, dtype=np.int64),
    }
    write_store(
        path,
        arrays,
        StoreStamp(
            kind="delta",
            generation=int(base_generation),
            source_version=0,
            applied_seq=int(applied_seq),
        ),
        durable=durable,
    )
    return path


def load_delta_store(path: str) -> "tuple[DeltaOverlay, StoreStamp]":
    """Load an overlay sidecar written by :func:`save_delta_store`.

    Runs the container's deep verification (sidecars are tiny); returns
    the reconstructed overlay together with its stamp so callers can
    check ``generation`` / ``applied_seq`` against the live base before
    trusting it.  Raises the container's typed corruption errors on any
    damage — callers treat that as "no sidecar", never as fatal.
    """
    with open_store(path, deep=True) as store:
        stamp = store.info.stamp
        payload = {
            name: np.array(view, copy=True)
            for name, view in store.sections().items()
        }
    missing = [name for name in DELTA_SECTIONS if name not in payload]
    if missing:
        raise StoreCorruptionError(
            f"delta sidecar {path} is missing sections: {missing}"
        )
    overlay = DeltaOverlay(
        delta_ids=payload["delta_ids"],
        delta_values=payload["delta_values"],
        deleted_rows=payload["deleted_rows"],
    )
    return overlay, stamp
