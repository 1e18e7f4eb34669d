"""Full graph checkpoints in the binary store container.

The serving index's checkpoints must round-trip the *mutable*
:class:`~repro.core.graph.DominantGraph` (WAL replay resumes mutation on
it), so a ``kind="graph"`` store file carries the same seven-array
payload as the npz format — produced by
:func:`repro.core.io.payload_from_graph` and reconstructed through the
same validation pipeline — inside the checksummed, crash-safe, mmap-able
container.  Compared to ``.npz`` the container adds the staleness stamp
(``applied_seq`` binds the checkpoint to its WAL position, in the file
itself rather than only in the ``CURRENT`` pointer), per-section SHA-256
instead of zip CRCs, and an O(header) fast-verification path.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import DominantGraph
from repro.core.io import _construct, _validate_payload, payload_from_graph
from repro.store.format import StoreStamp, write_store
from repro.store.mapped import open_store

#: Payload vocabulary of ``kind="graph"`` files, in layout order.
GRAPH_SECTIONS = (
    "values",
    "attribute_names",
    "record_ids",
    "layer_of",
    "edges",
    "pseudo_ids",
    "pseudo_vectors",
)


def save_graph_store(
    graph: DominantGraph,
    path: str,
    *,
    applied_seq: int = 0,
    generation: int = 0,
    durable: bool = True,
) -> str:
    """Write a graph checkpoint as a ``.dgs`` store file.

    Crash-safe like :func:`repro.core.io.save_graph` (temp + rename,
    plus fsyncs when ``durable``); ``applied_seq`` is stamped into the
    header so the checkpoint itself records which WAL prefix it
    contains.  Returns the path written (``.dgs`` appended if missing).
    """
    if not path.endswith(".dgs"):
        path = path + ".dgs"
    payload = payload_from_graph(graph)
    arrays = {name: payload[name] for name in GRAPH_SECTIONS}
    write_store(
        path,
        arrays,
        StoreStamp(
            kind="graph",
            generation=int(generation),
            source_version=int(graph.version),
            applied_seq=int(applied_seq),
        ),
        durable=durable,
    )
    return path


def load_graph_store(path: str) -> DominantGraph:
    """Load a graph checkpoint written by :func:`save_graph_store`.

    Every load runs fast TOC verification, the full per-section SHA-256
    check (a checkpoint is read once at startup and fully materialized,
    so deep verification costs nothing extra), and the same structural
    validation as the npz loader.  Any failure raises a typed
    :class:`~repro.errors.StoreCorruptionError` /
    :class:`~repro.errors.IndexCorruptionError` naming the damaged
    section; a damaged checkpoint can never reach query code.
    """
    return _construct(_load_payload(path), path)


def _load_payload(path: str) -> dict:
    """A checkpoint's payload, deep-verified and validated — no graph.

    Everything :func:`load_graph_store` checks before it constructs
    anything; the serving index recovers from this payload and builds
    the graph only when a writer needs it.
    """
    with open_store(path, deep=True) as store:
        # Copy before the mapping closes: the payload owns its arrays,
        # the container only transports them.
        payload = {
            name: np.array(view, copy=True)
            for name, view in store.sections().items()
        }
    _validate_payload(payload, path)
    return payload
