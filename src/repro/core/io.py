"""Index persistence: corruption-safe save/load of a Dominant Graph.

The DG is an offline-built index ("DG is stored independently as the
indexing structure for the record set"), so a real deployment builds it
once and ships it next to the data — which means the load path is a trust
boundary: the file may be truncated by a crashed copy, bit-flipped by bad
storage, produced by an older build, or hand-edited.  This module makes
every one of those cases either a structured
:class:`~repro.errors.IndexCorruptionError` naming the damaged array, or
(opt-in) a repair that rebuilds the graph from the surviving ``values``
matrix.  A damaged file can never reach query code.

Defenses, in the order the load path applies them:

1. **Atomic writes** — :func:`save_graph` writes to a temp file in the
   same directory and ``os.replace``\\ s it over the target, so readers
   never observe a half-written archive.
2. **Format-version negotiation** — ``format_version`` is read first;
   version-1 archives (pre-manifest) still load, unknown versions raise.
3. **Per-array SHA-256 manifest** — version-2 archives carry a digest of
   every data array; any byte damage that survives the zip CRC is caught
   here and attributed to the specific array.
4. **Structural validation** — shapes, dtypes, finiteness, id ranges,
   duplicate/dangling/non-consecutive edges, and layer contiguity are
   checked *before* graph reconstruction, so a malformed archive raises a
   clear typed error instead of an opaque numpy ``IndexError``.
5. **Deep verification (opt-in)** — ``load_graph(..., verify=True)`` runs
   :func:`repro.core.verify.verify_graph` over the reconstructed graph
   (dominance-complete, slow on big indexes).
6. **Repair** — ``load_graph(..., repair=True)`` or :func:`repair_graph`
   rebuilds the graph from whatever arrays survive, preferring the
   recorded membership when ``record_ids``/``pseudo_ids`` are intact and
   falling back to re-indexing every dataset row.  Repairs emit
   :class:`~repro.errors.DegradedResultWarning` and report what was lost.

Format (npz keys)
-----------------
``values``          (n, m) float64 — the dataset (attribute names too)
``attribute_names`` (m,) str
``record_ids``      (r,) intp — indexed ids, reals then pseudos
``layer_of``        (r,) intp — 0-based layer per indexed id
``edges``           (e, 2) intp — parent, child pairs
``pseudo_ids``      (p,) intp — which indexed ids are pseudo
``pseudo_vectors``  (p, m) float64 — their vectors
``manifest_names``  (a,) str — data arrays covered by the manifest
``manifest_sha256`` (a,) str — matching SHA-256 hex digests
``format_version``  () int
"""

from __future__ import annotations

import hashlib
import os
import struct
import warnings
import zipfile
import zlib

import numpy as np

from repro.core.compiled import CompiledDG
from repro.core.dataset import Dataset
from repro.core.graph import DominantGraph
from repro.errors import DegradedResultWarning, IndexCorruptionError

FORMAT_VERSION = 2
#: Versions this build can read.  Version 1 lacks the checksum manifest;
#: it still loads (structural validation only).
SUPPORTED_VERSIONS = (1, 2)

#: Data arrays every archive must carry: name -> (dtype kinds, ndim).
_REQUIRED = {
    "values": ("f", 2),
    "attribute_names": ("U", 1),
    "record_ids": ("iu", 1),
    "layer_of": ("iu", 1),
    "edges": ("iu", 2),
    "pseudo_ids": ("iu", 1),
    "pseudo_vectors": ("f", 2),
}
_MANIFEST_KEYS = ("manifest_names", "manifest_sha256")

#: Failure modes np.load / zipfile surface for damaged archives.
_ARCHIVE_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    struct.error,
    EOFError,
    OSError,
    ValueError,
)


def _digest(array: np.ndarray) -> str:
    """SHA-256 over an array's dtype, shape, and raw bytes."""
    h = hashlib.sha256()
    h.update(str(array.dtype).encode())
    h.update(str(array.shape).encode())
    h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def compute_manifest(payload: dict) -> tuple:
    """``(names, digests)`` manifest over a payload's data arrays.

    Covers every key except the manifest itself and ``format_version``
    (excluded so version negotiation can run before integrity checks).
    Shared with :mod:`repro.testing.faults`, which uses it to re-sign
    deliberately tampered archives.
    """
    names = sorted(
        key
        for key in payload
        if key not in _MANIFEST_KEYS and key != "format_version"
    )
    digests = [
        _digest(np.asarray(payload[key]))  # repro: noqa[dtype-discipline] -- the digest must cover each array exactly as stored, whatever its dtype
        for key in names
    ]
    return names, digests


def fsync_directory(directory: str) -> None:
    """fsync a directory so a just-renamed file survives power loss.

    ``os.replace`` is atomic against concurrent readers but the rename
    itself lives in the directory inode, which the kernel may still be
    holding in cache when the power goes; syncing the directory pins it.
    Platforms whose directories cannot be opened/fsynced (some network
    filesystems, Windows) are silently skipped — atomicity still holds,
    only power-loss durability is best-effort there.
    """
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def payload_from_graph(graph: DominantGraph) -> dict:
    """The canonical serialized form of a graph: the seven data arrays.

    This is the exact array vocabulary of the npz format (see the module
    docstring), shared by :func:`save_graph` and the binary store format
    (:mod:`repro.store.graphstore`) so both containers hold byte-for-byte
    the same payload and validate through the same pipeline.
    """
    ids, layers = graph.indexed_arrays()
    order = np.lexsort((ids, layers))
    record_ids = ids[order]
    # Two flat id lists, not one list of (parent, child) tuples: a tuple
    # per edge is thousands of live containers, enough to start dozens
    # of garbage collections inside every checkpoint — and whenever one
    # of them is a full collection, that checkpoint takes twice as long.
    edge_parents: list = []
    edge_children: list = []
    for parent in record_ids.tolist():
        children = sorted(graph.children_of(parent))
        edge_parents.extend([parent] * len(children))
        edge_children.extend(children)
    edges = np.empty((len(edge_parents), 2), dtype=np.intp)
    edges[:, 0] = edge_parents
    edges[:, 1] = edge_children
    vectors, pseudo_mask = graph.rows_for(record_ids)
    return {
        "values": np.asarray(graph.dataset.values, dtype=np.float64),
        "attribute_names": np.asarray(graph.dataset.attribute_names, dtype=str),
        "record_ids": record_ids,
        "layer_of": layers[order],
        "edges": edges,
        "pseudo_ids": record_ids[pseudo_mask],
        "pseudo_vectors": vectors[pseudo_mask],
    }


def graph_from_payload(payload: dict, path: str) -> DominantGraph:
    """Validate a payload dict and reconstruct the graph from it.

    Runs the full structural validation (shapes, dtypes, id ranges,
    edge/layer invariants) before any construction, raising
    :class:`~repro.errors.IndexCorruptionError` naming the damaged
    array; ``path`` only labels errors.  Integrity (checksums) is the
    *container's* job and must happen before this is called.
    """
    _validate_payload(payload, path)
    return _construct(payload, path)


def save_graph(graph: DominantGraph, path: str, *, durable: bool = False) -> str:
    """Serialize a graph (and its dataset) to ``path`` (.npz appended).

    The write is atomic: the archive is assembled in a temp file next to
    the target and renamed over it, so a crash mid-write leaves the old
    index intact and readers never see a torn file.  With
    ``durable=True`` the temp file is fsynced before the rename and the
    directory after it, so the finished archive also survives power loss
    — the write-ahead-logged checkpoints of :mod:`repro.serve` require
    this; plain tooling saves default to fast.  Returns the path
    actually written.

    Examples
    --------
    >>> import tempfile, os
    >>> from repro.core.builder import build_dominant_graph
    >>> ds = Dataset([[1.0, 2.0], [2.0, 1.0], [0.5, 0.5]])
    >>> graph = build_dominant_graph(ds)
    >>> path = save_graph(graph, tempfile.mktemp())
    >>> load_graph(path).layer_sizes()
    [2, 1]
    """
    payload = payload_from_graph(graph)
    names, digests = compute_manifest(payload)
    payload["manifest_names"] = np.asarray(names, dtype=str)
    payload["manifest_sha256"] = np.asarray(digests, dtype=str)
    payload["format_version"] = np.asarray(FORMAT_VERSION, dtype=np.int64)

    if not path.endswith(".npz"):
        path = path + ".npz"
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **payload)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if durable:
            fsync_directory(os.path.dirname(os.path.abspath(path)))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


# ----------------------------------------------------------------------
# Load-path checks
# ----------------------------------------------------------------------
def _read_payload(path: str) -> dict:
    """Read every array of an archive, attributing failures per array."""
    try:
        archive = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except _ARCHIVE_ERRORS as exc:
        raise IndexCorruptionError(
            f"unreadable index archive: {exc}", path=path
        ) from exc
    payload: dict = {}
    with archive:
        for key in archive.files:
            try:
                payload[key] = archive[key]
            except _ARCHIVE_ERRORS as exc:
                raise IndexCorruptionError(
                    f"array is unreadable: {exc}", path=path, array=key
                ) from exc
    return payload


def _load_payload(path: str) -> dict:
    """An archive's payload, read, checksummed and validated — no graph.

    Everything :func:`load_graph` checks before it constructs anything;
    the serving index recovers from this payload without building the
    graph until a writer needs it.
    """
    payload = _read_payload(path)
    if _negotiate_version(payload, path) >= 2:
        _verify_manifest(payload, path)
    _validate_payload(payload, path)
    return payload


def _negotiate_version(payload: dict, path: str) -> int:
    if "format_version" not in payload:
        raise IndexCorruptionError(
            "missing format_version", path=path, array="format_version"
        )
    try:
        version = int(payload["format_version"])
    except (TypeError, ValueError) as exc:
        raise IndexCorruptionError(
            f"format_version is not an integer: {exc}",
            path=path,
            array="format_version",
        ) from exc
    if version not in SUPPORTED_VERSIONS:
        raise IndexCorruptionError(
            f"unsupported index format version {version} "
            f"(this build reads {SUPPORTED_VERSIONS})",
            path=path,
            array="format_version",
        )
    return version


def _verify_manifest(payload: dict, path: str) -> None:
    """Check every data array against the stored SHA-256 manifest."""
    for key in _MANIFEST_KEYS:
        if key not in payload:
            raise IndexCorruptionError(
                "missing checksum manifest", path=path, array=key
            )
    names = [str(name) for name in payload["manifest_names"]]
    digests = [str(digest) for digest in payload["manifest_sha256"]]
    if len(names) != len(digests):
        raise IndexCorruptionError(
            "manifest names and digests differ in length",
            path=path,
            array="manifest_names",
        )
    for name, digest in zip(names, digests):
        if name not in payload:
            raise IndexCorruptionError(
                "array listed in manifest but absent", path=path, array=name
            )
        if _digest(np.asarray(payload[name])) != digest:  # repro: noqa[dtype-discipline] -- verification must hash the array exactly as loaded, whatever its dtype
            raise IndexCorruptionError(
                "checksum mismatch", path=path, array=name
            )
    missing = [name for name in _REQUIRED if name not in names]
    if missing:
        raise IndexCorruptionError(
            "required array not covered by the manifest",
            path=path,
            array=missing[0],
        )


def _validate_payload(payload: dict, path: str) -> None:
    """Shape/dtype/id-range validation, before any graph construction."""

    def bad(array: str, reason: str) -> None:
        raise IndexCorruptionError(reason, path=path, array=array)

    for name, (kinds, ndim) in _REQUIRED.items():
        if name not in payload:
            bad(name, "required array missing")
        array = payload[name]
        if array.ndim != ndim:
            bad(name, f"expected a {ndim}-d array, got {array.ndim}-d")
        if array.dtype.kind not in kinds:
            bad(name, f"unexpected dtype {array.dtype}")

    values = payload["values"]
    if values.shape[0] == 0 or values.shape[1] == 0:
        bad("values", "empty value matrix")
    if not np.all(np.isfinite(values)):
        bad("values", "non-finite attribute values (NaN/inf)")
    n, dims = values.shape
    if payload["attribute_names"].shape[0] != dims:
        bad(
            "attribute_names",
            f"{payload['attribute_names'].shape[0]} names for {dims} attributes",
        )

    record_ids = payload["record_ids"]
    layer_of = payload["layer_of"]
    if layer_of.shape != record_ids.shape:
        bad("layer_of", "length differs from record_ids")
    if np.unique(record_ids).size != record_ids.size:
        bad("record_ids", "duplicate record ids")

    pseudo_ids = payload["pseudo_ids"]
    pseudo_vectors = payload["pseudo_vectors"]
    if np.unique(pseudo_ids).size != pseudo_ids.size:
        bad("pseudo_ids", "duplicate pseudo ids")
    if not np.isin(pseudo_ids, record_ids).all():
        bad("pseudo_ids", "pseudo id not among record_ids")
    if pseudo_vectors.shape != (pseudo_ids.shape[0], dims):
        bad(
            "pseudo_vectors",
            f"expected shape ({pseudo_ids.shape[0]}, {dims}), "
            f"got {pseudo_vectors.shape}",
        )
    if pseudo_vectors.size and not np.all(np.isfinite(pseudo_vectors)):
        bad("pseudo_vectors", "non-finite pseudo vector (NaN/inf)")

    real = record_ids[~np.isin(record_ids, pseudo_ids)]
    out_of_range = real[(real < 0) | (real >= n)]
    if out_of_range.size:
        bad(
            "record_ids",
            f"real record id {out_of_range[0]} outside dataset rows 0..{n - 1}",
        )
    if pseudo_ids.size and pseudo_ids.min() < 0:
        bad("pseudo_ids", f"negative pseudo id {pseudo_ids.min()}")
    # Pseudo ids are minted consecutively from len(dataset), fewer than
    # len(dataset) of them per build, and the graph's layer table holds a
    # slot per id — a wild id must not reach the allocator.
    if pseudo_ids.size and pseudo_ids.max() >= 4 * n + 65536:
        bad("pseudo_ids", f"implausibly large pseudo id {pseudo_ids.max()}")

    if record_ids.size:
        if layer_of.min() < 0:
            bad("layer_of", "negative layer index")
        present = np.unique(layer_of)
        if present[-1] != present.size - 1:
            bad("layer_of", "layer indices are not contiguous from 0")

    edges = payload["edges"]
    if edges.shape[1] != 2:
        bad("edges", f"expected (e, 2) parent, child rows, got {edges.shape}")
    if edges.size:
        # One sort of a packed (parent, child) key.  Endpoints are not
        # range-checked yet, so a span too wide to pack is first ranked.
        low = edges.min()
        span = int(edges.max()) - int(low) + 1
        if span <= 1 << 31:
            offsets = (edges - low).astype(np.int64)
        else:
            offsets = np.unique(edges, return_inverse=True)[1].reshape(edges.shape)
            span = edges.size
        keys = np.sort(offsets[:, 0] * span + offsets[:, 1])
        if (keys[1:] == keys[:-1]).any():
            bad("edges", "duplicate edges")
        known = np.isin(edges, record_ids)
        # Record ids are in range by now, so a table by id can hold the layers.
        layer_at = np.zeros(int(record_ids.max(initial=0)) + 1, dtype=np.intp)
        layer_at[record_ids] = layer_of
        layers = layer_at[np.where(known, edges, 0)]
        faulty = np.flatnonzero(
            ~known.all(axis=1) | (layers[:, 1] != layers[:, 0] + 1)
        )
        if faulty.size:  # name the first offending edge, in file order
            row = faulty[0]
            parent, child = edges[row].tolist()
            if not known[row].all():
                dangling = child if known[row, 0] else parent
                bad("edges", f"dangling edge endpoint {dangling}")
            bad(
                "edges",
                f"edge {parent}->{child} does not span consecutive layers",
            )


def _construct(payload: dict, path: str) -> DominantGraph:
    """Rebuild the graph object from a validated payload."""
    try:
        dataset = Dataset(
            payload["values"],
            attribute_names=[str(a) for a in payload["attribute_names"]],
        )
        graph = DominantGraph(dataset)
        # Re-register pseudo vectors under their original ids (they may be
        # non-contiguous after maintenance merges).  Ids below the dataset
        # size are real records converted by mark_deleted (Section V-B).
        for pid, vector in zip(
            payload["pseudo_ids"].tolist(), payload["pseudo_vectors"]
        ):
            if pid < len(dataset):
                graph.convert_to_pseudo(int(pid))
            else:
                graph.register_pseudo_record(int(pid), vector)
        graph._adopt(
            payload["record_ids"].astype(np.intp, copy=False),
            payload["layer_of"].astype(np.intp, copy=False),
            payload["edges"].astype(np.intp, copy=False),
        )
    except (KeyError, ValueError, IndexError) as exc:
        raise IndexCorruptionError(
            f"index reconstruction failed: {exc}", path=path
        ) from exc
    return graph


def _compile_payload(payload: dict) -> CompiledDG:
    """``_construct(payload).compile()``, from the arrays alone.

    A validated payload already holds the snapshot: sorted by ``(layer,
    id)`` — the order :func:`payload_from_graph` writes, so the sort
    below is a no-op for every file this package produced — the values
    are dataset rows, except that minted pseudo ids (past the dataset)
    take their ``pseudo_vectors``; real rows converted by
    ``mark_deleted`` keep their dataset row, exactly as
    :func:`_construct` re-converts them.
    """
    values = np.asarray(payload["values"], dtype=np.float64)
    record_ids = payload["record_ids"].astype(np.int64)
    layer_of = payload["layer_of"].astype(np.int64)
    order = np.argsort(layer_of * (int(record_ids.max(initial=0)) + 1) + record_ids)
    record_ids, layer_of = record_ids[order], layer_of[order]
    pseudo_ids = payload["pseudo_ids"].astype(np.int64)
    minted = record_ids >= values.shape[0]
    rows = values.take(np.where(minted, 0, record_ids), axis=0)
    if minted.any():
        by_id = np.argsort(pseudo_ids)
        found = by_id[np.searchsorted(pseudo_ids, record_ids[minted], sorter=by_id)]
        rows[minted] = payload["pseudo_vectors"][found]
    return CompiledDG.from_arrays(
        {
            "values": rows,
            "record_ids": record_ids,
            "layer_index": layer_of.astype(np.int32),
            "pseudo_mask": np.isin(record_ids, pseudo_ids),
        },
        first_layer_size=int(np.searchsorted(layer_of, 0, side="right")),
    )


def load_graph(
    path: str,
    validate: bool = False,
    *,
    verify: bool = False,
    repair: bool = False,
) -> DominantGraph:
    """Load a graph previously written by :func:`save_graph`.

    Every load runs version negotiation, the SHA-256 manifest check
    (version >= 2 archives), and full structural validation; any failure
    raises :class:`~repro.errors.IndexCorruptionError` naming the damaged
    array.

    Parameters
    ----------
    path:
        The ``.npz`` file (extension optional).
    validate:
        Also run :meth:`DominantGraph.validate` after loading (asserts,
        stops at the first violation).
    verify:
        Also run the deep :func:`repro.core.verify.verify_graph` check
        and raise :class:`IndexCorruptionError` listing every issue found
        (slow on big indexes; useful when provenance is uncertain — this
        is what ``repro doctor`` uses).
    repair:
        On corruption, attempt :func:`repair_graph` instead of raising:
        rebuild from the surviving ``values`` matrix and emit a
        :class:`~repro.errors.DegradedResultWarning` describing what was
        lost.  Unrepairable archives still raise.
    """
    if not path.endswith(".npz") and not os.path.exists(path):
        path = path + ".npz"
    try:
        graph = _construct(_load_payload(path), path)
    except IndexCorruptionError as exc:
        if not repair:
            raise
        graph, notes = repair_graph(path)
        warnings.warn(
            DegradedResultWarning(
                f"index {path} was corrupt ({exc.reason}); "
                f"rebuilt from surviving data: {'; '.join(notes)}"
            ),
            stacklevel=2,
        )
    if validate:
        graph.validate()
    if verify:
        from repro.core.verify import format_issues, verify_graph

        issues = verify_graph(graph)
        if issues:
            raise IndexCorruptionError(
                "deep verification failed: " + format_issues(issues),
                path=path,
            )
    return graph


# ----------------------------------------------------------------------
# Repair
# ----------------------------------------------------------------------
def _salvage(path: str) -> dict:
    """Best-effort read: every array that can still be decoded."""
    payload: dict = {}
    try:
        archive = np.load(path, allow_pickle=False)
    except Exception:  # repro: noqa[typed-errors] -- best-effort salvage of a corrupt archive must survive whatever np.load throws
        return payload
    with archive:
        for key in archive.files:
            try:
                payload[key] = archive[key]
            except Exception:  # repro: noqa[typed-errors] -- each member is decoded independently; any failure just skips that array
                continue
    return payload


def _salvaged_membership(payload: dict, n: int) -> tuple:
    """``(real_ids, converted_ids)`` when membership survived, else None.

    Membership is trusted only when *both* ``record_ids`` and
    ``pseudo_ids`` decoded and look sane — with only one of the two, a
    mark-deleted record could silently resurrect, which repair must never
    risk.
    """
    record_ids = payload.get("record_ids")
    pseudo_ids = payload.get("pseudo_ids")
    for array in (record_ids, pseudo_ids):
        if array is None or array.ndim != 1 or array.dtype.kind not in "iu":
            return None
    ids = set(record_ids.tolist())
    pseudo = set(pseudo_ids.tolist())
    if len(ids) != record_ids.shape[0] or not pseudo <= ids:
        return None
    if any(not 0 <= rid < n for rid in ids - pseudo):
        return None
    real = sorted(ids - pseudo)
    converted = sorted(rid for rid in pseudo if 0 <= rid < n)
    if not real and not converted:
        return None
    return real, converted


def repair_graph(path: str) -> tuple:
    """Rebuild a damaged index from whatever arrays survive.

    Returns ``(graph, notes)`` where ``notes`` lists what was lost in
    human-readable form.  The ``values`` matrix is the one array repair
    cannot do without; when it is damaged too, the index is unrepairable
    and :class:`~repro.errors.IndexCorruptionError` is raised.

    The rebuilt graph is a plain DG (pseudo levels are reconstructed
    structure, not data — rebuild with ``repro build`` to restore them).
    Indexed-row membership and mark-deleted records are preserved when
    ``record_ids``/``pseudo_ids`` survive; otherwise every dataset row is
    re-indexed and a note says so.
    """
    from repro.core.builder import build_dominant_graph

    payload = _salvage(path)
    values = payload.get("values")
    if (
        values is None
        or getattr(values, "ndim", 0) != 2
        or values.dtype.kind != "f"
        or values.size == 0
        or not np.all(np.isfinite(values))
    ):
        raise IndexCorruptionError(
            "values matrix did not survive; index is unrepairable",
            path=path,
            array="values",
        )
    n, dims = values.shape
    notes: list = []

    names = None
    attributes = payload.get("attribute_names")
    if (
        attributes is not None
        and attributes.ndim == 1
        and attributes.dtype.kind == "U"
        and attributes.shape[0] == dims
    ):
        names = [str(a) for a in attributes]
    else:
        notes.append("attribute names lost; defaults restored")
    dataset = Dataset(values, attribute_names=names)

    membership = _salvaged_membership(payload, n)
    if membership is None:
        real, converted = list(range(n)), []
        notes.append("indexed-row membership lost; every dataset row re-indexed")
    else:
        real, converted = membership
    graph = build_dominant_graph(dataset, record_ids=real + converted)
    for rid in converted:
        graph.convert_to_pseudo(rid)
    pseudo_ids = payload.get("pseudo_ids")
    had_synthetic_pseudo = (
        membership is not None
        and any(pid >= n for pid in pseudo_ids.tolist())
    )
    if membership is None or had_synthetic_pseudo:
        notes.append("pseudo levels dropped; rebuild the index to restore them")
    notes.append(f"re-indexed {len(real)} real records from the values matrix")
    return graph, notes
