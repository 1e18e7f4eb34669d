"""Base+delta overlay: O(changes) publish over an immutable CompiledDG.

A full ``graph.compile()`` costs O(n) no matter how small the mutation
batch was, which caps sustained write throughput (see
``docs/performance.md``).  This module supplies the LSM-style
alternative: keep the last compiled snapshot as an immutable **base**
and describe everything that happened since as a small immutable
:class:`DeltaOverlay` — the freshly inserted records (an uncompiled
mini-index: ids plus raw float64 vectors) and a deletion set of base
dense rows.  Publishing a mutation then costs O(overlay), not O(n).

Query parity argument
---------------------
:func:`overlay_batch_top_k` answers ``base+delta`` queries bit-identical
to a full recompile, by construction:

1. **Base sweep.**  The batch kernel runs over the base with the
   overlay's deleted rows passed as the ``exclude`` mask.  Excluded rows
   are still scanned and still bound retirement (exactly like pseudo
   records), so the layer-invariant argument that makes the kernel exact
   is untouched; they are merely never reported.  The sweep therefore
   returns the exact top-k of the *surviving base records* for any
   monotone function.
2. **Delta scan.**  Overlay records are scored exhaustively with
   ``function.score_many`` — the same reduction the kernel's float64
   boundary re-check uses — so a delta record's score is bit-identical
   to what a recompiled snapshot would assign it (the ``score_many``
   determinism contract: a row's score never depends on its neighbours).
3. **Merge.**  This happens inside the kernel's one selection, not
   after it: each query's delta scores are appended to its base
   *candidates* — every swept surviving row that could still reach the
   base top-k, exactly re-scored — before the single
   ``(-score, id)`` ranking.  Any record outside the base top-k is
   beaten by ``k`` surviving base records, all of which are in that
   pool, so the selection over (base candidates) ∪ (delta) is the
   global top-k; there is no intermediate base result to build, unpack
   and rank a second time.

``tests/test_overlay.py`` enforces this with a hypothesis property test
over random interleaved insert/delete/mark_deleted sequences, and the
serving concurrency suite re-checks it against from-scratch rebuilds.

Immutability discipline
-----------------------
A published overlay is frozen: every array has its write flag cleared,
and the ``overlay-discipline`` lint rule flags any assignment through a
name bound from :meth:`OverlayBuilder.freeze`.  Writers accumulate
changes in a mutable :class:`~repro.core.maintenance.OverlayBuilder`
and freeze a *new* overlay per publish — O(overlay size), which the
serving layer caps.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.compiled import CompiledDG, _batch_top_k
from repro.core.functions import ScoringFunction, WherePredicate
from repro.core.result import TopKResult
from repro.metrics.counters import AccessCounter
from repro.resilience.deadline import Deadline

#: Algorithm label stamped on merged base+delta results.
OVERLAY_ALGORITHM = "compiled-batch+delta"


class DeltaOverlay:
    """Immutable record of everything since the last compiled base.

    Attributes
    ----------
    delta_ids:
        Record ids inserted since the base was compiled (int64, sorted
        ascending).
    delta_values:
        Their float64 vectors, one row per ``delta_ids`` entry.
    deleted_rows:
        Dense row indices *into the base snapshot* whose records were
        deleted (or re-inserted, superseding the base row), sorted
        ascending.
    created_at:
        Monotonic timestamp of the oldest unfolded change, for the
        compactor's age threshold.

    All arrays are frozen at construction; a publish hands readers this
    object and never touches it again (the ``overlay-discipline`` lint
    rule enforces that).  The dense deleted *mask* is derived lazily so
    building an overlay stays O(changes), not O(base).
    """

    def __init__(
        self,
        *,
        delta_ids: np.ndarray,
        delta_values: np.ndarray,
        deleted_rows: np.ndarray,
        created_at: float = 0.0,
    ) -> None:
        if int(delta_ids.shape[0]) != int(delta_values.shape[0]):
            raise ValueError("delta_ids and delta_values disagree on length")
        self.delta_ids = delta_ids
        self.delta_values = delta_values
        self.deleted_rows = deleted_rows
        self.created_at = float(created_at)
        # Lazy per-snapshot cache, keyed by the base's row count.
        self._deleted_mask_cache: np.ndarray | None = None
        for array in (delta_ids, delta_values, deleted_rows):
            array.setflags(write=False)

    @property
    def delta_count(self) -> int:
        """How many records the overlay adds on top of the base."""
        return int(self.delta_ids.shape[0])

    @property
    def deleted_count(self) -> int:
        """How many base rows the overlay masks out."""
        return int(self.deleted_rows.shape[0])

    @property
    def size(self) -> int:
        """Total overlay weight — what the serving layer caps."""
        return self.delta_count + self.deleted_count

    def deleted_mask(self, num_rows: int) -> np.ndarray | None:
        """Dense boolean mask over the base's rows, or ``None`` if empty.

        Built once per overlay (the base row count never changes while
        this overlay is live) and handed to the kernel's ``exclude``
        parameter verbatim.
        """
        if self.deleted_count == 0:
            return None
        if self._deleted_mask_cache is None:
            mask = np.zeros(num_rows, dtype=bool)
            mask[self.deleted_rows] = True
            mask.setflags(write=False)
            self._deleted_mask_cache = mask
        return self._deleted_mask_cache

    def __repr__(self) -> str:
        return (
            f"DeltaOverlay(delta={self.delta_count}, "
            f"deleted={self.deleted_count})"
        )


def alive_record_ids(
    compiled: CompiledDG, overlay: DeltaOverlay | None = None
) -> np.ndarray:
    """Sorted ids of every answerable record in ``base+overlay``.

    The overlay-aware replacement for reading
    ``compiled.record_ids[~pseudo_mask]`` directly — with a live overlay
    the base alone over-reports deletions-in-flight and misses fresh
    inserts.
    """
    mask = ~compiled.pseudo_mask
    if overlay is not None:
        deleted = overlay.deleted_mask(compiled.num_records)
        if deleted is not None:
            mask = mask & ~deleted
    ids = compiled.record_ids[mask]
    if overlay is not None and overlay.delta_count:
        ids = np.concatenate([ids, overlay.delta_ids])
    out = np.sort(ids)
    return out


def overlay_batch_top_k(
    compiled: CompiledDG,
    overlay: DeltaOverlay,
    functions: Sequence[ScoringFunction],
    k: int,
    *,
    where: WherePredicate | None = None,
    stats: Sequence[AccessCounter] | None = None,
    algorithm: str = OVERLAY_ALGORITHM,
    deadline: Deadline | None = None,
) -> "list[TopKResult]":
    """Answer many queries over ``base+overlay``, bit-identical to a
    recompile.

    One pass through the batch kernel: the overlay's deletions are its
    ``exclude`` mask, and the overlay's records are handed to it as
    unindexed delta rows, which it scores exhaustively and ranks together
    with each query's base candidates under the canonical
    ``(-score, id)`` contract (see the module docstring for the
    exactness argument).  ``deadline`` is checked at kernel chunk
    boundaries and again before the delta scan and merge.
    """
    return _batch_top_k(
        compiled,
        functions,
        k,
        where,
        stats,
        algorithm,
        deadline,
        overlay.deleted_mask(compiled.num_records),
        (overlay.delta_ids, overlay.delta_values)
        if len(overlay.delta_ids) else None,
    )


def overlay_top_k(
    compiled: CompiledDG,
    overlay: DeltaOverlay,
    function: ScoringFunction,
    k: int,
    *,
    where: WherePredicate | None = None,
    stats: AccessCounter | None = None,
    algorithm: str = OVERLAY_ALGORITHM,
    deadline: Deadline | None = None,
) -> TopKResult:
    """Single-query overlay read: a batch of one through the merge path."""
    (result,) = overlay_batch_top_k(
        compiled,
        overlay,
        [function],
        k,
        where=where,
        stats=None if stats is None else [stats],
        algorithm=algorithm,
        deadline=deadline,
    )
    return result
