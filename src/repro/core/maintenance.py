"""Online DG maintenance: insertion and deletion (paper Section V).

The paper's headline claim is that DG maintenance is *local* — unlike
ONION (re-compute convex hulls) or PREFER (re-materialize views), inserting
or deleting a record only restructures the part of the graph the record
dominates — with an O(|D|^2) worst case (Algorithms 4 and 5).

Implementation note (also recorded in DESIGN.md): this module is an
optimized equivalent of the paper's Algorithms 4 and 5 — the literal
pseudocode is transcribed and vindicated in
:mod:`repro.core.paper_variants`, and both formulations are tested equal
to a from-scratch rebuild.  The local rule everything rests on is the
chain characterization of the maximal-layer decomposition::

    layer(t) = 1 + max({layer(s) : s dominates t} or {-1})      (0-based)

For insertion the affected set is ``{t : new record dominates t}``; for
deletion it is the DG descendants of the removed record (every longest
chain is a DG path, so any record whose layer can change is reachable).
Affected records are re-laid-out in ascending old-layer order — which
guarantees a record's changed dominators are finalized before the record
itself — then edges are rebuilt for every moved record.  Both operations
stay within the paper's O(|D|^2) bound and are validated in the test suite
by equivalence to a from-scratch rebuild.

Both read the graph's layer table as arrays: an insert takes its two
one-vs-many tests from one per-dimension sweep over ``dataset.values``
under ``table >= 0`` — O(len(dataset)) rather than O(indexed) — and the
cascade and the edge repair work on slices of it; no id set is turned
back into an array on the way (``docs/performance.md``, "What a write
costs").

Extended DGs (with pseudo levels) are maintained too, per the paper
("suitable for both DG and Extended DG"): a record arriving at the first
real layer without a pseudo parent raises the nearest bottom-level pseudo
(and its ancestor chain) to cover it, and pseudo records left childless by
deletions are garbage-collected.  The quick alternative the paper offers
for deletion — mark the record as pseudo so the Advanced Traveler skips it
— is :func:`mark_deleted`.
"""

from __future__ import annotations

import time
from typing import Iterable, Protocol, Sized

import numpy as np

from repro.core.compiled import CompiledDG
from repro.core.dominance import (
    _weak_dominance,
    dominance_matrix,
    dominated_by,
    dominates,
    dominators_of,
)
from repro.core.graph import DominantGraph
from repro.core.overlay import DeltaOverlay
from repro.core.pseudo import count_pseudo_levels, pseudo_parent_vector
from repro.errors import InvariantViolation


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _rebuild_edges(graph: DominantGraph, record_ids) -> None:
    """Recompute all edges incident to the given records.

    Assumes every record is already sitting in its final layer.  Edges are
    symmetric sets, so records moved next to each other are wired once.
    Neighbouring layer blocks are cached per layer index, since moved
    records cluster in few layers: a slice of the dataset's own matrix,
    unless the graph holds pseudo records, which own their vectors (a
    converted one may have been raised above its row).
    """
    for rid in record_ids:
        graph.drop_edges(rid)
    blocks: dict = {}

    def block_for(index: int) -> tuple:
        if index not in blocks:
            ids = graph.layer_array(index)
            if graph.num_pseudo:
                blocks[index] = ids, graph.rows_for(ids)[0]
            else:
                blocks[index] = ids, graph.dataset.values.take(ids, axis=0)
        return blocks[index]

    for rid in record_ids:
        layer = graph.layer_of(rid)
        vector = graph.vector(rid)
        if layer > 0:
            above, above_block = block_for(layer - 1)
            for parent in above[dominators_of(vector, above_block)].tolist():
                graph.add_edge(parent, rid)
        if layer + 1 < graph.num_layers:
            below, below_block = block_for(layer + 1)
            for child in below[dominated_by(vector, below_block)].tolist():
                graph.add_edge(rid, child)


# ----------------------------------------------------------------------
# Pseudo-level repair (Extended DG maintenance)
# ----------------------------------------------------------------------
def _repair_pseudo_cover(graph: DominantGraph, vector: np.ndarray) -> None:
    """Make the pseudo levels strictly dominate ``vector``.

    Ensures (a) no pseudo record is dominated by ``vector`` — any such
    pseudo is raised above it — and (b) some bottom-level pseudo strictly
    dominates ``vector``, raising the nearest one when none does.  Raising
    a pseudo keeps all of its child edges valid (its vector only grows)
    but can break its own parent edges, so raised pseudos are re-covered
    upward level by level; pseudos dominated inside their own level are
    merged into their dominator, which inherits their children.  Edges
    across pseudo boundaries stay sparse (cluster-style): each record
    keeps at least one dominating pseudo parent, never necessarily all.
    """
    levels = count_pseudo_levels(graph)
    if levels == 0:
        return

    def raise_to_cover(pid: int, covered: np.ndarray) -> None:
        current = graph.vector(pid)
        if dominates(current, covered):
            return
        graph.update_pseudo_vector(
            pid, pseudo_parent_vector(np.vstack([current, covered]))
        )
        # The grown vector may have escaped some of its parents.
        for parent in list(graph.parents_of(pid)):
            if not dominates(graph.vector(parent), graph.vector(pid)):
                graph.remove_edge(parent, pid)

    # (a) No pseudo anywhere may be dominated by the incoming vector.
    for level in range(levels):
        for pid in sorted(graph.layer(level)):
            if dominators_of(graph.vector(pid), vector[None, :]).any():
                raise_to_cover(pid, vector)

    # (b) Some bottom-level pseudo must strictly dominate the vector.
    bottom = sorted(graph.layer(levels - 1))
    if not any(dominates(graph.vector(pid), vector) for pid in bottom):
        distances = [
            float(np.sum((graph.vector(pid) - vector) ** 2)) for pid in bottom
        ]
        raise_to_cover(bottom[int(np.argmin(distances))], vector)

    # Re-cover upward: every pseudo below the top level needs a dominating
    # parent one level up; raise the nearest candidate when none is left.
    for level in range(levels - 1, 0, -1):
        above = sorted(graph.layer(level - 1))
        for pid in sorted(graph.layer(level)):
            pv = graph.vector(pid)
            if any(
                dominates(graph.vector(up), pv)
                for up in graph.parents_of(pid)
            ):
                continue
            covering = [up for up in above if dominates(graph.vector(up), pv)]
            if covering:
                graph.add_edge(covering[0], pid)
                continue
            distances = [
                float(np.sum((graph.vector(up) - pv) ** 2)) for up in above
            ]
            chosen = above[int(np.argmin(distances))]
            raise_to_cover(chosen, pv)
            graph.add_edge(chosen, pid)

    # Merge away pseudos now dominated inside their own level; the
    # dominator inherits the victim's children (it dominates them too, by
    # transitivity of strict-through-weak dominance).
    for level in range(levels):
        members = sorted(graph.layer(level))
        if not members:
            continue
        vectors = np.vstack([graph.vector(pid) for pid in members])
        for i, pid in enumerate(members):
            if pid not in graph:
                continue
            others = [
                member
                for member in sorted(graph.layer(level))
                if member != pid
                and dominators_of(vectors[i], graph.vector(member)[None, :]).any()
            ]
            if not others:
                continue
            # Lowest-id dominator inherits: without the sort above the heir
            # followed Python's set order and merges differed between runs.
            heir = others[0]
            for child in list(graph.children_of(pid)):
                graph.add_edge(heir, child)
            graph.remove_record(pid)
    # No pruning here: merges keep their heir in the same level, so no
    # level empties, and callers mid-operation rely on stable indices.


def _reattach_pseudo_parent(graph: DominantGraph, record_id: int) -> None:
    """Give a first-real-layer record a dominating pseudo parent edge.

    Called after :func:`_repair_pseudo_cover` guaranteed such a pseudo
    exists; a no-op when the record already has a dominating parent.
    """
    levels = count_pseudo_levels(graph)
    if levels == 0 or graph.layer_of(record_id) != levels:
        return
    vector = graph.vector(record_id)
    if any(
        dominates(graph.vector(p), vector) for p in graph.parents_of(record_id)
    ):
        return
    for pid in sorted(graph.layer(levels - 1)):
        if dominates(graph.vector(pid), vector):
            graph.add_edge(pid, record_id)
            return
    raise InvariantViolation(
        "pseudo cover repair did not produce a dominating parent — "
        "Extended DG invariant broken"
    )


# ----------------------------------------------------------------------
# Insertion (paper Algorithm 4, corrected layer rule)
# ----------------------------------------------------------------------
def insert_record(graph: DominantGraph, record_id: int) -> int:
    """Index dataset row ``record_id`` into the DG; return its layer.

    The row must already exist in ``graph.dataset`` (build the graph over a
    subset of rows, then insert the rest — which is how the paper's
    maintenance experiment feeds 1K fresh records one at a time).

    Complexity: O(|D| * |affected|) dominance work plus edge rebuilding for
    moved records — within the paper's O(|D|^2) worst case.
    """
    values = graph.dataset.values
    size = values.shape[0]
    if record_id in graph:
        raise ValueError(f"record {record_id} is already indexed")
    if not 0 <= record_id < size:
        raise IndexError(f"record {record_id} is not a dataset row")
    vector = values[record_id]

    _repair_pseudo_cover(graph, vector)
    pseudo_levels = count_pseudo_levels(graph)

    # Both one-vs-many tests from one sweep over the dataset's own rows,
    # read under the layer table (aligned with them): O(len(dataset))
    # rather than O(indexed), with no id set or gathered copy in between.
    # Pseudo records (a handful) own their vectors and are tested apart.
    table = graph._table
    ge, le = _weak_dominance(vector, values)
    indexed = table[:size] >= 0
    pseudo = np.asarray(graph.pseudo_ids(), dtype=np.intp)
    indexed[pseudo[pseudo < size]] = False
    dominator_layers = table[:size][ge & ~le & indexed]
    # Affected set: everything the new record dominates can gain a longer
    # chain (by at most one hop through the new record).
    affected_ids = np.flatnonzero(le & ~ge & indexed)
    affected_vectors = values.take(affected_ids, axis=0)
    if pseudo.size:
        pseudo_block = graph.rows_for(pseudo)[0]
        above = pseudo[dominators_of(vector, pseudo_block)]
        dominator_layers = np.concatenate([dominator_layers, table[above]])
        below = dominated_by(vector, pseudo_block)
        affected_ids = np.concatenate([affected_ids, pseudo[below]])
        affected_vectors = np.vstack([affected_vectors, pseudo_block[below]])
    affected_layers = table[affected_ids]

    target = max(int(dominator_layers.max(initial=-1)) + 1, pseudo_levels)
    graph.place_record(record_id, target)

    # Insertion shifts any layer by at most one: every dominator of the
    # new record also dominates whatever the new record dominates, so an
    # affected record's old layer is already >= target, and it moves down
    # exactly one layer iff a *mover into its own layer* dominates it —
    # the new record itself, or a cascade of previously bumped records.
    # Walking old layers downward from `target` therefore needs one
    # movers-vs-residents dominance matrix per layer, nothing per record,
    # and stops at the first layer nothing is bumped out of.
    moved = [record_id]
    arrivals = vector[None, :]
    layer = target
    while arrivals.shape[0]:
        sel = affected_layers == layer
        if not sel.any():
            break
        block = affected_vectors[sel]
        bumped = dominance_matrix(arrivals, block).any(axis=0)
        layer += 1
        for t in affected_ids[sel][bumped].tolist():
            graph.move_record(t, layer)
            moved.append(t)
        arrivals = block[bumped]

    _rebuild_edges(graph, moved)
    graph.prune_empty_layers()
    return graph.layer_of(record_id)


# ----------------------------------------------------------------------
# Deletion (paper Algorithm 5, corrected layer rule)
# ----------------------------------------------------------------------
def delete_record(graph: DominantGraph, record_id: int) -> None:
    """Remove a record from the index, promoting descendants as needed.

    Implements the "chain reaction" of Algorithm 5: descendants whose
    longest dominating chain ran through the deleted record rise by one
    layer, recursively.  Descendants are exactly the records that can move
    (every longest chain is a DG path), and each one's new layer is
    recomputed from its true dominator set, so the result matches a full
    rebuild.
    """
    if record_id not in graph:
        raise KeyError(f"record {record_id} is not indexed")

    # DG descendants, the affected superset (BFS over child edges).
    descendants: list = []
    seen = {record_id}
    frontier = list(graph.children_of(record_id))
    while frontier:
        nxt: list = []
        for rid in frontier:
            if rid in seen:
                continue
            seen.add(rid)
            descendants.append(rid)
            nxt.extend(graph.children_of(rid))
        frontier = nxt

    graph.remove_record(record_id)
    pseudo_levels = count_pseudo_levels(graph)

    # Deleting one record shortens any dominance chain by at most one, so
    # every layer shifts by at most one.  A descendant t at old layer X
    # moves up exactly when no dominator remains at layer X-1 — and the
    # layer-(X-1) dominators are precisely t's DG parents, so the paper's
    # Algorithm 5 cascade ("if C_i has no other parent in the nth layer,
    # promote it") is exact here: t promotes iff all of its parents are
    # the deleted record or records promoted by this cascade.
    descendants.sort(key=graph.layer_of)
    gone_or_promoted = {record_id}
    new_layer: dict = {}
    moved: list = []
    needs_cover: list = []
    for t in descendants:
        if any(p not in gone_or_promoted for p in graph.parents_of(t)):
            continue
        layer = graph.layer_of(t) - 1
        if not graph.is_pseudo(t) and layer < pseudo_levels:
            # Would rise past the first real layer: stays, but its pseudo
            # parents are gone, so the cover must be repaired.
            needs_cover.append(t)
            continue
        new_layer[t] = layer
        moved.append(t)
        gone_or_promoted.add(t)

    for t in needs_cover:
        _repair_pseudo_cover(graph, graph.vector(t))
    for t in moved:
        graph.move_record(t, new_layer[t])
    _rebuild_edges(graph, moved)
    for t in needs_cover:
        _reattach_pseudo_parent(graph, t)

    # Garbage-collect pseudo parents left childless, cascading upward; each
    # pass sweeps only the pseudo ids, a handful per graph.
    while True:
        childless = [p for p in graph.pseudo_ids() if not graph.children_of(p)]
        if not childless:
            break
        for pid in childless:
            graph.remove_record(pid)
    graph.prune_empty_layers()


class _Membership(Protocol):
    """What batch validation reads of a graph: who is indexed, and how
    many dataset rows there are.  Recovery validates a WAL suffix against
    a checkpoint payload through the same two questions."""

    @property
    def dataset(self) -> Sized: ...

    def __contains__(self, record_id: int) -> bool: ...


def validate_insert_batch(
    graph: _Membership, record_ids: Iterable[int]
) -> list[int]:
    """Normalize and fully validate an insertion batch *before* mutation.

    Returns the ids as ``int``\\ s.  Raises ``ValueError`` on a duplicate
    or already-indexed id and ``IndexError`` on an id outside the
    dataset's rows — always before the graph is touched, so a rejected
    batch leaves the index exactly as it was.
    """
    record_ids = [int(r) for r in record_ids]
    seen: set = set()
    for rid in record_ids:
        if rid in seen:
            raise ValueError(f"record {rid} appears twice in the batch")
        seen.add(rid)
        if rid in graph:
            raise ValueError(f"record {rid} is already indexed")
        if not 0 <= rid < len(graph.dataset):
            raise IndexError(f"record {rid} is not a dataset row")
    return record_ids


def validate_delete_batch(
    graph: _Membership, record_ids: Iterable[int]
) -> list[int]:
    """Normalize and fully validate a deletion batch *before* mutation.

    Returns the ids as ``int``\\ s.  Raises ``ValueError`` on a duplicate
    and ``KeyError`` on an id that is not indexed — always before the
    graph is touched, so a rejected batch leaves the index exactly as it
    was.
    """
    record_ids = [int(r) for r in record_ids]
    seen: set = set()
    for rid in record_ids:
        if rid in seen:
            raise ValueError(f"record {rid} appears twice in the batch")
        seen.add(rid)
        if rid not in graph:
            raise KeyError(f"record {rid} is not indexed")
    return record_ids


def insert_many(graph: DominantGraph, record_ids: Iterable[int]) -> list[int]:
    """Index a batch of dataset rows; returns each record's layer.

    The paper notes that batched maintenance is what its rivals *require*
    (ONION/AppRI rebuild; "it is advisable to perform index maintenance in
    batches" for AppRI); DG does not need batching for correctness, so
    this is a loop over :func:`insert_record`.  When a batch approaches
    the index size, a from-scratch
    :func:`~repro.core.builder.build_dominant_graph` over the union is the
    faster choice — that trade-off belongs to the caller, who knows both
    sizes.

    The batch is **all-or-nothing with respect to validation**: every id
    is checked up front (duplicates within the batch, already-indexed
    ids, out-of-range rows) via :func:`validate_insert_batch`, and any
    invalid id raises *before the graph is mutated at all*.  Callers —
    the WAL-backed :class:`~repro.serve.index.ServingIndex` in
    particular — rely on this to log a batch as one atomic record: a
    rejected batch leaves nothing to undo.
    """
    record_ids = validate_insert_batch(graph, record_ids)
    layers = []
    for rid in record_ids:
        layers.append(insert_record(graph, rid))
    return layers


def delete_many(graph: DominantGraph, record_ids: Iterable[int]) -> None:
    """Remove a batch of records (loop over :func:`delete_record`).

    All-or-nothing with respect to validation, exactly like
    :func:`insert_many`: duplicates and unindexed ids raise (via
    :func:`validate_delete_batch`) before any record is removed, so a
    rejected batch is a no-op.
    """
    record_ids = validate_delete_batch(graph, record_ids)
    for rid in record_ids:
        delete_record(graph, rid)


def mark_deleted(graph: DominantGraph, record_id: int) -> None:
    """The paper's cheap deletion: mark the record as pseudo (Section V-B).

    The graph keeps its structure; the Advanced Traveler traverses the
    record but no longer reports it.  Use :func:`delete_record` when the
    physical structure should shrink (the paper suggests rebuilding or
    properly deleting in batches).
    """
    if record_id not in graph:
        raise KeyError(f"record {record_id} is not indexed")
    graph.convert_to_pseudo(record_id)


# ----------------------------------------------------------------------
# Delta application: the mutable side of the base+delta overlay
# ----------------------------------------------------------------------
class OverlayBuilder:
    """Accumulates changes since a compiled base into overlay form.

    The maintenance functions above mutate the live
    :class:`DominantGraph`; this builder records the *visible effect* of
    each mutation relative to a frozen
    :class:`~repro.core.compiled.CompiledDG` base, so the serving layer
    can publish an O(changes) :class:`~repro.core.overlay.DeltaOverlay`
    instead of recompiling.  One builder lives per base generation; a
    compaction constructs a fresh one against the new base.

    Visibility rules (what makes ``base+overlay`` ≡ recompile):

    - ``insert``: the record joins the delta with its exact float64
      vector.  If the base also holds a (previously deleted) row for the
      id, that row is masked — the delta entry supersedes it.
    - ``delete`` / ``mark_deleted``: a delta record is simply dropped
      (it was never in the base); a base record's dense row joins the
      deletion set.  Both operations have the same *answer* effect — a
      marked-pseudo record is scanned but never reported, and a masked
      base row is likewise scanned (it still bounds retirement) but
      never reported.

    The builder itself is writer-private and mutable; only
    :meth:`freeze` output escapes to readers, and that output is frozen.
    """

    def __init__(self, base: CompiledDG) -> None:
        # Dense row of each real base record by id, -1 for pseudo or
        # absent ids: one scatter, paid by every open, fold and create.
        real = ~base.pseudo_mask
        ids = base.record_ids
        self._base_rows = np.full(int(ids.max(initial=-1)) + 1, -1, dtype=np.int64)
        self._base_rows[ids[real]] = np.flatnonzero(real)
        self._dims = int(base.values.shape[1])
        self._delta: "dict[int, np.ndarray]" = {}
        self._deleted: "set[int]" = set()
        self._first_change: float | None = None

    def _touch(self) -> None:
        if self._first_change is None:
            self._first_change = time.monotonic()

    def _base_row(self, record_id: int) -> "int | None":
        """Dense row of a real base record, ``None`` for any other id."""
        if 0 <= record_id < self._base_rows.shape[0]:
            row = int(self._base_rows[record_id])
            if row >= 0:
                return row
        return None

    @property
    def size(self) -> int:
        """Overlay weight if frozen now — what publish caps compare."""
        return len(self._delta) + len(self._deleted)

    @property
    def age(self) -> float:
        """Seconds since the oldest unfolded change (0.0 when empty)."""
        if self._first_change is None:
            return 0.0
        return time.monotonic() - self._first_change

    def insert(self, record_id: int, vector: np.ndarray) -> None:
        """Record an insert applied to the graph."""
        self._touch()
        self._delta[record_id] = np.array(
            vector, dtype=np.float64, copy=True
        )
        row = self._base_row(record_id)
        if row is not None:
            self._deleted.add(row)

    def delete(self, record_id: int) -> None:
        """Record a delete (or mark-deleted) applied to the graph."""
        self._touch()
        if record_id in self._delta:
            del self._delta[record_id]
            return
        row = self._base_row(record_id)
        if row is None:
            raise KeyError(
                f"record {record_id} is neither in the overlay nor a "
                "real record of the base snapshot"
            )
        self._deleted.add(row)

    def mark_deleted(self, record_id: int) -> None:
        """Same visible effect as :meth:`delete` (see class docstring)."""
        self.delete(record_id)

    def freeze(self) -> "DeltaOverlay | None":
        """An immutable overlay of the changes so far (``None`` if none).

        Builds fresh arrays every call — published overlays are never
        shared with the builder's mutable state, so later mutations
        cannot leak into a snapshot readers already pinned.
        """
        if not self._delta and not self._deleted:
            return None
        ids = sorted(self._delta)
        if ids:
            delta_values = np.stack([self._delta[rid] for rid in ids])
        else:
            delta_values = np.empty((0, self._dims), dtype=np.float64)
        return DeltaOverlay(
            delta_ids=np.asarray(ids, dtype=np.int64),
            delta_values=delta_values,
            deleted_rows=np.asarray(sorted(self._deleted), dtype=np.int64),
            created_at=(
                0.0 if self._first_change is None else self._first_change
            ),
        )
