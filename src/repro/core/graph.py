"""The Dominant Graph (Definition 2.4): layered partial-order index.

A DG stores the maximal layers ``L_1..L_n`` of a record set and, between
each pair of consecutive layers, the bipartite *parent-children* edges: a
directed edge runs from ``R`` in ``L_i`` to ``R'`` in ``L_{i+1}`` exactly
when ``R`` dominates ``R'``.  The DG is stored independently of the record
set, as in the paper ("DG is stored independently as the indexing structure
for the record set").

Layer membership is one integer **layer table** — the layer index of
every record id, ``-1`` for ids that are not indexed — aligned row for row
with ``dataset.values`` and grown by doubling for pseudo ids past it.
Every layer accessor derives from it (a layer is ``flatnonzero(table ==
i)``), and :mod:`repro.core.maintenance` reads ``_table`` itself.  Edges
are two dicts of id sets (parents, children), maintained eagerly.

The *Extended* DG (Section IV-A) prepends one or more *pseudo levels*:
artificial records that dominate clusters of the layer below, introduced to
prune first-layer evaluations.  Pseudo records live in the same structure;
they are distinguished by :meth:`DominantGraph.is_pseudo`, and their
vectors are owned by the graph (real vectors are owned by the dataset).

The structure is mutable — Section V's maintenance algorithms move records
between layers in place — so all invariants are re-checkable at any time
via :meth:`DominantGraph.validate`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.core.dataset import Dataset
from repro.core.dominance import dominates


class DominantGraph:
    """Mutable Dominant Graph over a :class:`~repro.core.dataset.Dataset`.

    Do not construct directly in application code; use
    :func:`repro.core.builder.build_dominant_graph` or
    :func:`repro.core.builder.build_extended_graph`.  The constructor takes
    pre-computed layers and edges and trusts them (``validate()`` checks).

    Record identifiers: real records use their dataset row index
    (``0..n-1``); pseudo records are assigned ids ``n, n+1, ...`` by
    :meth:`add_pseudo_record`.
    """

    def __init__(self, dataset: Dataset) -> None:
        self._dataset = dataset
        #: Layer index by record id, -1 = not indexed; ``_widths`` counts it.
        self._table = np.full(len(dataset), -1, dtype=np.intp)
        self._widths: list[int] = []
        self._parents: dict = {}
        self._children: dict = {}
        self._pseudo_vectors: dict = {}
        self._next_pseudo_id = len(dataset)
        self._version = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        """The indexed record set."""
        return self._dataset

    @property
    def num_layers(self) -> int:
        """Total layer count, pseudo levels included."""
        return len(self._widths)

    @property
    def num_pseudo(self) -> int:
        """How many pseudo records the graph currently holds."""
        return len(self._pseudo_vectors)

    def layer(self, index: int) -> frozenset:
        """Record ids of layer ``index`` (0-based; 0 is the topmost layer)."""
        return frozenset(self.layer_array(index).tolist())

    def layer_width(self, index: int) -> int:
        """Record count of layer ``index`` without copying the layer set."""
        return self._widths[index]

    def layer_array(self, index: int) -> np.ndarray:
        """Sorted id array of layer ``index`` (no intermediate set copy)."""
        index = range(len(self._widths))[index]  # list semantics: IndexError, negatives
        return np.flatnonzero(self._table == index)

    def layers(self) -> list:
        """All layers, topmost first, as frozensets of record ids."""
        return [self.layer(index) for index in range(len(self._widths))]

    def layer_of(self, record_id: int) -> int:
        """0-based layer index of a record."""
        if record_id not in self:
            raise KeyError(record_id)
        return int(self._table[record_id])

    def __contains__(self, record_id: int) -> bool:
        return 0 <= record_id < self._table.size and bool(self._table[record_id] >= 0)

    def __len__(self) -> int:
        """Number of indexed records, pseudo included."""
        return sum(self._widths)

    def iter_records(self) -> Iterator[int]:
        """All indexed record ids, in layer order."""
        ids, layers = self.indexed_arrays()
        yield from ids[np.argsort(layers, kind="stable")].tolist()

    def real_ids(self) -> list:
        """Ids of indexed *real* (non-pseudo) records."""
        ids = np.flatnonzero(self._table >= 0).tolist()
        return [rid for rid in ids if rid not in self._pseudo_vectors]

    def indexed_arrays(self) -> tuple:
        """Ids and layer indices of everything indexed, as parallel arrays.

        One ``flatnonzero`` and one take over the layer table, so
        maintenance can snapshot an ``n``-record graph without ``n`` Python
        calls.  Order is ascending id (not layer order); callers that need
        layer grouping sort the arrays themselves.
        """
        ids = np.flatnonzero(self._table >= 0)
        return ids, self._table[ids]

    def pseudo_ids(self) -> list:
        """Sorted ids of the *indexed* pseudo records.

        Registered-but-unplaced pseudos (mid-construction) are excluded,
        so the result always pairs with :meth:`indexed_arrays`.
        """
        return sorted(pid for pid in self._pseudo_vectors if pid in self)

    def is_pseudo(self, record_id: int) -> bool:
        """True for pseudo records (Extended DG artificial parents)."""
        return record_id in self._pseudo_vectors

    def rows_for(self, ids: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Value matrix and pseudo mask aligned row-for-row with ``ids``.

        The bulk form of :meth:`vector` / :meth:`is_pseudo`: real rows
        come out of one vectorized dataset gather and only the (few)
        pseudo vectors are fetched individually, so maintenance and
        :meth:`compile` snapshot ``n`` records with O(n) numpy work
        rather than O(n) Python-level calls.
        """
        pseudo_mask = np.isin(ids, np.asarray(self.pseudo_ids(), dtype=np.intp))
        values = self._dataset.values.take(np.where(pseudo_mask, 0, ids), axis=0)
        for pos in np.flatnonzero(pseudo_mask):
            values[pos] = self._pseudo_vectors[int(ids[pos])]
        return values, pseudo_mask

    def vector(self, record_id: int) -> np.ndarray:
        """Attribute vector of a record (real from the dataset, pseudo local)."""
        pseudo = self._pseudo_vectors.get(record_id)
        if pseudo is not None:
            return pseudo
        return self._dataset.vector(record_id)

    def parents_of(self, record_id: int) -> frozenset:
        """Ids of the record's parents (dominators in the previous layer)."""
        return frozenset(self._parents.get(record_id, ()))

    def children_of(self, record_id: int) -> frozenset:
        """Ids of the record's children (dominated records in the next layer)."""
        return frozenset(self._children.get(record_id, ()))

    def edge_count(self) -> int:
        """Total number of parent-child edges in the graph."""
        return sum(len(kids) for kids in self._children.values())

    def edge_endpoints(self) -> set:
        """Every id appearing as an edge endpoint in either adjacency map.

        Includes ids that are *not* placed in any layer, so
        :func:`repro.core.verify.verify_graph` can flag dangling edges
        left behind by a buggy mutation or a corrupted snapshot.
        """
        ids = set(self._children) | set(self._parents)
        for kids in self._children.values():
            ids |= kids
        for folks in self._parents.values():
            ids |= folks
        return ids

    @property
    def version(self) -> int:
        """Monotone counter bumped by every structural mutation.

        :class:`~repro.core.compiled.CompiledDG` snapshots record the
        version they were built from; a mismatch means the snapshot is
        stale and must be rebuilt with :meth:`compile`.
        """
        return self._version

    # ------------------------------------------------------------------
    # Mutation primitives (used by the builder and Section V maintenance)
    # ------------------------------------------------------------------
    def ensure_layers(self, count: int) -> None:
        """Grow the layer list to at least ``count`` layers."""
        self._widths.extend([0] * (count - len(self._widths)))

    def _reserve(self, max_id: int) -> None:
        """Grow the layer table (by doubling) until ``max_id`` has a slot."""
        size = self._table.shape[0]
        if max_id >= size:
            table = np.full(max(2 * size, max_id + 1), -1, dtype=np.intp)
            table[:size] = self._table
            self._table = table

    def prepend_layer(self, record_ids: Iterable[int]) -> None:
        """Insert a new topmost layer (used to stack pseudo levels)."""
        ids = np.asarray(sorted(set(record_ids)), dtype=np.intp)
        if ids.size:
            self._reserve(int(ids[-1]))
        self._table[self._table >= 0] += 1
        self._table[ids] = 0
        self._widths.insert(0, int(ids.size))
        self._version += 1

    def place_record(self, record_id: int, layer_index: int) -> None:
        """Put a record into a layer (no edges yet; caller wires them)."""
        if record_id in self:
            raise ValueError(f"record {record_id} already indexed")
        if record_id < 0:
            raise ValueError(f"record id {record_id} is negative")
        self._reserve(record_id)
        self.ensure_layers(layer_index + 1)
        self._table[record_id] = layer_index
        self._widths[layer_index] += 1
        self._parents.setdefault(record_id, set())
        self._children.setdefault(record_id, set())
        self._version += 1

    def _adopt(self, record_ids: np.ndarray, layer_of: np.ndarray, edges: np.ndarray) -> None:
        """Place records and wire ``(parent, child)`` rows of an *empty* graph in bulk.

        What one :meth:`place_record` per record and one :meth:`add_edge`
        per edge would leave, less the empty adjacency sets (the builder and
        the loader share it): the table takes the layers in one assignment,
        each adjacency set one slice of the edge list grouped by parent, then
        by child.  The caller vouches for distinct non-negative ids and edges
        between them.
        """
        if record_ids.size:
            self._reserve(int(record_ids.max()))
            self._table[record_ids] = layer_of
            self._widths = np.bincount(layer_of).tolist()
        for adjacency, key in ((self._children, 0), (self._parents, 1)):
            order = np.argsort(edges[:, key], kind="stable")
            owners, starts = np.unique(edges[order, key], return_index=True)
            grouped = edges[order, 1 - key].tolist()
            bounds = starts.tolist() + [len(grouped)]
            for owner, start, stop in zip(owners.tolist(), bounds, bounds[1:]):
                adjacency[owner] = set(grouped[start:stop])
        self._version += record_ids.size + 1

    def move_record(self, record_id: int, new_layer: int) -> None:
        """Move a record to another layer, dropping all its edges.

        The caller is responsible for re-wiring edges afterwards (see
        :mod:`repro.core.maintenance`, which rebuilds edges for every moved
        record against its new neighbouring layers).
        """
        old_layer = self.layer_of(record_id)
        if old_layer == new_layer:
            return
        self.drop_edges(record_id)
        self.ensure_layers(new_layer + 1)
        self._table[record_id] = new_layer
        self._widths[old_layer] -= 1
        self._widths[new_layer] += 1
        self._version += 1

    def remove_record(self, record_id: int) -> None:
        """Remove a record and all of its edges from the index.

        May leave an empty layer behind; callers performing multi-step
        restructuring (Section V maintenance) finish with
        :meth:`prune_empty_layers` once layer indices are stable.
        """
        self._widths[self.layer_of(record_id)] -= 1
        self._table[record_id] = -1
        self.drop_edges(record_id)
        self._parents.pop(record_id, None)
        self._children.pop(record_id, None)
        self._pseudo_vectors.pop(record_id, None)
        self._version += 1

    def update_pseudo_vector(self, record_id: int, vector: np.ndarray) -> None:
        """Raise a pseudo record's vector (maintenance coverage repair).

        The new vector must weakly dominate the old one coordinate-wise, so
        every existing dominance the pseudo participates in as a parent is
        preserved; callers re-wire affected level boundaries afterwards.
        """
        old = self._pseudo_vectors.get(record_id)
        if old is None:
            raise ValueError(f"record {record_id} is not a pseudo record")
        vector = self._frozen_pseudo_vector(vector)
        if np.any(vector < old):
            raise ValueError("pseudo vectors may only be raised, never lowered")
        self._pseudo_vectors[record_id] = vector
        self._version += 1

    def _frozen_pseudo_vector(self, vector: np.ndarray) -> np.ndarray:
        """A read-only float64 copy of ``vector``, checked for shape and NaN/inf."""
        vector = np.asarray(vector, dtype=np.float64).copy()
        if vector.shape != (self._dataset.dims,):
            raise ValueError(
                f"pseudo vector must have shape ({self._dataset.dims},), "
                f"got {vector.shape}"
            )
        if not np.all(np.isfinite(vector)):
            raise ValueError("pseudo vectors must be finite (no NaN/inf)")
        vector.setflags(write=False)
        return vector

    def add_pseudo_record(self, vector: np.ndarray) -> int:
        """Register a pseudo record's vector and return its fresh id.

        The record is *not* placed in a layer; callers follow up with
        :meth:`place_record` / :meth:`prepend_layer`.
        """
        pid = self._next_pseudo_id
        self._pseudo_vectors[pid] = self._frozen_pseudo_vector(vector)
        self._next_pseudo_id += 1
        self._version += 1
        return pid

    def register_pseudo_record(self, record_id: int, vector: np.ndarray) -> None:
        """Register a pseudo record under an explicit id (deserialization).

        Ids must not collide with dataset rows or existing pseudo records;
        the internal id counter advances past the registered id so later
        :meth:`add_pseudo_record` calls stay collision-free.
        """
        if record_id < len(self._dataset):
            raise ValueError(
                f"pseudo id {record_id} collides with a dataset row"
            )
        if record_id in self._pseudo_vectors:
            raise ValueError(f"pseudo id {record_id} already registered")
        self._pseudo_vectors[record_id] = self._frozen_pseudo_vector(vector)
        self._next_pseudo_id = max(self._next_pseudo_id, record_id + 1)
        self._version += 1

    def convert_to_pseudo(self, record_id: int) -> None:
        """Turn a real record into a pseudo one (mark-as-deleted, §V-B).

        The record keeps its position and edges but is no longer reported
        by the Advanced Traveler, which skips pseudo records when counting
        answers.  Its vector is snapshotted into the graph so the record
        set may drop the row independently.
        """
        if self.is_pseudo(record_id):
            return
        vector = self._dataset.vector(record_id).copy()
        vector.setflags(write=False)
        self._pseudo_vectors[record_id] = vector
        self._version += 1

    def add_edge(self, parent: int, child: int) -> None:
        """Add a parent -> child edge (consecutive layers, parent dominates)."""
        self._children.setdefault(parent, set()).add(child)
        self._parents.setdefault(child, set()).add(parent)
        self._version += 1

    def remove_edge(self, parent: int, child: int) -> None:
        """Remove one edge if present."""
        self._children.get(parent, set()).discard(child)
        self._parents.get(child, set()).discard(parent)
        self._version += 1

    def drop_edges(self, record_id: int) -> None:
        """Disconnect a record from all parents and children."""
        for parent in self._parents.get(record_id, set()):
            self._children.get(parent, set()).discard(record_id)
        for child in self._children.get(record_id, set()):
            self._parents.get(child, set()).discard(record_id)
        self._parents[record_id] = set()
        self._children[record_id] = set()
        self._version += 1

    def prune_empty_layers(self) -> None:
        """Delete empty layers and compact the layer indices."""
        if all(self._widths):
            return
        compacted = np.cumsum(np.asarray(self._widths, dtype=np.intp) > 0) - 1
        indexed = self._table >= 0
        self._table[indexed] = compacted[self._table[indexed]]
        self._widths = [width for width in self._widths if width]
        self._version += 1

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate(self, check_layer_minimality: bool = True) -> None:
        """Assert every Definition 2.3/2.4 invariant; raise on violation.

        Checks:

        1. no layer is empty and the per-layer counts match the table;
        2. every edge connects consecutive layers and the parent dominates
           the child;
        3. no record dominates another inside one layer;
        4. every record below the top layer has at least one parent;
        5. (optional) across boundaries whose upper layer is purely real,
           every record's parents include every dominator from the
           previous layer — i.e. real-real edges are complete, not merely
           sound.  Boundaries under a pseudo level are exempt: pseudo
           parenting follows cluster membership (Section IV-A), which is
           sound but intentionally sparse.
        """
        ids, layers = self.indexed_arrays()
        counts = np.bincount(layers, minlength=self.num_layers).tolist()
        assert counts == self._widths, "layer widths and the layer table disagree"
        for index, width in enumerate(self._widths):
            assert width, f"layer {index} is empty (call prune_empty_layers)"
        layer_of = dict(zip(ids.tolist(), layers.tolist()))

        for parent, kids in self._children.items():
            for child in kids:
                assert layer_of[child] == layer_of[parent] + 1, (
                    f"edge {parent}->{child} does not span consecutive layers"
                )
                assert dominates(self.vector(parent), self.vector(child)), (
                    f"edge {parent}->{child} without dominance"
                )
                assert parent in self._parents.get(child, set()), (
                    f"edge {parent}->{child} missing reverse link"
                )
        for child, parents in self._parents.items():
            for parent in parents:
                assert child in self._children.get(parent, set()), (
                    f"edge {parent}->{child} missing forward link"
                )

        members = [self.layer_array(i).tolist() for i in range(self.num_layers)]
        for index, layer in enumerate(members):
            for i, a in enumerate(layer):
                for b in layer[i + 1:]:
                    va, vb = self.vector(a), self.vector(b)
                    assert not dominates(va, vb) and not dominates(vb, va), (
                        f"records {a} and {b} dominate within layer {index}"
                    )
            if index > 0:
                for rid in layer:
                    assert self._parents.get(rid), (
                        f"record {rid} in layer {index} has no parent"
                    )

        if check_layer_minimality:
            for index in range(1, len(members)):
                above = members[index - 1]
                if any(self.is_pseudo(p) for p in above):
                    continue  # pseudo boundaries use sparse cluster edges
                for rid in members[index]:
                    expected = {
                        p for p in above if dominates(self.vector(p), self.vector(rid))
                    }
                    assert expected == self._parents.get(rid, set()), (
                        f"record {rid}: stored parents {self._parents.get(rid)} != "
                        f"dominators in previous layer {expected}"
                    )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self) -> "CompiledDG":
        """Freeze this graph into a flat-array query snapshot.

        Returns a :class:`~repro.core.compiled.CompiledDG`: the records
        in ``(layer, id)`` order as a contiguous value matrix with their
        ids, layer indices and pseudo flags.  The edges stay here — the
        compiled kernel sweeps layers and never walks them.  The snapshot
        is immutable and tied to the current :attr:`version`; any further
        mutation of this graph (maintenance inserts/deletes, edge edits)
        makes the snapshot stale, and its query kernels refuse to run
        until :meth:`compile` is called again.

        >>> from repro.core.dataset import Dataset
        >>> from repro.core.builder import build_dominant_graph
        >>> graph = build_dominant_graph(Dataset([[2.0, 2.0], [1.0, 1.0]]))
        >>> graph.compile().num_records
        2
        """
        from repro.core.compiled import CompiledDG

        return CompiledDG.from_graph(self)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def layer_sizes(self) -> list:
        """Record count per layer, topmost first."""
        return list(self._widths)

    def statistics(self) -> dict:
        """Structural summary: sizes, fan-out, and width statistics.

        Keys: ``records``, ``real_records``, ``pseudo_records``,
        ``layers``, ``edges``, ``max_layer_width``, ``mean_layer_width``,
        ``mean_parents`` (over records below the top layer),
        ``max_parents``, and ``pseudo_levels`` (leading all-pseudo layers).
        """
        from repro.core.pseudo import count_pseudo_levels

        sizes = self.layer_sizes()
        below_top = np.flatnonzero(self._table > 0).tolist()
        parent_counts = [len(self._parents.get(rid, ())) for rid in below_top]
        return {
            "records": len(self),
            "real_records": len(self) - self.num_pseudo,
            "pseudo_records": self.num_pseudo,
            "layers": self.num_layers,
            "edges": self.edge_count(),
            "max_layer_width": max(sizes) if sizes else 0,
            "mean_layer_width": (sum(sizes) / len(sizes)) if sizes else 0.0,
            "mean_parents": (
                sum(parent_counts) / len(parent_counts) if parent_counts else 0.0
            ),
            "max_parents": max(parent_counts) if parent_counts else 0,
            "pseudo_levels": count_pseudo_levels(self),
        }

    def __repr__(self) -> str:
        return (
            f"DominantGraph(records={len(self)}, layers={self.num_layers}, "
            f"pseudo={self.num_pseudo}, edges={self.edge_count()})"
        )
