"""Pseudo records and the Extended DG (paper Section IV-A).

When the first DG layer is large, the Basic Traveler must score every one
of its records before producing even the top-1 answer.  The paper's fix is
to cluster the oversized layer with K-Means and introduce one *pseudo
record* per cluster — an artificial parent that dominates every cluster
member — then stack further pseudo levels until the topmost level fits a
disk page: θ = page_bytes / record_bytes.

Implementation notes (these are the paper's rules made precise):

- The pseudo parent of a cluster is the coordinate-wise maximum of its
  members, bumped by a tiny ε so that it *strictly* dominates each member
  (the paper's Fig. 4 parents, e.g. P1 = (81, 61), sit strictly above
  their clusters).  Monotonicity then guarantees F(pseudo) > F(member),
  which is what keeps the Traveler's best-first order correct.
- "We remove some pseudo records that are dominated by other introduced
  pseudo records": dominated (or duplicate) pseudo parents are dropped and
  their children are covered by the dominating survivor, so no pseudo
  level contains an internal dominance pair.
- Parent-children edges across a pseudo boundary follow *cluster
  membership* ("we build the parent-children relationship between the
  pseudo records in L-1 and the records in the 1st layer", i.e. each
  pseudo parents its own cluster) — NOT every dominance pair.  This is
  what makes pseudo records effective: a record is unlocked as soon as its
  cluster parent pops, so clusters whose upper bound falls below the
  running k-th score are never expanded.  It is also sound: a pseudo edge
  still implies dominance, so the Traveler's best-first invariant (the
  candidate list always upper-bounds everything unseen) is preserved; the
  all-dominators completeness that Theorem 3.1 needs applies to real-real
  boundaries only.
- Levels are stacked "until L_n.size < θ" — we additionally stop if a
  level stops shrinking, which can happen on pathological inputs.
"""

from __future__ import annotations

import numpy as np

from repro.core.dominance import dominators_of
from repro.core.graph import DominantGraph
from repro.cluster.kmeans import kmeans

#: Relative bump applied to a cluster maximum so the pseudo record strictly
#: dominates every member.
_EPSILON = 1e-9

#: Default disk-page size used by :func:`default_theta` (bytes).
DEFAULT_PAGE_BYTES = 4096


def default_theta(dims: int, page_bytes: int = DEFAULT_PAGE_BYTES) -> int:
    """θ = page / record, the paper's threshold for introducing pseudo levels.

    A record is modelled as ``m`` 8-byte attributes plus an 8-byte id, the
    layout a straightforward on-disk representation would use.

    >>> default_theta(3)
    128
    """
    record_bytes = 8 * (dims + 1)
    return max(2, page_bytes // record_bytes)


def pseudo_parent_vector(members: np.ndarray) -> np.ndarray:
    """Strictly dominating parent of a cluster: elementwise max plus ε."""
    top = members.max(axis=0)
    return top + _EPSILON * (1.0 + np.abs(top))


def _merge_dominated(vectors: np.ndarray) -> tuple:
    """Partition pseudo parents into survivors and merged victims.

    Returns ``(kept, owner)`` where ``kept`` are indices of vectors not
    dominated by (and not duplicating) another, and ``owner[i]`` maps every
    index to the kept index that covers it — itself for survivors, a
    dominating/duplicate survivor for victims (whose children it inherits).
    """
    n = vectors.shape[0]
    kept: list = []
    owner = np.arange(n, dtype=np.intp)
    order = np.argsort(-vectors.sum(axis=1), kind="stable")
    for i in order:
        duplicate_of = next(
            (j for j in kept if np.array_equal(vectors[i], vectors[j])), None
        )
        if duplicate_of is not None:
            owner[i] = duplicate_of
            continue
        dominators = [
            j for j in kept if dominators_of(vectors[i], vectors[j][None, :]).any()
        ]
        if dominators:
            owner[i] = dominators[0]
            continue
        kept.append(int(i))
    # Visiting in descending coordinate-sum order guarantees a victim's
    # dominator was already kept, so `owner` always points at a survivor.
    return np.asarray(sorted(kept), dtype=np.intp), owner


def extend_with_pseudo_levels(
    graph: DominantGraph,
    theta: int | None = None,
    seed: int = 0,
    max_levels: int = 32,
) -> int:
    """Stack pseudo levels on top of ``graph`` until the top layer fits θ.

    Mutates the graph in place and returns the number of pseudo levels
    added (0 when the first layer already fits).

    Parameters
    ----------
    graph:
        A plain DG (or one that already has pseudo levels; new levels stack
        above the current top layer).
    theta:
        Page threshold; defaults to :func:`default_theta` for the dataset's
        dimensionality.
    seed:
        K-Means seed, for reproducible level structure.
    max_levels:
        Safety cap on stacked levels.
    """
    if theta is None:
        theta = default_theta(graph.dataset.dims)
    if theta < 2:
        raise ValueError("theta must be at least 2")

    added = 0
    for _ in range(max_levels):
        top_ids = sorted(graph.layer(0))
        if len(top_ids) <= theta:
            break
        top_vectors = np.vstack([graph.vector(rid) for rid in top_ids])
        n_clusters = int(np.ceil(len(top_ids) / theta))
        if n_clusters >= len(top_ids):
            break  # cannot shrink further; give up rather than loop
        clustering = kmeans(top_vectors, n_clusters, seed=seed + added)

        parent_vectors = np.vstack(
            [
                pseudo_parent_vector(top_vectors[clustering.members(c)])
                for c in range(clustering.n_clusters)
            ]
        )
        kept, owner = _merge_dominated(parent_vectors)
        kept_position = {int(c): pos for pos, c in enumerate(kept)}

        pseudo_ids = [graph.add_pseudo_record(parent_vectors[c]) for c in kept]
        graph.prepend_layer(pseudo_ids)

        # Cluster-membership wiring: each record is parented by the pseudo
        # of its cluster (or the survivor that absorbed that cluster).
        for row, cluster in enumerate(clustering.assignments):
            parent = pseudo_ids[kept_position[int(owner[cluster])]]
            graph.add_edge(parent, top_ids[row])
        added += 1
    return added


def count_pseudo_levels(graph: DominantGraph) -> int:
    """Number of leading layers that consist entirely of pseudo records.

    This is the offset at which real layers start — maintenance needs it to
    know where a record with no real dominator belongs.
    """
    if not graph.num_pseudo:
        return 0  # the common case, without materialising the top layer
    levels = 0
    for index in range(graph.num_layers):
        layer = graph.layer(index)
        if layer and all(graph.is_pseudo(rid) for rid in layer):
            levels += 1
        else:
            break
    return levels
