"""Nearest-Neighbor skyline (Kossmann, Ramsak and Rost, paper ref [11]).

The NN point to the *ideal corner* (the per-dimension maximum of the data)
under L2 is always maximal: dominating a record moves you coordinate-wise
toward the corner.  That point partitions the remaining search space into
``m`` overlapping open regions — "strictly better than the NN in dimension
i" — which alone can hold further skyline points; each region goes on a
to-do list and is solved by a constrained NN query against the R-tree,
recursively.

Implementation notes:

- Regions are *open* boxes ``{x : x_d > low_d for every d}`` (the initial
  ``low`` sits below the data, so it never binds).  Openness in every
  raised dimension is what makes each recursion step strictly raise one
  lower bound through actual data values, so the traversal terminates even
  on tie-heavy data.
- Regions overlap for m > 2, so duplicates are merged, identical regions
  reached via different parents are deduplicated, and a final dominance
  filter over the (small) candidate set guarantees exactness — mirroring
  the duplicate elimination the original authors describe.
- Complexity caveat (also from the original paper): the region count grows
  exponentially with dimensionality; NN is practical for m <= 3 and the
  ablation benchmark exercises it there.
"""

from __future__ import annotations

import numpy as np

from repro.core.dominance import maximal_mask
from repro.spatial.rtree import RTree


def nn_skyline(values: np.ndarray, rtree: RTree | None = None) -> np.ndarray:
    """Sorted indices of the maximal rows via recursive NN queries.

    Parameters
    ----------
    values:
        ``(n, m)`` record block.
    rtree:
        Optional pre-built R-tree over ``values`` (record ids = row
        indices); bulk-loaded on the fly when omitted.

    Examples
    --------
    >>> nn_skyline(np.array([[2.0, 2.0], [1.0, 1.0], [3.0, 0.0]])).tolist()
    [0, 2]
    """
    values = np.asarray(values, dtype=np.float64)
    n, m = values.shape
    if n == 0:
        return np.empty(0, dtype=np.intp)
    if rtree is None:
        rtree = RTree.bulk_load(values)

    corner = values.max(axis=0)
    # Strictly below every record: the next float down, since ``min - 1.0``
    # is not below 1e16 in float64.
    base_low = np.nextafter(values.min(axis=0), -np.inf)

    candidates: set = set()
    todo: list = [base_low]
    visited: set = set()
    while todo:
        low = todo.pop()
        key = low.tobytes()
        if key in visited:
            continue
        visited.add(key)
        nearest = _constrained_nn(rtree, values, corner, low)
        if nearest is None:
            continue
        candidates.add(nearest)
        nn_point = values[nearest]
        for d in range(m):
            # Open sub-region d: strictly better than the NN in dimension d.
            if nn_point[d] >= corner[d]:
                continue  # nothing can exceed the data maximum
            new_low = low.copy()
            new_low[d] = nn_point[d]
            todo.append(new_low)

    # Exact duplicates of a maximal record are maximal too (Definition 2.2
    # needs a strict inequality somewhere), but the NN query surfaces only
    # one copy per vector — gather the rest before the final filter.
    for rid in list(candidates):
        same = np.flatnonzero(np.all(values == values[rid], axis=1))
        candidates.update(int(i) for i in same)

    ids = np.asarray(sorted(candidates), dtype=np.intp)
    keep = maximal_mask(values[ids])
    return ids[keep]


def _constrained_nn(
    rtree: RTree,
    values: np.ndarray,
    corner: np.ndarray,
    low: np.ndarray,
) -> int | None:
    """Nearest record to ``corner`` strictly above ``low`` in every dim."""
    for record_id, _ in rtree.nearest_iter(corner):
        if bool(np.all(values[record_id] > low)):
            return int(record_id)
    return None
