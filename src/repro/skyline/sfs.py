"""Sort-Filter Skyline: peeling's default routine, one layer at a time.

Rows are visited in a topological order of dominance — descending
coordinate sum, with ties between equal float sums broken
lexicographically on the coordinates, because a dominator's sum is never
smaller but can round to the same float — so each row needs a single
vectorized check against the accepted maximal set.  Worst case O(n * s)
where s is the skyline size; in practice the fastest of the bundled
algorithms on the paper's workloads.  The scan itself is
:func:`repro.core.dominance.maximal_mask`.  The DG builder peels only
when given a ``skyline=`` routine; by default it assigns every layer in
one blocked pass (:func:`repro.core.layers.layer_indices_by_chains`).
"""

from __future__ import annotations

import numpy as np

from repro.core.dominance import maximal_mask


def sfs_skyline(values: np.ndarray) -> np.ndarray:
    """Sorted indices of the maximal rows of ``values``.

    Examples
    --------
    >>> sfs_skyline(np.array([[2.0, 2.0], [1.0, 1.0], [3.0, 0.0]])).tolist()
    [0, 2]
    """
    return np.flatnonzero(maximal_mask(np.asarray(values, dtype=np.float64)))
