"""The dominance relation of Definition 2.2, vectorized.

Record ``R`` *dominates* ``R'`` when ``R.x_i >= R'.x_i`` in every dimension
and ``R.x_j > R'.x_j`` in at least one.  (This is the max-preferring mirror
of the skyline literature's min-preferring definition; the paper notes the
two are "essentially equivalent".)

Everything downstream — layer decomposition, DG edges, skyline baselines,
maintenance — reduces to the three primitives here:

- :func:`dominates` for a single pair,
- :func:`dominators_of` / :func:`dominated_by` for one-vs-many (one
  column sweep per dimension, no Python loop over rows),
- :func:`dominance_matrix` for many-vs-many (used to build bipartite layer
  edges in one shot).
"""

from __future__ import annotations

import numpy as np


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True when vector ``a`` dominates vector ``b`` (Definition 2.2).

    >>> dominates(np.array([3.0, 2.0]), np.array([1.0, 2.0]))
    True
    >>> dominates(np.array([3.0, 2.0]), np.array([3.0, 2.0]))
    False
    """
    return bool(np.all(a >= b) and np.any(a > b))


def _weak_dominance(point: np.ndarray, block: np.ndarray) -> tuple:
    """Masks of ``block`` rows that are ``>=`` / ``<=`` ``point`` everywhere.

    One ``>=`` and one ``<=`` sweep per column of ``block``, ANDed into two
    ``(n,)`` masks; no ``(n, m)`` temporary, no reduction over the short
    axis.  A row dominates ``point`` when it is ``>=`` everywhere and not
    ``<=`` everywhere, and the other way round: one sweep, both tests.
    """
    columns = block.T
    ge = columns[0] >= point[0]
    le = columns[0] <= point[0]
    for dim in range(1, columns.shape[0]):
        ge &= columns[dim] >= point[dim]
        le &= columns[dim] <= point[dim]
    return ge, le


def dominators_of(point: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Boolean mask over ``block`` rows that dominate ``point``.

    ``block`` is ``(n, m)``; returns shape ``(n,)``.
    """
    ge, le = _weak_dominance(point, block)
    return ge & ~le


def dominated_by(point: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Boolean mask over ``block`` rows that ``point`` dominates."""
    ge, le = _weak_dominance(point, block)
    return le & ~ge


def dominance_matrix(
    upper: np.ndarray, lower: np.ndarray, block_rows: int = 256
) -> np.ndarray:
    """Boolean matrix ``M[i, j]`` = "``upper[i]`` dominates ``lower[j]``".

    Used to build the bipartite parent-children edges between consecutive
    DG layers (Definition 2.4) and, block against placed layer, to find
    the layers themselves.  ``upper`` is ``(a, m)``, ``lower`` is
    ``(b, m)``; the result is ``(a, b)``.

    One two-dimensional ``>=`` and one ``<=`` sweep per dimension, ANDed
    into two ``(rows, b)`` masks: ``upper[i]`` dominates ``lower[j]`` when
    it is ``>=`` everywhere and not ``<=`` everywhere.  The sweeps run
    over ``block_rows`` rows of ``upper`` at a time, so the temporaries
    are ``block_rows * b`` bytes each whatever ``a`` and ``m`` are.
    """
    a, m = upper.shape
    out = np.empty((a, lower.shape[0]), dtype=bool)
    columns = np.ascontiguousarray(lower.T)  # one contiguous row per dimension
    for start in range(0, a, block_rows):
        rows = upper[start : start + block_rows]
        ge = out[start : start + block_rows]
        np.greater_equal(rows[:, 0, None], columns[0], out=ge)
        le = rows[:, 0, None] <= columns[0]
        for dim in range(1, m):
            ge &= rows[:, dim, None] >= columns[dim]
            le &= rows[:, dim, None] <= columns[dim]
        ge &= ~le
    return out


def _dominators_first(values: np.ndarray) -> np.ndarray:
    """Row order in which every row comes after all rows that dominate it.

    Descending coordinate sum, ties broken lexicographically on the
    coordinates.  The sum alone is not enough in floating point: a
    dominator's sum is never smaller, but it can round to the *same*
    float (``[1e16, 0.5]`` and ``[1e16, 0.25]``), and a dominator is
    always the lexicographically larger of the two.
    """
    return np.lexsort((*-values.T[::-1], -values.sum(axis=1)))


def maximal_mask(block: np.ndarray) -> np.ndarray:
    """Mask of rows of ``block`` dominated by no other row (Definition 2.3).

    This is the skyline of ``block`` under the max-preferring dominance.
    Implemented as a sort-filter scan (SFS): rows are visited dominators
    first (descending coordinate sum, see :func:`_dominators_first`), so a
    row can only be dominated by an already-accepted maximal row — each
    visit is one vectorized check against the current maximal set.

    Duplicate rows: exact duplicates do not dominate each other
    (Definition 2.2 requires a strict inequality somewhere), so all copies
    are reported maximal when none is dominated.
    """
    n, m = block.shape
    if n == 0:
        return np.zeros(0, dtype=bool)
    mask = np.zeros(n, dtype=bool)
    # Preallocated buffer of accepted maximal rows; a view of the filled
    # prefix is what each new row is checked against.
    buffer = np.empty((n, m), dtype=block.dtype)
    filled = 0
    for idx in _dominators_first(block):
        point = block[idx]
        if filled and bool(dominators_of(point, buffer[:filled]).any()):
            continue
        mask[idx] = True
        buffer[filled] = point
        filled += 1
    return mask


def strictly_dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``a`` is strictly larger in *every* dimension.

    Pseudo records are built to strictly dominate their cluster (Section
    IV-A); strict dominance also never ties under any strictly monotone
    function, which some tests rely on.
    """
    return bool(np.all(a > b))
