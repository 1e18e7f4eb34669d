"""Maximal-layer decomposition of a record set (Definition 2.3).

Layer ``L_1`` is the set of maximal (skyline) records of ``D``; layer
``L_i`` (i > 1) is the maximal set of what remains after peeling layers
``1..i-1``.  Equivalently — and this is the invariant the maintenance
algorithms rely on — a record's layer index equals the length of the
longest dominance chain ending at it::

    layer(t) = 1 + max({layer(s) : s dominates t} or {0})

:func:`layer_indices_by_chains` computes the longest-chain form for the
whole record set in one blocked pass, and is what :func:`compute_layers`
and the DG builder run.  Peeling one skyline at a time is the
``skyline=`` argument of :func:`compute_layers` (the paper: "we can use
any skyline algorithm to find each layer of DG") — the Fig. 6 ablations
plug the six algorithms of :mod:`repro.skyline` into it, and the tests
use it as the reference the blocked pass must equal.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.dominance import _dominators_first, dominance_matrix
from repro.errors import InvariantViolation

# A skyline routine maps an (n, m) block to a boolean mask of its maximal
# rows.  Every algorithm in repro.skyline conforms to this signature via
# repro.skyline.as_mask_function.
SkylineFunction = Callable[[np.ndarray], np.ndarray]

#: Records the blocked pass resolves per step, and rows of one placed layer
#: it compares them with per sweep: the pass's temporaries are a few
#: ``_BLOCK * _SWEEP_ROWS``-byte masks whatever the size of the record set.
_BLOCK = 128
_SWEEP_ROWS = 2048


def compute_layers(
    values: np.ndarray,
    skyline: SkylineFunction | None = None,
) -> list[np.ndarray]:
    """Decompose ``values`` into maximal layers.

    Parameters
    ----------
    values:
        ``(n, m)`` record matrix.
    skyline:
        Function returning the maximal-row mask of a block, run once per
        layer on what the layers above left.  Without one the layers come
        from :func:`layer_indices_by_chains` in a single pass; the result
        is the same.

    Returns
    -------
    list of 1-d integer arrays — record ids per layer, ``layers[0]`` being
    the paper's ``L_1``.  Every record appears in exactly one layer.

    Examples
    --------
    >>> layers = compute_layers(np.array([[2.0, 2.0], [1.0, 1.0], [3.0, 0.0]]))
    >>> [sorted(layer.tolist()) for layer in layers]
    [[0, 2], [1]]
    """
    values = np.asarray(values, dtype=np.float64)
    if skyline is None:
        return layers_from_indices(layer_indices_by_chains(values))
    remaining = np.arange(values.shape[0], dtype=np.intp)
    layers: list[np.ndarray] = []
    while remaining.size:
        mask = np.asarray(skyline(values[remaining]), dtype=bool)
        if not mask.any():
            raise InvariantViolation(
                "skyline routine returned an empty maximal set for a non-empty "
                "block; it would loop forever"
            )
        layers.append(remaining[mask])
        remaining = remaining[~mask]
    return layers


class _PlacedLayer:
    """Vectors of the records the blocked pass has put in one layer."""

    def __init__(self, dims: int) -> None:
        self._rows = np.empty((_BLOCK, dims), dtype=np.float64)
        self._size = 0

    def extend(self, rows: np.ndarray) -> None:
        """Append ``rows``, doubling the buffer when it is full."""
        size = self._size + rows.shape[0]
        if size > self._rows.shape[0]:
            grown = np.empty((max(size, 2 * self._size), rows.shape[1]))
            grown[: self._size] = self._rows[: self._size]
            self._rows = grown
        self._rows[self._size : size] = rows
        self._size = size

    def dominates_any(self, points: np.ndarray) -> np.ndarray:
        """Mask of ``points`` rows dominated by some record of the layer."""
        hit = np.zeros(points.shape[0], dtype=bool)
        for start in range(0, self._size, _SWEEP_ROWS):
            rows = self._rows[start : min(start + _SWEEP_ROWS, self._size)]
            hit |= dominance_matrix(rows, points, block_rows=_SWEEP_ROWS).any(axis=0)
        return hit


def layer_indices_by_chains(values: np.ndarray) -> np.ndarray:
    """Per-record layer index (1-based) via the longest-chain formula.

    Visits records dominators first (descending coordinate sum), a block
    of ``_BLOCK`` at a time.  Every dominator of a block's record is
    either already placed or in the block itself, so its layer is one
    more than the deeper of

    - its deepest placed dominator, found by sweeping the block against
      the placed layers from the deepest up: a record retires at the
      first layer holding a dominator, and since most records sit low in
      the sum order and deep in the graph, most retire within a few of
      the narrow bottom layers;
    - its deepest dominator inside the block, resolved from the block's
      own dominance matrix by relaxing until no layer moves (as many
      rounds as the longest chain inside the block, usually two).

    Returns an ``(n,)`` integer array with ``result[i]`` = layer of record
    ``i`` (1 = first maximal layer).
    """
    values = np.asarray(values, dtype=np.float64)
    order = _dominators_first(values)
    layer = np.zeros(values.shape[0], dtype=np.intp)
    placed: list[_PlacedLayer] = []
    for start in range(0, order.size, _BLOCK):
        ids = order[start : start + _BLOCK]
        block = values[ids]
        block_layer = np.ones(ids.size, dtype=np.intp)
        pending = np.arange(ids.size)
        for index in range(len(placed), 0, -1):
            hit = placed[index - 1].dominates_any(block[pending])
            block_layer[pending[hit]] = index + 1
            pending = pending[~hit]
            if not pending.size:
                break
        inside = dominance_matrix(block, block)
        while True:
            below = np.where(inside, block_layer[:, None], 0).max(axis=0) + 1
            if (below <= block_layer).all():
                break
            np.maximum(block_layer, below, out=block_layer)
        layer[ids] = block_layer
        for index in np.unique(block_layer).tolist():
            if index > len(placed):
                placed.append(_PlacedLayer(values.shape[1]))
            placed[index - 1].extend(block[block_layer == index])
    return layer


def layers_from_indices(layer_of: np.ndarray) -> list[np.ndarray]:
    """Group record ids by layer index (inverse of the flat representation)."""
    layer_of = np.asarray(layer_of)
    if layer_of.size == 0:
        return []
    order = np.argsort(layer_of, kind="stable")  # ids ascend within a layer
    firsts = np.searchsorted(layer_of[order], np.arange(2, layer_of.max() + 1))
    return np.split(order, firsts)


def validate_layers(values: np.ndarray, layers: Sequence[np.ndarray]) -> None:
    """Raise ``AssertionError`` unless ``layers`` is a valid decomposition.

    Checks Definition 2.3: (1) the layers partition all record ids, (2) no
    record dominates another within a layer, and (3) every record in layer
    i > 1 is dominated by at least one record in layer i-1.
    """
    values = np.asarray(values, dtype=np.float64)
    seen: set = set()
    for layer in layers:
        ids = [int(i) for i in layer]
        assert not (set(ids) & seen), "record appears in more than one layer"
        seen.update(ids)
    assert seen == set(range(values.shape[0])), "layers do not cover the record set"

    above = None
    for li, layer in enumerate(layers):
        ids = np.asarray(layer, dtype=np.intp)
        block = values[ids]
        dominated = dominance_matrix(block, block).any(axis=0)
        assert not dominated.any(), (
            f"record {int(ids[dominated.argmax()])} dominated within its own "
            f"layer {li + 1}"
        )
        if above is not None:
            orphan = ~dominance_matrix(above, block).any(axis=0)
            assert not orphan.any(), (
                f"record {int(ids[orphan.argmax()])} in layer {li + 1} has no "
                f"dominator in layer {li}"
            )
        above = block
