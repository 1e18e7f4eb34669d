"""Offline Dominant Graph construction (paper Section II, "Building DG").

The paper builds the DG by (1) finding each maximal layer with "any skyline
algorithm" and (2) wiring parent-children edges between consecutive layers.
:func:`build_dominant_graph` does (1) for all layers at once — every
record's layer from the longest-chain rule, in one blocked pass
(:func:`repro.core.layers.layer_indices_by_chains`) — unless a ``skyline=``
routine is passed, which it then peels with, one layer at a time; and (2)
from one dominance matrix per pair of consecutive layers.
:func:`build_extended_graph` additionally stacks pseudo levels on top when
the first layer exceeds the θ threshold (Section IV-A).

Both builders accept a ``record_ids`` subset so a graph can index part of a
dataset — the maintenance experiments (Section V) pre-generate insertion
batches as unindexed rows and index them one at a time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.dataset import Dataset
from repro.core.dominance import dominance_matrix
from repro.core.graph import DominantGraph
from repro.core.layers import SkylineFunction, compute_layers
from repro.core.pseudo import default_theta, extend_with_pseudo_levels


def build_dominant_graph(
    dataset: Dataset,
    skyline: SkylineFunction | None = None,
    record_ids: Sequence[int] | None = None,
) -> DominantGraph:
    """Build the plain DG index of a dataset.

    Parameters
    ----------
    dataset:
        The record set to index.
    skyline:
        Optional maximal-set routine (block -> boolean mask) to peel the
        layers with, e.g. any algorithm from :mod:`repro.skyline` via
        :func:`repro.skyline.as_mask_function`.  The default is the
        blocked longest-chain pass, which builds the same graph.
    record_ids:
        Optional subset of rows to index (default: all rows).

    Returns
    -------
    A validated-by-construction :class:`~repro.core.graph.DominantGraph`.

    Examples
    --------
    >>> from repro.core.dataset import Dataset
    >>> ds = Dataset([[4.0, 1.0], [1.0, 4.0], [0.5, 0.5]])
    >>> graph = build_dominant_graph(ds)
    >>> graph.layer_sizes()
    [2, 1]
    """
    if record_ids is None:
        ids = np.arange(len(dataset), dtype=np.intp)
    else:
        ids = np.unique(np.fromiter(record_ids, dtype=np.intp))
        if ids.size == 0:
            raise ValueError("record_ids must select at least one record")
        if ids[0] < 0 or ids[-1] >= len(dataset):
            raise ValueError("record_ids out of range for the dataset")

    values = dataset.values[ids]
    local_layers = compute_layers(values, skyline=skyline)

    graph = DominantGraph(dataset)
    global_layers = [ids[layer] for layer in local_layers]
    graph._adopt(
        np.concatenate(global_layers),
        np.repeat(
            np.arange(len(global_layers), dtype=np.intp),
            [layer.size for layer in global_layers],
        ),
        _consecutive_layer_edges(global_layers, dataset),
    )
    return graph


def _consecutive_layer_edges(layers: Sequence[np.ndarray], dataset: Dataset) -> np.ndarray:
    """Every dominance edge between each pair of consecutive layers.

    One ``np.nonzero`` turns a pair's dominance matrix into its edge
    list; returns all of them as ``(parent, child)`` rows.
    """
    parents = [np.empty(0, dtype=np.intp)]
    children = [np.empty(0, dtype=np.intp)]
    for upper_ids, lower_ids in zip(layers, layers[1:]):
        matrix = dominance_matrix(
            dataset.values[upper_ids], dataset.values[lower_ids]
        )
        above, below = np.nonzero(matrix)
        parents.append(upper_ids[above])
        children.append(lower_ids[below])
    return np.column_stack((np.concatenate(parents), np.concatenate(children)))


def build_extended_graph(
    dataset: Dataset,
    theta: int | None = None,
    skyline: SkylineFunction | None = None,
    record_ids: Sequence[int] | None = None,
    seed: int = 0,
) -> DominantGraph:
    """Build the Extended DG: a DG plus pseudo levels above oversized layers.

    Pseudo levels are introduced only when the first layer holds more than
    ``theta`` records (paper: "it is only necessary to introduce pseudo
    records when L1.size is large"); ``theta`` defaults to the paper's
    page/record ratio via :func:`repro.core.pseudo.default_theta`.

    Returns the same mutable :class:`~repro.core.graph.DominantGraph` type;
    pseudo records answer ``graph.is_pseudo(id)`` with ``True``.
    """
    graph = build_dominant_graph(dataset, skyline=skyline, record_ids=record_ids)
    if theta is None:
        theta = default_theta(dataset.dims)
    extend_with_pseudo_levels(graph, theta=theta, seed=seed)
    return graph
