"""Naive full-scan top-k: the correctness oracle and the floor baseline."""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset
from repro.core.functions import ScoringFunction
from repro.core.result import TopKResult, exact_top_k
from repro.metrics.counters import AccessCounter


def naive_top_k(dataset: Dataset, function: ScoringFunction, k: int) -> TopKResult:
    """Exact top-k by scoring every record (cost = |D| computations).

    Ties are broken by smaller record id, the convention shared by every
    algorithm in the repository.

    Examples
    --------
    >>> from repro.core.functions import LinearFunction
    >>> ds = Dataset([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
    >>> naive_top_k(ds, LinearFunction([1.0, 1.0]), 2).ids
    (2, 1)
    """
    return exact_top_k(dataset.values, np.arange(len(dataset)), function, k)


def naive_top_k_subset(
    dataset: Dataset,
    record_ids,
    function: ScoringFunction,
    k: int,
    where=None,
    stats: AccessCounter | None = None,
) -> TopKResult:
    """Full scan restricted to ``record_ids`` — the last-resort serving tier.

    Unlike :func:`naive_top_k`, this honours index membership (rows never
    indexed, or mark-deleted ones, are simply not in ``record_ids``) and
    the Advanced Traveler's ``where`` selection predicate, so the query
    guard can fall back to it from a broken DG engine without changing
    answers.  Accesses are charged *before* scoring, so a budget-enforcing
    ``stats`` counter can refuse the scan up front.
    """
    ids = np.array(record_ids, dtype=np.intp)
    return exact_top_k(
        dataset.values.take(ids, axis=0), ids, function, k, where=where, stats=stats
    )
