"""Cost model of the Basic Traveler (paper Section III).

Definition 3.1 measures cost as the number of records scored by the query
function.  Theorem 3.1 characterizes the search space exactly::

    S1 = S2 ∪ S3

where ``S2`` is the final top-(k-1) answer set, and ``S3`` is the skyline
of the complement of ``S2``.  Theorem 3.2 turns that into the estimate
``cost = k - 1 + |skyline(D - S2)| ≈ k + |skyline(D)|``, because removing
k-1 records barely changes the skyline cardinality of a large set.

This module computes the exact sets (for validating the theorem against a
live Traveler run) and the closed-form estimate (via the skyline
cardinality estimators in :mod:`repro.skyline.cardinality`).

Erratum (reproduced empirically; see tests/test_cost.py): Theorem 3.1 as
stated is exact in one direction only.  ``S2 ∪ S3 ⊆ S1`` always holds —
every record of the predicted set really is scored.  The converse
direction in the paper's proof silently equates "a record in S2-bar
dominating R" with "a parent of R", but a dominator from a non-adjacent
layer is *not* a DG parent: a record whose parents are all in the final
top-(k-1) can still be dominated by such a non-parent ancestor outside it,
making it computed yet absent from S2 ∪ S3.  Empirically the surplus is a
handful of records (a few percent), so Theorem 3.2's cost *estimate* is
unaffected in practice; ``search_space`` returns the exact predicted set
and callers should treat it as a tight lower bound on the measured cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dataset import Dataset
from repro.core.dominance import maximal_mask
from repro.core.functions import ScoringFunction
from repro.core.result import exact_top_k
from repro.skyline.cardinality import expected_skyline_uniform


@dataclass(frozen=True)
class SearchSpace:
    """The exact Theorem 3.1 decomposition for one query.

    Attributes
    ----------
    s2:
        Final top-(k-1) record ids (the paper's ``S2``).
    s3:
        Skyline of ``D - S2`` (the paper's ``S3``).
    predicted:
        ``S2 ∪ S3`` — the records Theorem 3.1 says Basic Traveler scores.
    """

    s2: frozenset
    s3: frozenset
    predicted: frozenset

    @property
    def cost(self) -> int:
        """Predicted number of scored records: |S2 ∪ S3|."""
        return len(self.predicted)


def top_k_bruteforce(dataset: Dataset, function: ScoringFunction, k: int) -> list:
    """Exact top-k ids by full scan, ties broken by smaller id.

    The ground truth every algorithm's tests compare against (and the
    ``S2`` ingredient of the cost model).
    """
    if k <= 0:
        return []
    return list(exact_top_k(dataset.values, np.arange(len(dataset)), function, k).ids)


def search_space(dataset: Dataset, function: ScoringFunction, k: int) -> SearchSpace:
    """Compute the exact S2 / S3 / S1 sets of Theorem 3.1.

    Ties caveat: Theorem 3.1 assumes the top-(k-1) set is unambiguous.
    With tied scores several answer sets are valid and the Traveler's
    choice may differ from the brute-force tie-break here; tests therefore
    use generic-position (distinct-score) inputs for exact-equality checks.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    s2_ids = frozenset(top_k_bruteforce(dataset, function, k - 1))
    complement = np.asarray(
        [i for i in range(len(dataset)) if i not in s2_ids], dtype=np.intp
    )
    if complement.size:
        mask = maximal_mask(dataset.values[complement])
        s3_ids = frozenset(int(i) for i in complement[mask])
    else:
        s3_ids = frozenset()
    return SearchSpace(s2=s2_ids, s3=s3_ids, predicted=s2_ids | s3_ids)


def predicted_cost(dataset: Dataset, function: ScoringFunction, k: int) -> int:
    """Exact Theorem 3.1 cost prediction: |S2 ∪ S3| = k-1 + |skyline(D-S2)|."""
    return search_space(dataset, function, k).cost


def estimated_cost(n: int, dims: int, k: int) -> float:
    """Theorem 3.2 closed-form estimate for independent uniform data.

    ``cost ≈ k - 1 + E[|skyline|]`` where the expected skyline cardinality
    of ``n`` i.i.d. uniform records in ``dims`` dimensions comes from the
    Godfrey/Bentley harmonic formula (see
    :func:`repro.skyline.cardinality.expected_skyline_uniform`).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    return (k - 1) + expected_skyline_uniform(n, dims)
