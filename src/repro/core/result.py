"""Result object returned by every top-k algorithm in the repository.

Bundles the answer (record ids in rank order, with scores) together with
the :class:`~repro.metrics.counters.AccessCounter` that measured the work,
so the benchmark harness can read the paper's metrics off any algorithm
uniformly.  :func:`exact_top_k` is the one full scan behind every scan
tier; it lives beside the ``(-score, id)`` contract it implements and,
deliberately, apart from the compiled kernel it backs up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.functions import ScoringFunction, WherePredicate
from repro.metrics.counters import AccessCounter


@dataclass(frozen=True)
class TopKResult:
    """Top-k answer plus the access statistics of the run.

    Attributes
    ----------
    ids:
        Record ids in non-increasing score order (ties broken by id).
    scores:
        Matching query-function scores.
    stats:
        Access counter populated by the algorithm.
    algorithm:
        Human-readable name of the producing algorithm.
    tier:
        Which rung of the degradation ladder
        (:func:`repro.core.guard.ladder_top_k`) answered: ``"compiled"``
        or ``"naive"`` (the snapshot scan); empty for direct engine
        calls.
    epoch:
        Which published snapshot answered, when the query ran against a
        :class:`~repro.serve.index.ServingIndex` (monotone per publish;
        ``-1`` for direct engine calls).  Concurrency tests assert a
        reader's epoch matches exactly one published snapshot — the
        snapshot-isolation contract.
    """

    ids: tuple
    scores: tuple
    stats: AccessCounter = field(compare=False)
    algorithm: str = field(default="", compare=False)
    tier: str = field(default="", compare=False)
    epoch: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if len(self.ids) != len(self.scores):
            raise ValueError("ids and scores must have equal length")
        for earlier, later in zip(self.scores, self.scores[1:]):
            if later > earlier + 1e-12:
                raise ValueError("scores must be non-increasing")

    @classmethod
    def from_pairs(
        cls,
        pairs: Sequence,
        stats: AccessCounter,
        algorithm: str = "",
    ) -> "TopKResult":
        """Build from an iterable of ``(score, record_id)`` pairs."""
        ids = tuple(int(rid) for _, rid in pairs)
        scores = tuple(float(score) for score, _ in pairs)
        return cls(ids=ids, scores=scores, stats=stats, algorithm=algorithm)

    def served_by(self, tier: str, epoch: int | None = None) -> "TopKResult":
        """A copy stamped with the serving ``tier`` (and ``epoch``, if given).

        The answer tuples are shared with ``self``, which validated them
        at construction, so unlike :func:`dataclasses.replace` this does
        not pay the O(k) ordering check again on every served read.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__, tier=tier)
        if epoch is not None:
            clone.__dict__["epoch"] = epoch
        return clone

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator:
        return iter(zip(self.ids, self.scores))

    @property
    def id_set(self) -> frozenset:
        """The answer as an unordered set of record ids."""
        return frozenset(self.ids)

    def score_multiset(self) -> tuple:
        """Sorted scores — the canonical, tie-insensitive answer signature.

        Two correct top-k algorithms may return different id sets when
        scores tie; their score multisets always agree, so tests compare
        this.
        """
        return tuple(sorted(self.scores, reverse=True))

    def __repr__(self) -> str:
        name = self.algorithm or "TopKResult"
        preview = ", ".join(
            f"{rid}:{score:.4g}" for rid, score in list(self)[:5]
        )
        suffix = ", ..." if len(self) > 5 else ""
        return f"{name}(k={len(self)}, [{preview}{suffix}], computed={self.stats.computed})"


def exact_top_k(
    values: np.ndarray,
    ids: np.ndarray,
    function: ScoringFunction,
    k: int,
    where: WherePredicate | None = None,
    stats: AccessCounter | None = None,
    *,
    algorithm: str = "naive-scan",
) -> TopKResult:
    """Exact top-k of the rows ``values`` named by ``ids``, by full scan.

    Every id is charged to ``stats`` before anything is scored, so a
    budget-enforcing counter refuses an over-budget scan up front.  Rows
    failing ``where`` are then dropped, the rest scored in one
    ``score_many`` call, cut to the k-th score with every tie on it kept,
    and only those rows ranked by ``(-score, id)``.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    stats = stats if stats is not None else AccessCounter()
    stats.count_computed_batch(ids)
    if where is not None:
        keep = np.fromiter(
            (bool(where(row)) for row in values), dtype=bool, count=len(ids)
        )
        values, ids = values.compress(keep, axis=0), ids.compress(keep)
    scores = function.score_many(values)
    available = int(scores.shape[0])
    take = min(k, available)
    if available > take:
        kth_value = np.partition(scores, available - take)[available - take]
        keep = scores >= kth_value
        ids, scores = ids[keep], scores[keep]
    order = np.lexsort((ids, -scores))[:take]
    return TopKResult(
        ids=tuple(ids[order].tolist()),
        scores=tuple(scores[order].tolist()),
        stats=stats,
        algorithm=algorithm,
    )
