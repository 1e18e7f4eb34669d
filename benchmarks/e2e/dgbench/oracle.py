"""The harness's own model of the index and its naive-scan oracle.

The model is a plain Python set of alive record ids plus the log of
writes applied since the index was created.  A serving index bumps its
epoch once per write, so the set an answer must agree with is the model
after the first ``result.epoch`` writes; that also makes answers taken
while a writer thread was running checkable afterwards.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import naive_top_k
from repro.core.dataset import Dataset


class Oracle:
    def __init__(self, dataset: Dataset, alive: "list[int]") -> None:
        self._values = dataset.values
        self._alive = set(alive)
        self._applied = 0
        self.log: "list[tuple[str, int]]" = []
        self._scan: "tuple[int, np.ndarray, Dataset] | None" = None

    def record(self, kind: str, rid: int) -> None:
        self.log.append((kind, rid))

    def alive_at(self, epoch: int) -> "set[int]":
        """The model after the first ``epoch`` logged writes."""
        if epoch < self._applied:
            for kind, rid in reversed(self.log[epoch : self._applied]):
                (self._alive.discard if kind == "insert" else self._alive.add)(rid)
        else:
            for kind, rid in self.log[self._applied : epoch]:
                (self._alive.add if kind == "insert" else self._alive.discard)(rid)
        self._applied = epoch
        return self._alive

    def expected(self, function, k: int, epoch: int) -> "tuple[tuple, tuple]":
        """``(ids, scores)`` of a naive scan over the model at ``epoch``."""
        if self._scan is None or self._scan[0] != epoch:
            ids = np.fromiter(sorted(self.alive_at(epoch)), dtype=np.intp)
            self._scan = (epoch, ids, Dataset(self._values[ids]))
        _, ids, subset = self._scan
        # Rows are in ascending id order, so the scan's row-index
        # tie-break is the canonical (-score, id) order.
        scan = naive_top_k(subset, function, k)
        return tuple(int(ids[row]) for row in scan.ids), scan.scores

    def agrees(self, result, function, k: int, epoch: "int | None" = None) -> bool:
        """Ids equal, scores bit-equal, answered by the compiled tier."""
        epoch = result.epoch if epoch is None else epoch
        ids, scores = self.expected(function, k, epoch)
        return (
            result.tier == "compiled"
            and tuple(result.ids) == ids
            and tuple(result.scores) == scores
        )
