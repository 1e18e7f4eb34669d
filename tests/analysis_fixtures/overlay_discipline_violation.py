"""Fixture: mutated published overlay, unclamped fold (overlay-discipline)."""

import numpy as np

from repro.core.overlay import DeltaOverlay


def tamper_with_published(builder, base):
    overlay = builder.freeze()
    overlay.delta_ids[0] = -1  # VIOLATION
    overlay.deleted_ids = np.empty(0, dtype=np.intp)  # VIOLATION
    overlay.delta_values.setflags(write=True)  # VIOLATION
    return overlay


def tamper_with_constructed(ids, values):
    fresh = DeltaOverlay(
        delta_ids=ids,
        delta_values=values,
        deleted_ids=np.empty(0, dtype=np.intp),
    )
    fresh.delta_ids += 1  # VIOLATION
    return fresh


class SloppyCompactor:
    def __init__(self, owner):
        self._owner = owner
        self.lock_timeout = 1.0

    def _run(self):
        while True:
            self._owner.compact()  # VIOLATION

    def compact_once(self):
        return self._owner._timed_compact()  # VIOLATION
