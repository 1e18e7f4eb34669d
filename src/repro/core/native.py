"""Optional native (numba) build of the fast lane's fused chunk kernel.

The float32 fast lane in :mod:`repro.core.compiled` spends its scan time
in one operation: score a chunk of the value matrix against the active
queries' weight rows and take per-query maxima over the chunk's last
layer in the same pass.  The
pure-numpy version (one ``sgemm`` plus a row-max reduction) is the
always-on parity oracle; this module provides a drop-in native build of
that fused loop for deployments that install the ``[native]`` extra
(``pip install repro[native]``).

Activation is explicit and safe by default:

- ``REPRO_NATIVE=1`` requests the native kernel.  Without the flag the
  numpy oracle runs even when numba is installed.
- When the flag is set but numba is unavailable (or fails to compile),
  the engine emits a single :class:`RuntimeWarning` and falls back to
  the numpy oracle — same answers, no native speed.

Exactness is unaffected by construction: the native loop only produces
the *provisional* float32 scores, whose every use is covered by the
error margin and exact float64 boundary re-check documented in
:mod:`repro.core.compiled`.  The margin bound holds for any summation
order, so ``fastmath`` reassociation and FMA contraction are admissible
here.  The parity sweep in CI runs the full test suite under
``REPRO_NATIVE=1`` to hold the native lane to the bit-identical answer
contract.
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Callable, Optional, Tuple

import numpy as np

#: Environment variable: set to ``"1"`` to request the native kernel.
NATIVE_ENV = "REPRO_NATIVE"

_KERNEL: "Optional[NativeChunkKernel]" = None
_UNAVAILABLE = False
_WARNED = False


def requested() -> bool:
    """Whether the current environment asks for the native kernel."""
    return os.environ.get(NATIVE_ENV, "") == "1"


def available() -> bool:
    """Whether numba can be imported (without compiling anything)."""
    try:
        import numba  # noqa: F401
    except Exception:  # repro: noqa[typed-errors] -- a probe of an optional dependency must absorb whatever a broken install raises
        return False
    return True


class NativeChunkKernel:
    """Fused float32 score+max over one chunk, compiled with numba."""

    name = "numba"

    def __init__(self, compiled_loop: "Callable[..., Any]") -> None:
        self._loop = compiled_loop

    def score_chunk(
        self,
        values_f32: np.ndarray,
        weights_f32: np.ndarray,
        lo: int,
        hi: int,
        tail: int,
    ) -> "Tuple[np.ndarray, np.ndarray]":
        """Score rows ``[lo, hi)``; bound them by their last layer.

        Returns the chunk's ``(queries, rows)`` scores and, per query,
        the maximum over rows ``[tail, hi)`` — the chunk's last layer,
        which is what the retirement test compares against.
        """
        return self._loop(values_f32, weights_f32, lo, hi, tail)  # type: ignore[no-any-return]


def _build() -> "Optional[NativeChunkKernel]":
    """Compile the fused loop; ``None`` (plus one warning) on any failure."""
    global _UNAVAILABLE, _WARNED
    try:
        import numba

        @numba.njit(cache=False, fastmath=True)  # type: ignore[misc]
        def fused_chunk(values, weights, lo, hi, tail):  # type: ignore[no-untyped-def]
            rows = hi - lo
            queries = weights.shape[0]
            dims = weights.shape[1]
            scores = np.empty((queries, rows), dtype=np.float32)
            maxima = np.full(queries, -np.inf, dtype=np.float32)
            for r in range(rows):
                base = lo + r
                for q in range(queries):
                    acc = np.float32(0.0)
                    for t in range(dims):
                        acc += values[base, t] * weights[q, t]
                    scores[q, r] = acc
                    if base >= tail and acc > maxima[q]:
                        maxima[q] = acc
            return scores, maxima

        # Force compilation now so a broken toolchain degrades here, once,
        # instead of inside the first query.
        probe_values = np.zeros((1, 1), dtype=np.float32)
        probe_weights = np.zeros((1, 1), dtype=np.float32)
        fused_chunk(probe_values, probe_weights, 0, 1, 0)
        return NativeChunkKernel(fused_chunk)
    except Exception as exc:  # repro: noqa[typed-errors] -- any import/compile failure of the optional kernel must degrade to the numpy oracle, not crash queries
        _UNAVAILABLE = True
        if not _WARNED:
            _WARNED = True
            warnings.warn(
                f"{NATIVE_ENV}=1 requested the native kernel but it is "
                f"unavailable ({type(exc).__name__}: {exc}); falling back "
                f"to the pure-numpy fast lane. Install the [native] extra "
                f"(pip install repro[native]) to enable it.",
                RuntimeWarning,
                stacklevel=3,
            )
        return None


def kernel() -> "Optional[NativeChunkKernel]":
    """The active native kernel, or ``None`` for the numpy oracle.

    Reads ``REPRO_NATIVE`` on every call (cheap: one dict lookup) so
    tests and operators can toggle the flag without re-importing; the
    compiled loop itself is built once per process.
    """
    global _KERNEL
    if not requested() or _UNAVAILABLE:
        return None
    if _KERNEL is None:
        _KERNEL = _build()
    return _KERNEL


def reset() -> None:
    """Forget the built kernel and the unavailability latch (test hook)."""
    global _KERNEL, _UNAVAILABLE, _WARNED
    _KERNEL = None
    _UNAVAILABLE = False
    _WARNED = False


def status() -> "dict[str, bool]":
    """Introspection for the CLI / benchmarks: flag, import, active."""
    return {
        "requested": requested(),
        "importable": available(),
        "active": kernel() is not None,
    }
