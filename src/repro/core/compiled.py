"""Compiled flat-array Dominant Graph engine: one batch kernel, two lanes.

The reference Travelers (:mod:`repro.core.traveler`,
:mod:`repro.core.advanced`) follow the paper line by line over the mutable
:class:`~repro.core.graph.DominantGraph` — sets-of-ints adjacency, one
Python ``function(vector)`` call per scored record, a sorted candidate
list.  Their cost is dominated by Python dispatch, not by record access.
This module trades mutability for speed: :meth:`DominantGraph.compile`
freezes the graph into a :class:`CompiledDG` — a handful of contiguous
numpy arrays — and **every** compiled query, single or batched, runs
through one layer-progressive kernel, :func:`batch_top_k`.  A single
query is simply a batch of one; there is no separate traversal code path
left to diverge from the batch kernel (the old best-first heap traversal
was deleted when the batch kernel became strictly faster even at batch
size one).

The kernel walks the snapshot's layer blocks front to back, grouped into
geometrically growing *chunks*, and for each chunk computes every active
query's scores plus the per-query maximum of the chunk's **last layer**
in the same pass (the fused score+bound sweep).  A query retires as soon
as it provably cannot improve: by the DG layer invariant every
layer-``l + 1`` record is dominated by some layer-``l`` record
(``verify_graph`` reports a violation as ``orphan``), so for any
monotone function no unseen record can beat the maximum score of the
last processed layer.  The bound is that layer's maximum, not the
chunk's: the first chunk contains layer 1 and with it the top-1 answer,
so a whole-chunk maximum could never retire a query there.

Most reads retire in that first chunk, on a snapshot with nothing to
mask, so the sweep (:func:`_sweep`) does nothing such a read does not
need: the chunk schedule is walked once per snapshot and cached on it
(:meth:`CompiledDG._chunk_schedule`), the active-query index and the
answerable mask stay ``None`` until a query retires early or a row is
masked, and the running top-k is allocated only if a second chunk has to
be merged into it.  Such a read costs one score pass and one partition —
no gathers, no masks, no ``-inf`` fills — then one float64 re-check of
the few rows the float32 threshold lets through and one ``lexsort`` of
them (:func:`_select_exact` ranks a pool that small whole).  A live
overlay adds its delta rows to that same pool, so a base+delta read
still ranks once and builds one result (:func:`_batch_top_k`).

Two scoring lanes
-----------------
**float64 lane** (always available, any monotone function): scores each
chunk with ``ScoringFunction.score_many`` semantics in float64 and
selects answers directly from those exact scores.  This is the parity
oracle — bit-identical to the reference Travelers by the ``score_many``
determinism contract (:mod:`repro.core.functions`).

**float32 fast lane** (all-:class:`~repro.core.functions.LinearFunction`
batches): scores chunks in float32 — one BLAS ``sgemm`` per chunk over a
cached float32 copy of the value matrix — and *re-checks the boundary in
exact float64*.  Exactness argument:

1. Any-order float32 evaluation of ``s = sum_i w_i * x_i`` (including
   FMA contraction and blocked/reassociated BLAS or ``fastmath``
   summation) satisfies ``|s32 - s| <= margin`` with ``margin =
   (d + 4) * 2**-21 * sum_i|w_i| * max|values|`` — a >=4x inflation of
   the standard ``gamma_{d+2}``-style bound on float32 dot products with
   float32-rounded inputs, valid for every summation order, plus a tiny
   absolute term for subnormal rounding.
2. The exact k-th best score therefore sits within ``margin`` of the
   float32 k-th best, so every member of the exact top-k has a float32
   score ``>= kth32 - 2 * margin``.  The kernel re-scores exactly that
   candidate set in float64 (same elementwise-multiply + ``np.sum``
   reduction as ``LinearFunction.score_many``, hence bit-identical
   scores) and runs the ordinary exact selection on it.
3. Retirement is made conservative by the same margin on both sides —
   retire only when ``kth32 - margin > tail_max32 + margin``, with
   ``tail_max32`` the float32 maximum over the chunk's last layer — so
   the exact k-th best strictly exceeds every exact score in that layer
   and hence every unseen one.  The fast lane may scan *at most more*
   records than the float64 lane, never fewer, and extra records all
   score strictly below the k-th.

The result is bit-identical ``(-score, id)`` answer orderings **by
construction**, which ``tests/test_fast_lane.py`` stresses with
sub-float32-epsilon near-ties and a hypothesis sweep, and the parity
suites re-check against the reference Travelers.  Set
``REPRO_FAST_LANE=0`` to force the float64 lane.

An optional native build of the fused float32 score+max loop
(:mod:`repro.core.native`, numba, ``REPRO_NATIVE=1``, the ``[native]``
extra) slots in below the fast lane; the pure-numpy path remains the
always-on oracle.

Access accounting
-----------------
The kernel charges whole chunks of layers to each active query's
:class:`~repro.metrics.counters.AccessCounter` — it trades extra score
computations for vectorization — so compiled-engine tallies legitimately
exceed the reference Travelers' best-first frontier counts: a query
scores every layer up to the first chunk edge at which its k-th best
beats that chunk's last layer (layers 1-3, ~1.2k of 9k records, where
the Advanced Traveler accesses ~250 at d=4, k=10; see
``docs/performance.md``).  The Traveler's accessed set stays a checked
lower bound — ``tests/test_compiled_parity.py`` asserts the kernel's
scanned ids contain it.  Budgets
(:class:`~repro.core.guard.BudgetedAccessCounter`) ride those charges
and abort mid-kernel exactly as they aborted mid-traversal.  Use the
reference Travelers when reproducing the paper's accessed-records
figures.  The ids charged are one read-only copy per chunk, cached on
the snapshot (:meth:`CompiledDG._chunk_ids`): a retained result pins
that shared array, not a private copy of it.

Staleness
---------
A ``CompiledDG`` records the source graph's
:attr:`~repro.core.graph.DominantGraph.version`.  Mutating the graph
afterwards (maintenance inserts/deletes, edge edits) invalidates the
snapshot; its query kernels raise rather than serve answers from a
structure that no longer exists.  Recompile after maintenance batches.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Mapping, Sequence
from typing import Optional, Tuple

import numpy as np

from repro.core import native
from repro.core.functions import LinearFunction, ScoringFunction, WherePredicate
from repro.core.graph import DominantGraph
from repro.core.result import TopKResult
from repro.errors import StaleSnapshotError
from repro.metrics.counters import AccessCounter
from repro.resilience.deadline import Deadline

#: Algorithm label stamped on results produced by :func:`batch_top_k`
#: unless the caller passes its own.
BATCH_ALGORITHM = "compiled-batch"

#: Environment variable: set to ``"0"`` to disable the float32 fast lane
#: (every linear batch then runs the float64 oracle lane).
FAST_LANE_ENV = "REPRO_FAST_LANE"

#: Minimum rows per kernel chunk; consecutive layers are merged until a
#: chunk reaches ``max(k, _CHUNK_MIN_ROWS)``, and the target doubles per
#: chunk so deep scans pay O(log n) python iterations, not O(layers).
#: Swept over {256, 512, 1024, 2048} under the last-layer bound
#: (``docs/performance.md``): 1024 is fastest or tied at both benchmark
#: cells — smaller targets end the first chunk before retirement is
#: provable and pay a second one, larger ones score layers no query needs.
_CHUNK_MIN_ROWS = 1024


#: The arrays that make up a frozen snapshot, in layout order.  This is
#: the one declaration: the shared-memory segment layout
#: (:mod:`repro.parallel.shm`) and the section list of ``kind="compiled"``
#: store files (:mod:`repro.store`) are this tuple, not copies of it.
SNAPSHOT_FIELDS = ("values", "record_ids", "layer_index", "pseudo_mask")

#: One chunk of the sweep: dense rows ``[lo, hi)``, last layer ``[tail, hi)``.
_ChunkEdges = Tuple[int, int, int]


class CompiledDG:
    """Immutable flat-array snapshot of a :class:`DominantGraph`.

    Records are re-numbered into *dense* indices ``0..N-1`` sorted by
    ``(layer, record_id)``, so each layer is one contiguous block and the
    first layer occupies a prefix.  The snapshot is exactly the
    :data:`SNAPSHOT_FIELDS` arrays — what the layer-sweep kernel reads.
    The parent/child edges are *not* part of it: they stay in the mutable
    :class:`DominantGraph`, where maintenance, ``verify_graph`` and the
    reference Travelers use them (``docs/performance.md`` records the
    measurement behind that).  All query results are reported in original
    record ids.

    Build with :meth:`from_graph` (or ``graph.compile()``); query with
    :meth:`top_k` (single query) or :func:`batch_top_k` (many queries,
    one sweep).  :class:`CompiledBasicTraveler` /
    :class:`CompiledAdvancedTraveler` remain as thin batch-of-one
    wrappers over the same kernel.
    """

    def __init__(
        self,
        *,
        values: np.ndarray,
        record_ids: np.ndarray,
        layer_index: np.ndarray,
        pseudo_mask: np.ndarray,
        first_layer_size: int,
        source: DominantGraph | None = None,
        source_version: int = 0,
    ) -> None:
        self.values = values
        self.record_ids = record_ids
        self.layer_index = layer_index
        self.pseudo_mask = pseudo_mask
        self.first_layer_size = int(first_layer_size)
        self._source = source
        self._source_version = int(source_version)
        # Lazy per-process query-kernel caches; never pickled or shared.
        self._layer_bounds_cache: np.ndarray | None = None
        self._values_f32_cache: np.ndarray | None = None
        self._abs_max_cache: float | None = None
        self._pseudo_layout_cache: (
            "tuple[np.ndarray | None, np.ndarray | None] | None"
        ) = None
        self._chunk_ids_cache: "dict[tuple[int, int], np.ndarray]" = {}
        self._chunk_schedule_cache: "dict[int, tuple[_ChunkEdges, ...]]" = {}
        for name in SNAPSHOT_FIELDS:
            getattr(self, name).setflags(write=False)

    @classmethod
    def from_arrays(
        cls,
        arrays: Mapping[str, np.ndarray],
        *,
        first_layer_size: int,
        source: DominantGraph | None = None,
        source_version: int = 0,
    ) -> "CompiledDG":
        """Adopt already-laid-out :data:`SNAPSHOT_FIELDS` arrays, no copies.

        The one place a snapshot is constructed: :meth:`from_graph` and
        both transports (a mapped segment, a mapped store file) hand
        their arrays here.  Entries under other names are ignored, which
        is what lets store files written with extra sections still open.
        """
        return cls(
            **{name: arrays[name] for name in SNAPSHOT_FIELDS},
            first_layer_size=first_layer_size,
            source=source,
            source_version=source_version,
        )

    @classmethod
    def from_graph(cls, graph: DominantGraph) -> "CompiledDG":
        """Snapshot a (possibly Extended) Dominant Graph into flat arrays."""
        ids, layers = graph.indexed_arrays()
        order = np.lexsort((ids, layers))
        ids = ids[order]
        layers = layers[order]
        values, pseudo_mask = graph.rows_for(ids)
        return cls.from_arrays(
            {
                "values": values,
                "record_ids": ids.astype(np.int64, copy=False),
                "layer_index": layers.astype(np.int32),
                "pseudo_mask": pseudo_mask,
            },
            first_layer_size=int(np.searchsorted(layers, 0, side="right")),
            source=graph,
            source_version=graph.version,
        )

    @property
    def num_records(self) -> int:
        """Indexed record count, pseudo included."""
        return int(self.record_ids.shape[0])

    @property
    def num_pseudo(self) -> int:
        """How many snapshot records are pseudo records."""
        prefix = self._pseudo_layout()[1]
        return 0 if prefix is None else int(prefix[-1])

    @property
    def source_version(self) -> int:
        """The source graph's ``version`` when this snapshot was compiled.

        Stamped into published store files so a reader can tell a
        stale-but-intact file from the current one.
        """
        return self._source_version

    @property
    def stale(self) -> bool:
        """True when the source graph has mutated since compilation."""
        return (
            self._source is not None
            and self._source.version != self._source_version
        )

    def detach(self) -> "CompiledDG":
        """Sever the staleness link to the source graph; returns ``self``.

        Staleness tracking exists to stop a *single-version* deployment
        from serving answers off a structure that no longer exists.  A
        multi-version deployment — the RCU snapshot rotation of
        :class:`~repro.serve.index.ServingIndex` — wants the opposite:
        in-flight readers must keep answering from the snapshot they
        pinned while the writer mutates the graph and publishes the next
        one.  Every array is already an immutable copy, so a detached
        snapshot is self-contained; it simply never reports stale.
        """
        self._source = None
        return self

    def layer_bounds(self) -> np.ndarray:
        """Dense-index boundaries of each layer block (cached).

        Dense order is sorted by ``(layer, record_id)``, so layer ``l``
        occupies ``bounds[l]:bounds[l + 1]``.  Returns an int64 array of
        length ``num_layers + 1``; computed once per snapshot because the
        kernel reads it on every query.
        """
        if self._layer_bounds_cache is None:
            layer_index = self.layer_index
            n = int(layer_index.shape[0])
            if n == 0:
                bounds = np.zeros(1, dtype=np.int64)
            else:
                num_layers = int(layer_index[-1]) + 1
                bounds = np.searchsorted(
                    layer_index,
                    np.arange(num_layers + 1, dtype=np.int64),
                    side="left",
                ).astype(np.int64)
                bounds[num_layers] = n
            bounds.setflags(write=False)
            self._layer_bounds_cache = bounds
        return self._layer_bounds_cache

    def _f32_values(self) -> np.ndarray:
        """Cached float32 copy of the value matrix for the fast lane.

        Built once per snapshot per process; the exact float64 matrix
        stays the source of truth (the fast lane only uses this copy for
        provisional scores it re-checks in float64).
        """
        if self._values_f32_cache is None:
            block = np.ascontiguousarray(self.values, dtype=np.float32)
            block.setflags(write=False)
            self._values_f32_cache = block
        return self._values_f32_cache

    def abs_max(self) -> float:
        """Largest absolute attribute value in the snapshot (cached).

        The fast lane's error margin scales with this bound; an empty
        snapshot reports ``0.0``.
        """
        if self._abs_max_cache is None:
            self._abs_max_cache = (
                float(np.abs(self.values).max()) if self.values.size else 0.0
            )
        return self._abs_max_cache

    def _pseudo_layout(self) -> "tuple[np.ndarray | None, np.ndarray | None]":
        """``(real-row mask, pseudo prefix counts)`` for the kernel (cached).

        Everything a query needs to know about pseudo rows that does not
        depend on the query: ``~pseudo_mask`` and the running pseudo
        count (length ``num_records + 1``, so a chunk's pseudo tally is
        one subtraction).  ``(None, None)`` when no row is pseudo — the
        kernel then skips masking altogether.
        """
        if self._pseudo_layout_cache is None:
            if self.pseudo_mask.any():
                real = ~self.pseudo_mask
                prefix = np.zeros(self.num_records + 1, dtype=np.int64)
                np.cumsum(self.pseudo_mask, dtype=np.int64, out=prefix[1:])
                real.setflags(write=False)
                prefix.setflags(write=False)
                self._pseudo_layout_cache = (real, prefix)
            else:
                self._pseudo_layout_cache = (None, None)
        return self._pseudo_layout_cache

    def _chunk_ids(self, lo: int, hi: int, shared: bool) -> np.ndarray:
        """An owning copy of ``record_ids[lo:hi]`` for counters to keep.

        A retained result pins the ids its counter was charged; a slice
        view would pin the snapshot buffer (fatal for shared-memory
        workers).  With ``shared`` every query gets the same read-only
        copy, cached per chunk — callers pass it only for the default
        schedule, whose edges do not depend on ``k`` and whose chunks
        tile the snapshot, so the cache never outgrows one id array.
        """
        if not shared:
            return self.record_ids[lo:hi].copy()
        ids = self._chunk_ids_cache.get((lo, hi))
        if ids is None:
            ids = self.record_ids[lo:hi].copy()
            ids.setflags(write=False)
            self._chunk_ids_cache[lo, hi] = ids
        return ids

    def _chunk_schedule(self, k: int) -> "tuple[_ChunkEdges, ...]":
        """The sweep's ``(lo, hi, tail)`` chunks for ``k`` (cached).

        :func:`_iter_chunks` over :meth:`layer_bounds`, walked once per
        first-chunk target instead of once per read: every
        ``k <= _CHUNK_MIN_ROWS`` shares one entry, a deeper ``k`` adds a
        handful of tuples of its own.
        """
        target = max(int(k), _CHUNK_MIN_ROWS)
        schedule = self._chunk_schedule_cache.get(target)
        if schedule is None:
            schedule = tuple(_iter_chunks(self.layer_bounds(), k))
            self._chunk_schedule_cache[target] = schedule
        return schedule

    def top_k(
        self,
        function: ScoringFunction,
        k: int,
        *,
        where: WherePredicate | None = None,
        stats: AccessCounter | None = None,
        algorithm: str = BATCH_ALGORITHM,
        deadline: Deadline | None = None,
        exclude: np.ndarray | None = None,
    ) -> TopKResult:
        """Answer one top-k query: a batch of one through the kernel.

        This is the single internal execution path — the guard's
        compiled tier, :class:`~repro.serve.index.ServingIndex` reads,
        and the parallel fabric's ``full`` worker mode all land here.
        Parameters mirror
        :meth:`repro.core.advanced.AdvancedTraveler.top_k`; ``deadline``
        is checked between layer chunks and ``exclude`` masks dense rows
        out of the answer set (see :func:`batch_top_k`).
        """
        (result,) = _batch_top_k(
            self,
            [function],
            k,
            where,
            None if stats is None else [stats],
            algorithm,
            deadline,
            exclude,
            None,
        )
        return result

    def __repr__(self) -> str:
        return (
            f"CompiledDG(records={self.num_records}, "
            f"pseudo={self.num_pseudo}, "
            f"layers={len(self.layer_bounds()) - 1}, stale={self.stale})"
        )


class CompiledBasicTraveler:
    """Basic Traveler interface (Algorithm 1) over a :class:`CompiledDG`.

    Same contract as :class:`~repro.core.traveler.BasicTraveler` — plain
    DGs only — with identical ``(-score, id)`` answer orderings.  A thin
    batch-of-one wrapper over :func:`batch_top_k`.

    Examples
    --------
    >>> from repro.core.dataset import Dataset
    >>> from repro.core.builder import build_dominant_graph
    >>> from repro.core.functions import LinearFunction
    >>> ds = Dataset([[4.0, 1.0], [1.0, 4.0], [0.5, 0.5]])
    >>> compiled = build_dominant_graph(ds).compile()
    >>> result = CompiledBasicTraveler(compiled).top_k(
    ...     LinearFunction([0.5, 0.5]), k=2)
    >>> sorted(result.ids)
    [0, 1]
    """

    name = "compiled-basic-traveler"

    def __init__(self, compiled: CompiledDG) -> None:
        if compiled.num_pseudo:
            raise ValueError(
                "CompiledBasicTraveler requires a plain DG; use "
                "CompiledAdvancedTraveler for graphs with pseudo records"
            )
        self._compiled = compiled

    @property
    def compiled(self) -> CompiledDG:
        """The underlying snapshot."""
        return self._compiled

    def top_k(
        self,
        function: ScoringFunction,
        k: int,
        *,
        stats: AccessCounter | None = None,
    ) -> TopKResult:
        """Answer a top-k query for any aggregate monotone ``function``."""
        return self._compiled.top_k(
            function, k, stats=stats, algorithm=self.name
        )


class CompiledAdvancedTraveler:
    """Advanced Traveler interface (Algorithm 2) over a :class:`CompiledDG`.

    Handles Extended DGs (pseudo records never count toward ``k``) and the
    ``where=`` filtered path, with answers identical to
    :class:`~repro.core.advanced.AdvancedTraveler`.  A thin batch-of-one
    wrapper over :func:`batch_top_k`.

    Examples
    --------
    >>> from repro.core.dataset import Dataset
    >>> from repro.core.builder import build_extended_graph
    >>> from repro.core.functions import LinearFunction
    >>> ds = Dataset([[4.0, 1.0], [1.0, 4.0], [0.5, 0.5]])
    >>> compiled = build_extended_graph(ds, theta=2).compile()
    >>> result = CompiledAdvancedTraveler(compiled).top_k(
    ...     LinearFunction([0.5, 0.5]), k=2)
    >>> sorted(result.ids)
    [0, 1]
    """

    name = "compiled-advanced-traveler"

    def __init__(self, compiled: CompiledDG) -> None:
        self._compiled = compiled

    @property
    def compiled(self) -> CompiledDG:
        """The underlying snapshot."""
        return self._compiled

    def top_k(
        self,
        function: ScoringFunction,
        k: int,
        where: WherePredicate | None = None,
        *,
        stats: AccessCounter | None = None,
        deadline: Deadline | None = None,
    ) -> TopKResult:
        """Answer a top-k query; only real, ``where``-matching records count.

        Parameters mirror
        :meth:`repro.core.advanced.AdvancedTraveler.top_k`: ``where`` is an
        optional ``vector -> bool`` predicate; non-matching records are
        scanned (they still bound the search) but never reported.
        ``deadline`` is checked at kernel chunk boundaries.
        """
        return self._compiled.top_k(
            function,
            k,
            where=where,
            stats=stats,
            algorithm=self.name,
            deadline=deadline,
        )


def fast_lane_enabled() -> bool:
    """Whether the float32 fast lane may run (``REPRO_FAST_LANE`` != 0)."""
    return os.environ.get(FAST_LANE_ENV, "") != "0"


def _f32_margin(dims: int, weight_abs_sums: np.ndarray, abs_max: float) -> np.ndarray:
    """Per-query error bound of the float32 lane, in float64.

    Any-order float32 evaluation of ``sum_i w_i * x_i`` from
    float32-rounded inputs — sequential, blocked, reassociated, or
    FMA-contracted — deviates from the exact float64 value by at most
    ``gamma_{d+2} * sum_i |w_i| |x_i|`` with
    ``gamma_m = m * u / (1 - m * u)`` and ``u = 2**-24``.  Bounding
    ``|x_i|`` by the snapshot's ``abs_max`` and inflating the constant
    >=4x gives the margin used here, ``(d + 4) * 2**-21 * sum|w| *
    abs_max``, plus ``2**-100`` to absorb subnormal rounding, where the
    relative model breaks down.  The bound only needs to be *valid*, not
    tight: it sizes the exact-re-check candidate set and pads the
    retirement test, so looseness costs a few extra float64 re-scores,
    never correctness.
    """
    unit = float(dims + 4) * 2.0 ** -21
    return unit * weight_abs_sums * abs_max + 2.0 ** -100


def _f32_round_down(value: float) -> np.float32:
    """The largest float32 that is ``<= value``.

    The candidate threshold is computed in float64; comparing it against
    float32 scores must not round it *up* (that could drop a provable
    candidate), so nearest-rounding is corrected downward when needed.
    """
    rounded = np.float32(value)
    if float(rounded) > value:
        rounded = np.nextafter(rounded, np.float32(-np.inf))
    return rounded


def _iter_chunks(bounds: np.ndarray, k: int) -> Iterator[_ChunkEdges]:
    """Yield ``(lo, hi, tail)`` dense-row chunks aligned to layer boundaries.

    Consecutive layers are merged until a chunk holds at least
    ``max(k, _CHUNK_MIN_ROWS)`` rows, and the target doubles per chunk,
    so a scan touching ``m`` rows costs ``O(log m)`` python iterations.
    ``[tail, hi)`` is the chunk's *last layer*, the rows the retirement
    bound is taken over: chunk edges stay on layer edges, and every
    record beyond ``hi`` has an ancestor in that layer.
    """
    num_layers = int(bounds.shape[0]) - 1
    n = int(bounds[num_layers])
    target = max(int(k), _CHUNK_MIN_ROWS)
    layer = 0
    lo = 0
    while lo < n:
        hi = lo
        while layer < num_layers and hi - lo < target:
            layer += 1
            hi = int(bounds[layer])
        yield lo, hi, int(bounds[layer - 1])
        lo = hi
        target *= 2


def _chunk_answerable(
    compiled: CompiledDG,
    where: WherePredicate | None,
    exclude: np.ndarray | None,
    lo: int,
    hi: int,
) -> np.ndarray | None:
    """The chunk's answerable mask, or ``None`` when every row answers.

    Real rows not masked by ``exclude`` are eligible; ``where`` is then
    evaluated once per eligible record, always on the exact float64
    vector.  Pseudo and excluded rows never reach the predicate: an
    overlay-deleted record must not leak to user code.
    """
    eligible = compiled._pseudo_layout()[0]
    if eligible is not None:
        eligible = eligible[lo:hi]
    if exclude is not None:
        kept = ~exclude[lo:hi]
        eligible = kept if eligible is None else eligible & kept
    if where is None:
        return eligible
    values = compiled.values
    block = np.zeros(hi - lo, dtype=bool)
    offsets = (
        range(hi - lo) if eligible is None
        else np.flatnonzero(eligible).tolist()
    )
    for offset in offsets:
        block[offset] = bool(where(values[lo + offset]))
    return block


#: A pool at most this much larger than ``k`` is ranked whole: after the
#: fast lane's float32 threshold that is the normal case, and one
#: ``lexsort`` of k + 64 rows is cheaper than partitioning them first.
_RANK_WHOLE_SLACK = 64


def _select_exact(
    ids: np.ndarray, scores: np.ndarray, k: int
) -> "tuple[tuple[int, ...], tuple[float, ...]]":
    """Exact top-k over float64 ``scores``, as ``(ids, scores)`` tuples.

    Everything is ranked by the engine's ``(-score, id)`` rule and cut
    to ``k``; a pool much larger than ``k`` is first cut to the k-th
    score, ties on it all kept.
    """
    available = int(scores.shape[0])
    take = min(k, available)
    if available > take + _RANK_WHOLE_SLACK:
        kth_value = np.partition(scores, available - take)[available - take]
        keep = scores >= kth_value
        ids, scores = ids[keep], scores[keep]
    order = np.lexsort((ids, -scores))[:take]
    return tuple(ids[order].tolist()), tuple(scores[order].tolist())


def batch_top_k(
    compiled: CompiledDG,
    functions: Sequence[ScoringFunction],
    k: int,
    *,
    where: WherePredicate | None = None,
    stats: Sequence[AccessCounter] | None = None,
    algorithm: str = BATCH_ALGORITHM,
    deadline: Deadline | None = None,
    exclude: np.ndarray | None = None,
) -> "list[TopKResult]":
    """Answer many top-k queries in one layer-progressive sweep.

    This is the *only* compiled execution path: every public entry point
    (:meth:`CompiledDG.top_k`, the compiled Travelers, the guard's
    compiled tier, serving reads, fabric workers) routes here, single
    queries as batches of one.  The kernel walks the snapshot's layer
    chunks in order; for each chunk it computes every still-active
    query's scores and the per-query maximum of the chunk's last layer
    in one fused pass (all-linear batches ride the float32 fast lane
    with an exact float64 boundary re-check — see the module docstring —
    other monotone functions take one float64 ``score_many`` call per
    active query per chunk).  A query retires as soon as it provably
    cannot improve: by the layer invariant no unseen record can beat the
    last processed layer's maximum, so once ``k`` answerable records are
    banked and the running ``k``-th best *provably* exceeds that bound
    the remaining layers cannot contribute.  Ties on the k-th score are
    resolved exactly (ascending id), in both lanes.

    Results carry identical ids, identical float scores, and identical
    ``(-score, id)`` orderings to the reference
    :class:`~repro.core.advanced.AdvancedTraveler` per query.  Access
    tallies charge whole chunks (see module docstring) and are recorded
    per query in ``stats``.

    Parameters
    ----------
    compiled:
        The snapshot to query (plain or Extended; pseudo records never
        count toward ``k``).
    functions:
        One aggregate monotone scoring function per query.
    k:
        Answers per query (positive).
    where:
        Optional ``vector -> bool`` filter shared by the whole batch;
        evaluated once per scored record, not once per query.
    stats:
        Optional per-query counters, one per function.  Fresh counters
        are created when omitted.
    algorithm:
        Label stamped on the returned
        :class:`~repro.core.result.TopKResult` objects (batch-of-one
        wrappers pass their public engine names).
    deadline:
        Optional end-to-end :class:`~repro.resilience.deadline.Deadline`
        checked at every layer-chunk boundary; expiry raises
        :class:`~repro.errors.DeadlineExceeded` mid-sweep.  Chunks are
        the kernel's natural preemption points: within a chunk the work
        is one fused matrix pass, so checkpointing between them bounds
        overrun by a single chunk's scoring time.
    exclude:
        Optional boolean mask over *dense* rows (length ``num_records``);
        ``True`` rows are scanned — they still bound retirement exactly
        like pseudo records — but never reported and never shown to
        ``where``.  The base+delta overlay passes its deleted-row mask
        here, which is what keeps a masked base sweep exact: excluded
        rows keep bounding their dominated descendants, so the layer
        invariant's retirement argument is untouched.

    Peak memory is ``len(functions) * rows_scanned * 4`` bytes of float32
    scores on the fast lane (``* 8`` float64 on the oracle lane) — the
    chunks actually swept, not the snapshot; cap the batch size
    accordingly (the parallel executor defaults to 64-query sub-batches).
    """
    return _batch_top_k(
        compiled, functions, k, where, stats, algorithm, deadline, exclude,
        None,
    )


def _batch_top_k(
    compiled: CompiledDG,
    functions: Sequence[ScoringFunction],
    k: int,
    where: WherePredicate | None,
    stats: Sequence[AccessCounter] | None,
    algorithm: str,
    deadline: Deadline | None,
    exclude: np.ndarray | None,
    delta: "tuple[np.ndarray, np.ndarray] | None",
) -> "list[TopKResult]":
    """:func:`batch_top_k`, plus the overlay's unindexed ``delta`` records.

    ``delta`` is ``(ids, float64 rows)`` of records that are in no layer
    (:func:`repro.core.overlay.overlay_batch_top_k` passes the overlay's
    inserts).  They are scored exhaustively with ``score_many`` and join
    each query's base candidates *before* the one exact selection, so a
    base+delta read ranks once and builds one result.  Each query is
    charged the base chunks it swept, then every delta id; ``where``
    filters delta rows like base rows; ``deadline`` is checked once more
    between the sweep and the delta scan (stage ``"overlay-merge"``).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if compiled.stale:
        raise StaleSnapshotError(
            "CompiledDG is stale: the source DominantGraph mutated after "
            "compile(); rebuild the snapshot with graph.compile()"
        )
    num_records = compiled.num_records
    if exclude is not None:
        if exclude.dtype != np.bool_ or exclude.shape != (num_records,):
            raise ValueError(
                "exclude must be a boolean mask over the snapshot's "
                f"{num_records} dense rows"
            )
    num_queries = len(functions)
    if stats is None:
        counters = [AccessCounter() for _ in range(num_queries)]
    else:
        counters = list(stats)
        if len(counters) != num_queries:
            raise ValueError(
                f"stats must have one counter per function: "
                f"{len(counters)} != {num_queries}"
            )
    if num_queries == 0:
        return []

    linear = [f.weights for f in functions if isinstance(f, LinearFunction)]
    if num_records == 0:
        pools = [
            (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        ] * num_queries
    elif len(linear) == num_queries:
        weights = np.array(linear, dtype=np.float64)
        if int(weights.shape[1]) != int(compiled.values.shape[1]):
            raise ValueError(
                f"function dims {int(weights.shape[1])} != "
                f"snapshot dims {int(compiled.values.shape[1])}"
            )
        abs_weights = np.abs(weights)
        if _f32_lane_applies(compiled, abs_weights):
            pools = _f32_lane(
                compiled, functions, weights, abs_weights, k, where,
                counters, deadline, exclude,
            )
        else:
            pools = _f64_lane(
                compiled, functions, weights, k, where, counters, deadline,
                exclude,
            )
    else:
        pools = _f64_lane(
            compiled, functions, None, k, where, counters, deadline, exclude
        )

    if delta is not None:
        if deadline is not None:
            deadline.check(stage="overlay-merge")
        answer_ids, answer_block = _delta_candidates(*delta, where)
    results: "list[TopKResult]" = []
    for q, (ids, scores) in enumerate(pools):
        if delta is not None:
            # Every delta row was a scored candidate, filtered or not.
            counters[q].count_computed_batch(delta[0], pseudo=0)
            if int(answer_ids.shape[0]):
                ids = np.concatenate([ids, answer_ids])
                scores = np.concatenate(
                    [scores, functions[q].score_many(answer_block)]
                )
        top_ids, top_scores = _select_exact(ids, scores, k)
        results.append(
            TopKResult(top_ids, top_scores, counters[q], algorithm=algorithm)
        )
    return results


def _delta_candidates(
    delta_ids: np.ndarray,
    delta_values: np.ndarray,
    where: WherePredicate | None,
) -> "tuple[np.ndarray, np.ndarray]":
    """The delta rows eligible to answer, as ``(ids, writable block)``.

    The block is a fresh writable copy: scoring functions are entitled
    to writable inputs (the scan tier makes the same guarantee), and a
    published overlay's arrays stay frozen.
    """
    block = np.array(delta_values, dtype=np.float64, copy=True)
    if where is None:
        return delta_ids, block
    keep = np.fromiter(
        (i for i in range(int(delta_ids.shape[0])) if bool(where(block[i]))),
        dtype=np.int64,
    )
    return delta_ids[keep], block[keep]


def _f32_lane_applies(
    compiled: CompiledDG,
    abs_weights: np.ndarray,
    headroom: float = float(np.finfo(np.float32).max) / 8.0,
) -> bool:
    """Fast-lane guard: enabled, and float32 cannot overflow.

    The margin model assumes finite float32 arithmetic; data or weights
    large enough to push ``dims * max|w| * max|x|`` near ``float32 max``
    (``headroom``, taken once at import) or already non-finite in
    float32 fall back to the float64 lane.
    """
    if not fast_lane_enabled():
        return False
    dims = int(abs_weights.shape[1])
    scale = float(abs_weights.max(initial=0.0)) * compiled.abs_max()
    return dims * scale < headroom


#: One swept chunk, kept for the final selection: ``(lo, hi, act_idx,
#: scores, answerable)`` — the ``(active queries, rows)`` score block, the
#: queries its rows belong to (ascending; ``None``: all, in order) and
#: the mask over its columns (``None``: every row answers).
_Chunk = Tuple[
    int, int, Optional[np.ndarray], np.ndarray, Optional[np.ndarray]
]


def _sweep(
    compiled: CompiledDG,
    functions: Sequence[ScoringFunction],
    weights: np.ndarray | None,
    margin: np.ndarray | None,
    k: int,
    where: WherePredicate | None,
    counters: "list[AccessCounter]",
    deadline: Deadline | None,
    exclude: np.ndarray | None,
) -> "tuple[np.ndarray, list[int], list[_Chunk]]":
    """The chunk loop both lanes share: score, charge, bank, retire.

    ``margin`` selects the lane.  With a margin (fast lane) ``weights``
    is the float32 weight matrix and chunks are scored by one ``sgemm``
    — or the native fused loop — over the snapshot's float32 copy;
    without one, scores are exact float64: the ``score_many``
    multiply-and-sum for a float64 ``weights`` matrix, else one
    ``score_many`` call per active query.

    Returns ``(topk, stops, scanned)``: each query's running top-k
    scores in the lane's dtype (column 0 is the k-th best, ``-inf`` until
    ``k`` answerable records were seen), the dense row its scan stopped
    at, and the swept chunks.  A query that was still active when the
    sweep ended reports ``num_records`` as its stop: it owns every swept
    chunk, wherever the last one ends.

    A query retires at a chunk edge once ``k`` answerable records are
    banked and its k-th best exceeds the maximum of the chunk's *last
    layer* — taken off the block just scored, before any filtering,
    because pseudo and excluded rows still bound their descendants.
    Every deeper record has an ancestor in that layer, so none can score
    higher.  The margin pads the test on both sides: the exact k-th is
    ``>= kth - margin`` and no unseen exact score exceeds ``tail_max +
    margin``.  The float64 lane retires on the strict comparison alone,
    so score ties — which tie-break on ascending id — are still resolved
    exactly.

    Bookkeeping waits for its cause.  ``act_idx`` is ``None`` — every
    query active, in order — until some query retires *before* the
    others; a chunk's answerable mask is not even asked for unless the
    snapshot has a pseudo row or the caller passed ``exclude`` or
    ``where``; the first ``k`` answerable rows are partitioned alone and
    *become* the running top-k, which is otherwise allocated only when a
    chunk has to be merged into it; and stop positions are written only
    for queries that retire early.  A read that retires in its first
    chunk thus costs one score pass and one partition.
    """
    num_queries = len(functions)
    values = compiled.values
    n = int(compiled.record_ids.shape[0])
    pseudo_prefix = compiled._pseudo_layout()[1]
    masked = (
        where is not None or exclude is not None or pseudo_prefix is not None
    )
    values_f32 = None if margin is None else compiled._f32_values()
    kernel = None if margin is None else native.kernel()
    shared_ids = k <= _CHUNK_MIN_ROWS  # the schedule every such k shares
    act_idx: np.ndarray | None = None
    topk: np.ndarray | None = None
    topk_dtype = np.float64 if weights is None else weights.dtype
    stops = [n] * num_queries
    scanned: "list[_Chunk]" = []
    ans_count = 0

    for lo, hi, tail in compiled._chunk_schedule(k):
        if deadline is not None:
            deadline.check(stage="kernel")
        queries = range(num_queries) if act_idx is None else act_idx.tolist()
        if weights is None:
            block = np.empty((len(queries), hi - lo), dtype=np.float64)
            for row, q in enumerate(queries):
                block[row] = functions[q].score_many(values[lo:hi])
        else:
            active = weights if act_idx is None else weights[act_idx]
            if values_f32 is None:
                block = np.sum(
                    values[None, lo:hi, :] * active[:, None, :], axis=2
                )
            elif kernel is None:
                block = active @ values_f32[lo:hi].T
            else:
                block, tail_max = kernel.score_chunk(
                    values_f32, active, lo, hi, tail
                )
        if kernel is None:
            tail_max = block[:, tail - lo:].max(axis=1)

        block_ids = compiled._chunk_ids(lo, hi, shared_ids)
        block_pseudo = (
            0 if pseudo_prefix is None
            else int(pseudo_prefix[hi] - pseudo_prefix[lo])
        )
        for q in queries:
            counters[q].count_computed_batch(block_ids, pseudo=block_pseudo)

        ans_block = (
            _chunk_answerable(compiled, where, exclude, lo, hi)
            if masked else None
        )
        scanned.append((lo, hi, act_idx, block, ans_block))
        cand = block if ans_block is None else block[:, ans_block]
        num_answerable = int(cand.shape[1])
        if num_answerable:
            if topk is None and num_answerable >= k:
                pool = cand  # nothing banked yet: these rows alone
            else:
                if topk is None:
                    topk = np.full((num_queries, k), -np.inf, dtype=topk_dtype)
                kept = topk if act_idx is None else topk[act_idx]
                pool = np.concatenate([kept, cand], axis=1)
            best = np.partition(pool, int(pool.shape[1]) - k, axis=1)[:, -k:]
            if topk is None or act_idx is None:
                topk = best
            else:
                topk[act_idx] = best
            ans_count += num_answerable
        if hi >= n or topk is None or ans_count < k:
            continue
        # Column 0 of the kept slice is the running k-th best (row
        # minimum).  float32 operands promote to float64 against margin.
        kth = topk[:, 0] if act_idx is None else topk[act_idx, 0]
        if margin is None:
            done = kth > tail_max
        else:
            marg = margin if act_idx is None else margin[act_idx]
            done = (kth - marg) > (tail_max + marg)
        retiring = int(np.count_nonzero(done))
        if retiring == int(done.shape[0]):
            break  # everyone left stops here, at the last swept chunk
        if retiring:
            if act_idx is None:
                act_idx = np.arange(num_queries, dtype=np.int64)
            for q in act_idx[done].tolist():
                stops[q] = hi
            act_idx = act_idx[~done]
    if topk is None:  # no answerable row anywhere
        topk = np.full((num_queries, k), -np.inf, dtype=topk_dtype)
    return topk, stops, scanned


def _f32_lane(
    compiled: CompiledDG,
    functions: Sequence[ScoringFunction],
    weights: np.ndarray,
    abs_weights: np.ndarray,
    k: int,
    where: WherePredicate | None,
    counters: "list[AccessCounter]",
    deadline: Deadline | None = None,
    exclude: np.ndarray | None = None,
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """The two-precision lane: float32 scan, exact float64 boundary re-check.

    Returns each query's candidate pool, ``(ids, exact float64 scores)``
    of every swept row whose float32 score could reach the exact top-k.
    """
    values = compiled.values
    ids_arr = compiled.record_ids
    margin = _f32_margin(
        int(weights.shape[1]), abs_weights.sum(axis=1), compiled.abs_max()
    )
    topk32, stops, scanned = _sweep(
        compiled, functions, weights.astype(np.float32), margin, k, where,
        counters, deadline, exclude,
    )

    pools: "list[tuple[np.ndarray, np.ndarray]]" = []
    for q, prefix in enumerate(stops):
        threshold32 = _f32_round_down(
            float(topk32[q, 0]) - 2.0 * float(margin[q])
        )
        cand: "list[np.ndarray]" = []
        for lo, _hi, act_idx, block32, ans_block in scanned:
            if lo >= prefix:
                break
            row = q if act_idx is None else int(np.searchsorted(act_idx, q))
            keep = block32[row] >= threshold32
            if ans_block is not None:
                keep &= ans_block
            cand.append(keep.nonzero()[0] + lo)
        rows = cand[0] if len(cand) == 1 else np.concatenate(cand)
        # Exact float64 boundary re-check: same elementwise-multiply +
        # sum reduction as LinearFunction.score_many, so the kept scores
        # are bit-identical to the reference engine's.
        pools.append((ids_arr[rows], (values[rows] * weights[q]).sum(axis=1)))
    return pools


def _f64_lane(
    compiled: CompiledDG,
    functions: Sequence[ScoringFunction],
    weights: np.ndarray | None,
    k: int,
    where: WherePredicate | None,
    counters: "list[AccessCounter]",
    deadline: Deadline | None = None,
    exclude: np.ndarray | None = None,
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """The exact float64 lane: the parity oracle for every function class.

    Linear batches score with the same broadcast elementwise-multiply +
    ``np.sum`` reduction as ``LinearFunction.score_many`` (bit-identical
    rows by the determinism contract); other monotone functions get one
    ``score_many`` call per active query per chunk.  Each query's
    candidate pool, ``(ids, scores)``, is every answerable row it swept,
    taken straight from the per-chunk score blocks, so memory and time
    are O(rows scanned).
    """
    ids_arr = compiled.record_ids
    _topk, stops, scanned = _sweep(
        compiled, functions, weights, None, k, where, counters, deadline,
        exclude,
    )

    pools: "list[tuple[np.ndarray, np.ndarray]]" = []
    for q, prefix in enumerate(stops):
        ids_parts: "list[np.ndarray]" = []
        score_parts: "list[np.ndarray]" = []
        for lo, hi, act_idx, block, ans_block in scanned:
            if lo >= prefix:
                break
            row = q if act_idx is None else int(np.searchsorted(act_idx, q))
            keep = slice(None) if ans_block is None else ans_block
            ids_parts.append(ids_arr[lo:hi][keep])
            score_parts.append(block[row, keep])
        pools.append((np.concatenate(ids_parts), np.concatenate(score_parts)))
    return pools
