"""In-memory spans recorded by the harness around its calls into each layer.

A span is ``(id, name, start, end, parent, request)``: ``parent`` is the
id of the span that was open on the same thread when this one started
(``None`` for a request's root) and every span of one request shares the
root's ``request`` identifier.  Spans live in a list until
:meth:`Tracer.dump` writes them out when the benchmark ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

FIELDS = ("id", "name", "start", "end", "parent", "request")


class Span:
    """One timed interval; use as a context manager."""

    __slots__ = FIELDS + ("_tracer",)

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self.name = name
        self.id = -1
        self.start = self.end = 0.0
        self.parent: Optional[int] = None
        self.request = -1

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack()
        with tracer._lock:
            self.id = len(tracer.spans)
            tracer.spans.append(self)
        if stack:
            self.parent = stack[-1].id
            self.request = stack[-1].request
        else:
            self.request = self.id
        stack.append(self)
        self.start = tracer._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = self._tracer._clock()
        self._tracer._stack().pop()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {field: getattr(self, field) for field in FIELDS}


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.spans: "list[Span]" = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._overhead: Optional[float] = None

    def _stack(self) -> "list[Span]":
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name: str) -> Span:
        return Span(self, name)

    def span_overhead(self, rounds: int = 2000) -> float:
        """Seconds each child span adds to its parent's self time.

        A span's own interval excludes the tracer's bookkeeping, but the
        parent's interval contains it; calibrated once so that self
        times and request totals can be corrected for it.
        """
        if self._overhead is None:
            scratch = Tracer(self._clock)
            with scratch.span("parent") as parent:
                for _ in range(rounds):
                    with scratch.span("child"):
                        pass
            children = sum(span.duration for span in scratch.spans[1:])
            self._overhead = (parent.duration - children) / rounds
        return self._overhead

    def attribute(
        self, spans: "list[Span] | None" = None, overhead: float = 0.0
    ) -> "list[tuple[Span, float, Span]]":
        """``(span, self time, request root)`` for each span.

        Self time is the span's duration minus its direct children's and
        minus ``overhead`` per direct child, so the self times of one
        request sum to what the request would have taken untraced.
        """
        spans = self.spans if spans is None else spans
        child_time: "dict[int, float]" = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration + overhead
        return [
            (span, span.duration - child_time[span.id], self.spans[span.request])
            for span in spans
        ]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)


def check_spans(records: "list[dict]") -> "list[str]":
    """Structural defects in dumped spans: orphans, strays, escapees."""
    by_id = {record["id"]: record for record in records}
    problems = []
    for record in records:
        if record["end"] < record["start"]:
            problems.append(f"span {record['id']} ends before it starts")
        if record["parent"] is None:
            continue
        parent = by_id.get(record["parent"])
        if parent is None:
            problems.append(f"span {record['id']} names a missing parent")
        elif parent["request"] != record["request"]:
            problems.append(f"span {record['id']} crosses requests")
        elif record["start"] < parent["start"] or record["end"] > parent["end"]:
            problems.append(f"span {record['id']} escapes its parent's interval")
    return problems
