"""Benchmark-owned span recorder and self-time arithmetic.

The traced run wraps every call into a layer's public function in one
span (name, start, end, the span that caused it, a run id), keeps the
spans in memory and writes them as JSONL when the run ends.  A span's
*self time* is its duration minus the part of that interval its child
spans cover, so self times of a single-threaded run add up to the root
span's wall exactly.

:func:`self_times` is duck-typed over anything carrying ``span_id``,
``parent_id``, ``start`` and ``end`` — the recorder's own
:class:`SpanRecord` and the program's ``repro.obs.tracer.Span`` alike —
so the per-operator split of the program's ``execute.<op>`` spans uses
the same arithmetic as the benchmark's own spans.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Protocol


class SpanLike(Protocol):
    """What the self-time arithmetic needs from a span."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None


@dataclass
class SpanRecord:
    """One benchmark-owned span."""

    name: str
    span_id: int
    parent_id: int | None
    run_id: str
    start: float
    end: float | None = None

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start


class SpanRecorder:
    """In-memory span recorder for one traced run (single-threaded).

    Args:
        run_id: identifier shared by every span of the run.
        clock: monotonic clock; injectable so tests drive it by hand.
    """

    def __init__(
        self, run_id: str, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.run_id = run_id
        self.spans: list[SpanRecord] = []
        self._clock = clock
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[SpanRecord]:
        """Open a span named ``name`` under the innermost open span."""
        record = SpanRecord(
            name=name,
            span_id=len(self.spans),
            parent_id=self._stack[-1] if self._stack else None,
            run_id=self.run_id,
            start=self._clock(),
        )
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self._clock()

    def write_jsonl(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(asdict(record)) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_times(spans: Iterable[SpanLike]) -> dict[int, float]:
    """Self time per span id: duration minus what the children cover.

    Children are clipped to their parent's interval and overlapping
    children (worker threads under one parent) are counted once.
    Spans still open (``end`` None) are skipped.
    """
    closed = [span for span in spans if span.end is not None]
    children: dict[int, list[tuple[float, float]]] = {}
    bounds = {span.span_id: (span.start, span.end) for span in closed}
    for span in closed:
        parent = bounds.get(span.parent_id) if span.parent_id is not None else None
        if parent is None:
            continue
        start = max(span.start, parent[0])
        end = min(span.end, parent[1])
        if end > start:
            children.setdefault(span.parent_id, []).append((start, end))
    return {
        span.span_id: (span.end - span.start)
        - _covered(children.get(span.span_id, []))
        for span in closed
    }


def self_time_by_name(spans: Iterable[SpanLike]) -> dict[str, float]:
    """Self time summed over the spans sharing a name."""
    spans = list(spans)
    by_id = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        if span.span_id in by_id:
            totals[span.name] = totals.get(span.name, 0.0) + by_id[span.span_id]
    return totals
