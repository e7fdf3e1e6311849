"""Views of a span list: JSONL files, ASCII trees, profiles.

JSONL is the interchange format (one span per line, parents emitted
before children, so a stream consumer can rebuild the tree online); the
ASCII tree is the human view the ``repro trace`` CLI prints.

The tracer records a span *tree*; profilers want a *profile*.  Two
views convert one into the other:

* :func:`collapsed_stacks` folds every span into its root-to-leaf frame
  path and weighs each path by **self time** (the span's duration minus
  its children's) in integer microseconds — Brendan Gregg's collapsed
  stack format, directly consumable by ``flamegraph.pl`` and by
  speedscope's importer::

      trace;optimize;optimize.iteration 1523
      trace;execute.plan;execute.node (a,b) 87

* :func:`self_time_table` aggregates spans by frame name into a
  per-operator profile (calls, total time, self time, share of the
  root), the terminal view ``repro trace --self-time`` prints.

Parallel traces fold exactly like serial ones: a worker's spans hang
off the wave span via ``span_under``, so their paths run
``...;execute.plan;execute.wave;execute.node ...`` and sibling overlap
simply sums — wall time and CPU time diverge in a parallel profile, as
in any multi-threaded flamegraph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.obs.tracer import Span, Tracer

#: Attribute appended to the frame name to split same-named spans (the
#: pipeline's ``node`` label for ``execute.node``, the temp name for
#: drops), so flamegraphs stay readable without exploding frame
#: cardinality.
FRAME_ATTRIBUTES = ("node", "temp", "child")


def write_jsonl(tracer_or_spans: Tracer | Sequence[Span], path: str | Path) -> int:
    """Write spans to ``path`` as JSONL; returns the number of lines."""
    spans = (
        tracer_or_spans.spans
        if isinstance(tracer_or_spans, Tracer)
        else tracer_or_spans
    )
    lines = [json.dumps(span.to_dict(), sort_keys=True) for span in spans]
    Path(path).write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )
    return len(lines)


def read_jsonl(path: str | Path) -> list[dict[str, object]]:
    """Parse a span JSONL file back into dicts (line-by-line)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def spans_from_dicts(records: Iterable[dict[str, object]]) -> list[Span]:
    """Rebuild Span objects from JSONL records (for tree re-rendering)."""
    spans = []
    for record in records:
        spans.append(
            Span(
                name=str(record["name"]),
                span_id=int(record["span_id"]),  # type: ignore[arg-type]
                parent_id=(
                    None
                    if record.get("parent_id") is None
                    else int(record["parent_id"])  # type: ignore[arg-type]
                ),
                start=float(record["start"]),  # type: ignore[arg-type]
                end=(
                    None
                    if record.get("end") is None
                    else float(record["end"])  # type: ignore[arg-type]
                ),
                attributes=dict(record.get("attributes", {})),  # type: ignore[arg-type]
            )
        )
    return spans


def _format_attributes(attributes: dict[str, object]) -> str:
    if not attributes:
        return ""
    inner = ", ".join(
        f"{key}={_format_value(value)}"
        for key, value in sorted(attributes.items())
    )
    return f"  {{{inner}}}"


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:,.3g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_snapshot(snapshot: dict[str, object], indent: str = "  ") -> str:
    """Render a flat metrics snapshot for terminal output."""
    width = max((len(key) for key in snapshot), default=0)
    return "\n".join(
        f"{indent}{key.ljust(width)}  {_format_value(value)}"
        for key, value in sorted(snapshot.items())
    )


def _index_children(spans: Sequence[Span]) -> dict[int | None, list[Span]]:
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    return children


def render_span_tree(spans: Sequence[Span]) -> str:
    """ASCII tree of a span list: name, duration, attributes."""
    children = _index_children(spans)
    lines: list[str] = []

    def emit(span: Span, indent: str, branch: str, extension: str) -> None:
        lines.append(
            f"{indent}{branch}{span.name}  "
            f"{span.duration * 1e3:.3f} ms"
            f"{_format_attributes(span.attributes)}"
        )
        kids = children.get(span.span_id, [])
        for i, child in enumerate(kids):
            last = i == len(kids) - 1
            emit(
                child,
                indent + extension,
                "└── " if last else "├── ",
                "    " if last else "│   ",
            )

    for root in children.get(None, []):
        emit(root, "", "", "")
    return "\n".join(lines)


def frame_name(span: Span) -> str:
    """Display name of a span's stack frame."""
    for attribute in FRAME_ATTRIBUTES:
        value = span.attributes.get(attribute)
        if value is not None:
            return f"{span.name} {value}"
    return span.name


def self_seconds(span: Span, children: Sequence[Span]) -> float:
    """A span's duration minus its direct children's durations."""
    return max(span.duration - sum(c.duration for c in children), 0.0)


def collapsed_stacks(spans: Sequence[Span]) -> dict[str, int]:
    """Fold spans into ``frame;frame;...`` -> self-time microseconds.

    Paths with zero self time after rounding are dropped (they would
    render as invisible slivers); sibling spans sharing a path sum.
    """
    children = _index_children(spans)
    weights: dict[str, int] = {}

    def walk(span: Span, prefix: str) -> None:
        path = f"{prefix};{frame_name(span)}" if prefix else frame_name(span)
        kids = children.get(span.span_id, [])
        micros = int(round(self_seconds(span, kids) * 1e6))
        if micros > 0:
            weights[path] = weights.get(path, 0) + micros
        for child in kids:
            walk(child, path)

    for root in children.get(None, []):
        walk(root, "")
    return weights


def to_collapsed(spans: Sequence[Span]) -> str:
    """The collapsed-stack file body (one ``path weight`` line each)."""
    weights = collapsed_stacks(spans)
    return "\n".join(f"{path} {weight}" for path, weight in sorted(weights.items()))


def write_collapsed(spans: Sequence[Span], path: str | Path) -> int:
    """Write the collapsed-stack file; returns the number of lines."""
    body = to_collapsed(spans)
    Path(path).write_text(body + "\n" if body else "", encoding="utf-8")
    return 0 if not body else body.count("\n") + 1


@dataclass(frozen=True)
class ProfileRow:
    """One frame's aggregate in the self-time table."""

    name: str
    calls: int
    total_seconds: float
    self_seconds: float


def self_time_table(spans: Sequence[Span]) -> list[ProfileRow]:
    """Aggregate spans by frame name, descending by self time."""
    children = _index_children(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for span in spans:
        name = frame_name(span)
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + span.duration
        kids = children.get(span.span_id, [])
        self_time[name] = self_time.get(name, 0.0) + self_seconds(span, kids)
    rows = [
        ProfileRow(name, calls[name], total[name], self_time[name])
        for name in calls
    ]
    rows.sort(key=lambda row: (-row.self_seconds, row.name))
    return rows


def render_self_time_table(
    rows: Sequence[ProfileRow], limit: int | None = None
) -> str:
    """Terminal table: frame, calls, total ms, self ms, self share."""
    shown = list(rows[:limit] if limit else rows)
    total_self = sum(row.self_seconds for row in rows) or 1.0
    width = max((len(row.name) for row in shown), default=4)
    lines = [
        f"{'frame'.ljust(width)}  {'calls':>6}  {'total ms':>10}  "
        f"{'self ms':>10}  {'self %':>6}"
    ]
    for row in shown:
        lines.append(
            f"{row.name.ljust(width)}  {row.calls:>6,}  "
            f"{row.total_seconds * 1e3:>10.3f}  "
            f"{row.self_seconds * 1e3:>10.3f}  "
            f"{row.self_seconds / total_self:>6.1%}"
        )
    if limit and len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more frames")
    return "\n".join(lines)
