"""Unit tests for the span tracer: nesting, no-op mode, export."""

import json

import pytest

from repro.obs import (
    NOOP_TRACER,
    ManualClock,
    NoopTracer,
    Tracer,
    read_jsonl,
    render_span_tree,
    spans_from_dicts,
    write_jsonl,
)


class TestSpans:
    def test_nested_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("sibling"):
                pass
        outer, inner, leaf, sibling = tracer.spans
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert leaf.parent_id == inner.span_id
        assert sibling.parent_id == outer.span_id
        assert tracer.root_spans() == [outer]
        assert tracer.children_of(outer) == [inner, sibling]

    def test_durations_from_injected_clock(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(0.25)
            clock.advance(1.0)
        outer, inner = tracer.spans
        assert outer.duration == pytest.approx(2.25)
        assert inner.duration == pytest.approx(0.25)
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_attributes_at_open_and_via_set(self):
        tracer = Tracer()
        with tracer.span("step", phase="scan") as span:
            span.set(rows=42)
        [recorded] = tracer.spans
        assert recorded.attributes == {"phase": "scan", "rows": 42}

    def test_exception_marks_span_and_closes_it(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        [span] = tracer.spans
        assert span.attributes["error"] is True
        assert span.end is not None
        assert tracer.current_span is None

    def test_current_span_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current_span is None
        with tracer.span("outer") as outer:
            assert tracer.current_span is outer
        assert tracer.current_span is None

    def test_clear_resets_everything(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.clear()
        assert tracer.spans == []
        with tracer.span("again") as span:
            assert span.span_id == 0
            assert span.parent_id is None


class TestNoopTracer:
    def test_disabled_adds_no_spans(self):
        tracer = NoopTracer()
        with tracer.span("outer", key="value") as span:
            span.set(more=1)
        assert tracer.spans == []
        assert tracer.enabled is False

    def test_shared_singleton_context(self):
        # The no-op span() allocates nothing: one shared context object.
        assert NOOP_TRACER.span("a") is NOOP_TRACER.span("b")

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError):
            with NOOP_TRACER.span("x"):
                raise ValueError("x")


class TestJsonlRoundTrip:
    def _traced(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("root", source="test"):
            clock.advance(1.0)
            with tracer.span("child") as span:
                span.set(rows=7, label="(a,b)")
                clock.advance(0.5)
        return tracer

    def test_round_trips_line_by_line(self, tmp_path):
        tracer = self._traced()
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(tracer, path) == 2
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]
        assert records == read_jsonl(path)
        assert [r["name"] for r in records] == ["root", "child"]
        assert records[1]["attributes"] == {"rows": 7, "label": "(a,b)"}
        # Parents come before children, so ids resolve on one pass.
        seen = set()
        for record in records:
            assert record["parent_id"] is None or record["parent_id"] in seen
            seen.add(record["span_id"])

    def test_tree_rerenders_from_records(self, tmp_path):
        tracer = self._traced()
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer, path)
        rebuilt = spans_from_dicts(read_jsonl(path))
        assert render_span_tree(rebuilt) == render_span_tree(tracer.spans)
        assert "root" in render_span_tree(rebuilt)

    def test_to_jsonl_lines_matches_file(self, tmp_path):
        # One compact, key-sorted JSON object per span, in span order —
        # whether handed the tracer or its span list.
        tracer = self._traced()
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer.spans, path)
        assert path.read_text().splitlines() == [
            json.dumps(span.to_dict(), sort_keys=True)
            for span in tracer.spans
        ]


class TestSpanUnder:
    def test_explicit_parent(self):
        tracer = Tracer()
        with tracer.span("wave") as wave:
            pass
        with tracer.span_under(wave, "node") as node:
            assert node.parent_id == wave.span_id

    def test_none_parent_makes_root(self):
        tracer = Tracer()
        with tracer.span_under(None, "root") as span:
            assert span.parent_id is None

    def test_children_nest_inside(self):
        tracer = Tracer()
        with tracer.span("wave") as wave:
            with tracer.span_under(wave, "node"):
                with tracer.span("inner") as inner:
                    pass
        node = next(s for s in tracer.spans if s.name == "node")
        assert inner.parent_id == node.span_id

    def test_noop_tracer_span_under(self):
        with NOOP_TRACER.span_under(None, "x") as span:
            span.set(ignored=True)
        assert NOOP_TRACER.spans == []


class TestThreadSafety:
    def test_concurrent_spans_unique_ids_and_parents(self):
        import threading

        tracer = Tracer()
        with tracer.span("wave") as wave:
            def worker(i):
                with tracer.span_under(wave, f"node-{i}"):
                    with tracer.span(f"inner-{i}"):
                        pass

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        ids = [s.span_id for s in tracer.spans]
        assert len(ids) == len(set(ids)) == 17
        for i in range(8):
            node = next(s for s in tracer.spans if s.name == f"node-{i}")
            inner = next(s for s in tracer.spans if s.name == f"inner-{i}")
            assert node.parent_id == wave.span_id
            assert inner.parent_id == node.span_id

    def test_per_thread_current_span(self):
        import threading

        tracer = Tracer()
        seen = {}

        def worker():
            seen["worker"] = tracer.current_span

        with tracer.span("outer"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert tracer.current_span is not None
        assert seen["worker"] is None
