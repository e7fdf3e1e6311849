"""Round-trip tests for trace export: JSONL in, identical spans out."""

from repro.api import Session
from repro.obs import (
    Tracer,
    read_jsonl,
    render_span_tree,
    spans_from_dicts,
    write_jsonl,
)
from repro.obs.export import collapsed_stacks
from repro.workloads.queries import combi_workload
from repro.workloads.sales import make_sales


def round_trip(tracer: Tracer, path):
    write_jsonl(tracer, path)
    return spans_from_dicts(read_jsonl(path))


def assert_spans_equal(original, restored):
    assert len(original) == len(restored)
    for a, b in zip(original, restored):
        assert a.name == b.name
        assert a.span_id == b.span_id
        assert a.parent_id == b.parent_id
        assert a.attributes == b.attributes
        assert a.start == b.start
        assert a.end == b.end
        assert a.duration == b.duration


class TestRoundTrip:
    def test_synthetic_tree_survives(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root", source="test"):
            with tracer.span("child", node="(a)", rows_out=7):
                pass
            with tracer.span("child", node="(b)"):
                with tracer.span("leaf", flag=True):
                    pass
        restored = round_trip(tracer, tmp_path / "trace.jsonl")
        assert_spans_equal(tracer.spans, restored)
        assert render_span_tree(restored) == render_span_tree(tracer.spans)

    def test_serial_execution_trace_survives(self, tmp_path):
        table = make_sales(1_500)
        tracer = Tracer()
        session = Session.for_table(
            table, statistics="exact", tracer=tracer
        )
        queries = combi_workload(list(table.column_names)[:3], 2)
        result = session.optimize(queries)
        session.execute(result.plan)
        restored = round_trip(tracer, tmp_path / "trace.jsonl")
        assert_spans_equal(tracer.spans, restored)

    def test_parallel_cross_thread_spans_survive(self, tmp_path):
        """parallelism>1: worker spans parented via span_under still
        restore with intact parentage, and the profile folds match."""
        table = make_sales(1_500)
        tracer = Tracer()
        session = Session.for_table(
            table, statistics="exact", tracer=tracer
        )
        queries = combi_workload(list(table.column_names)[:3], 2)
        result = session.optimize(queries)
        session.execute(result.plan, parallelism=2)
        restored = round_trip(tracer, tmp_path / "trace.jsonl")
        assert_spans_equal(tracer.spans, restored)
        ids = {span.span_id for span in restored}
        for span in restored:
            assert span.parent_id is None or span.parent_id in ids
        assert collapsed_stacks(restored) == collapsed_stacks(tracer.spans)
