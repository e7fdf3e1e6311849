"""Unit tests for profile export: collapsed stacks and self-time."""

from repro.obs import ManualClock, Tracer
from repro.obs.export import (
    collapsed_stacks,
    frame_name,
    render_self_time_table,
    self_time_table,
    to_collapsed,
    write_collapsed,
)


def build_trace() -> Tracer:
    """root(4s) -> child_a(1s), child_b(2s); child_b -> leaf(0.5s)."""
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    with tracer.span("root"):
        with tracer.span("child", node="a"):
            clock.advance(1.0)
        with tracer.span("child", node="b"):
            with tracer.span("leaf"):
                clock.advance(0.5)
            clock.advance(1.5)
        clock.advance(1.0)
    return tracer


class TestCollapsedStacks:
    def test_self_time_weights(self):
        weights = collapsed_stacks(build_trace().spans)
        assert weights["root"] == 1_000_000  # 4s minus 3s of children
        assert weights["root;child a"] == 1_000_000
        assert weights["root;child b"] == 1_500_000
        assert weights["root;child b;leaf"] == 500_000

    def test_total_weight_equals_root_duration(self):
        tracer = build_trace()
        total = sum(collapsed_stacks(tracer.spans).values())
        assert total == int(round(tracer.spans[0].duration * 1e6))

    def test_sibling_spans_on_one_path_sum(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("root"):
            for _ in range(3):
                with tracer.span("step"):
                    clock.advance(0.1)
        weights = collapsed_stacks(tracer.spans)
        assert weights["root;step"] == 300_000

    def test_zero_weight_paths_are_dropped(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("root"):
            with tracer.span("all_of_it"):
                clock.advance(1.0)
        weights = collapsed_stacks(tracer.spans)
        assert "root" not in weights  # zero self time
        assert weights == {"root;all_of_it": 1_000_000}

    def test_collapsed_format_lines(self):
        body = to_collapsed(build_trace().spans)
        for line in body.splitlines():
            path, weight = line.rsplit(" ", 1)
            assert path
            assert int(weight) > 0

    def test_write_collapsed_counts_lines(self, tmp_path):
        out = tmp_path / "profile.collapsed"
        lines = write_collapsed(build_trace().spans, out)
        assert lines == len(out.read_text().splitlines()) == 4

    def test_write_collapsed_empty(self, tmp_path):
        out = tmp_path / "empty.collapsed"
        assert write_collapsed([], out) == 0
        assert out.read_text() == ""


class TestFrameNames:
    def test_attribute_refines_frame_name(self):
        tracer = Tracer()
        with tracer.span("execute.node", node="(a,b)"):
            pass
        with tracer.span("execute.drop_temp", temp="tmp_x"):
            pass
        with tracer.span("plain"):
            pass
        names = [frame_name(s) for s in tracer.spans]
        assert names == ["execute.node (a,b)", "execute.drop_temp tmp_x", "plain"]


class TestSelfTimeTable:
    def test_rows_sorted_by_self_time(self):
        rows = self_time_table(build_trace().spans)
        assert [r.self_seconds for r in rows] == sorted(
            (r.self_seconds for r in rows), reverse=True
        )
        by_name = {r.name: r for r in rows}
        assert by_name["child b"].total_seconds == 2.0
        assert by_name["child b"].self_seconds == 1.5
        assert by_name["root"].calls == 1

    def test_render_limits_rows(self):
        rows = self_time_table(build_trace().spans)
        text = render_self_time_table(rows, limit=2)
        assert "more frames" in text
        assert len(text.splitlines()) == 4  # header + 2 rows + footer

    def test_parallel_trace_folds_via_span_under(self):
        """Worker spans opened with span_under fold under the wave."""
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("execute.plan"):
            with tracer.span("execute.wave") as wave:
                with tracer.span_under(wave, "execute.node", node="(x)"):
                    clock.advance(0.25)
                with tracer.span_under(wave, "execute.node", node="(y)"):
                    clock.advance(0.25)
        weights = collapsed_stacks(tracer.spans)
        assert weights["execute.plan;execute.wave;execute.node (x)"] == 250_000
        assert weights["execute.plan;execute.wave;execute.node (y)"] == 250_000
