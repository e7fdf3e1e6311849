"""Unit tests for plan EXPLAIN."""

import pytest

from repro.api import Session
from repro.core.explain import explain_plan
from repro.core.plan import LogicalPlan, PlanNode, SubPlan
from repro.workloads.queries import single_column_queries


@pytest.fixture
def explained(random_table):
    session = Session.for_table(random_table, statistics="exact")
    queries = single_column_queries(["low", "mid", "corr", "high"])
    result = session.optimize(queries)
    return session, result, session.explain(result.plan)


class TestExplain:
    def test_every_node_listed(self, explained):
        _, result, explanation = explained
        assert len(explanation.nodes) == result.plan.node_count()

    def test_total_matches_optimizer_cost(self, explained):
        _, result, explanation = explained
        assert explanation.total_cost == pytest.approx(result.cost)

    def test_estimates_positive(self, explained):
        _, _, explanation = explained
        for node in explanation.nodes:
            assert node.est_rows >= 1
            assert node.est_width > 0
            assert node.est_cost > 0

    def test_render_shape(self, explained, random_table):
        _, _, explanation = explained
        text = explanation.render()
        lines = text.splitlines()
        assert lines[0].startswith("r  rows=")
        assert lines[-1].startswith("total estimated cost:")
        assert any("[spool" in line for line in lines) or all(
            "spool" not in line for line in lines
        )

    def test_required_flagged(self, explained):
        _, result, explanation = explained
        required_labels = {
            s.node.describe()
            for s in result.plan.iter_subplans()
            if s.required
        }
        flagged = {n.label for n in explanation.nodes if n.required}
        assert required_labels <= flagged

    def test_depths_follow_tree(self, explained):
        _, _, explanation = explained
        assert explanation.nodes[0].depth == 1
        assert max(n.depth for n in explanation.nodes) >= 1


def fs(*columns):
    return frozenset(columns)


class FixedEstimator:
    base_rows = 1_234_567
    _rows = {
        fs("a"): 12.0,
        fs("b"): 3456.4,
        fs("a", "b"): 40_000.6,
        fs("c"): 1_000_000.0,
    }

    def rows(self, columns):
        return self._rows[columns]

    def row_width(self, columns):
        return 8.0 * len(columns) + 8.0


class FixedCoster:
    def edge_cost(self, parent, child, materialize_child):
        base = 9_876_543.21 if parent is None else 1234.5
        spool = 1000.0 if materialize_child else 0.0
        return base + spool + len(child.columns)

    def plan_cost(self, plan):
        return 19_999_999.6


#: The estimate-only rendering before EXPLAIN and EXPLAIN ANALYZE shared
#: one node type; merging them must not move a character of it.
GOLDEN_EXPLAIN = """\
r  rows=1,234,567
  (a,b) [spool, required]  rows=40,001 width=24B cost=9,877,545
    (a) [required]  rows=12 width=16B cost=1,236
    (b) [required]  rows=3,456 width=16B cost=1,236
  (c) [required]  rows=1,000,000 width=16B cost=9,876,544
total estimated cost: 20,000,000"""


def test_estimate_only_render_is_unchanged():
    ab = SubPlan(
        PlanNode(fs("a", "b")),
        children=(SubPlan.leaf(fs("a")), SubPlan.leaf(fs("b"))),
        required=True,
    )
    plan = LogicalPlan(
        "r",
        (ab, SubPlan.leaf(fs("c"))),
        frozenset({fs("a"), fs("b"), fs("a", "b"), fs("c")}),
    )
    explanation = explain_plan(plan, FixedCoster(), FixedEstimator())
    assert explanation.render() == GOLDEN_EXPLAIN


def test_explain_via_cli(tmp_path, capsys):
    import numpy as np

    from repro.cli import main
    from repro.engine.csv_io import save_csv
    from repro.engine.table import Table

    rng = np.random.default_rng(0)
    table = Table(
        "d", {"a": rng.integers(0, 3, 500), "b": rng.integers(0, 4, 500)}
    )
    path = tmp_path / "d.csv"
    save_csv(table, path)
    assert main(["explain", str(path)]) == 0
    out = capsys.readouterr().out
    assert "-- EXPLAIN --" in out
    assert "total estimated cost:" in out
