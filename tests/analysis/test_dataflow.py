"""Abstract-interpretation dataflow analyzer: states and PV016-PV023.

The seeded-bug tests pin the acceptance contract: each planted defect
(stale-dictionary temp, reaggregate-from-finer, bad sortedness claim,
off-interval estimate) produces *exactly* its owning rule's diagnostic
under the full rule catalog — the rules are disjoint by design.
"""

import math

import pytest

from repro.analysis.dataflow import (
    UNKNOWN_STATE,
    AnalysisContext,
    DataflowAnalysis,
    Interval,
)
from repro.analysis.diagnostics import (
    DiagnosticCollector,
    Severity,
    report_as_dict,
)
from repro.analysis.physrules import verify_physical_plan
from repro.analysis.verifier import PlanVerificationError
from repro.api import Session
from repro.physical.plan import (
    CubeExpand,
    DropTemp,
    HashGroupBy,
    IndexScan,
    Materialize,
    PhysicalPipeline,
    PhysicalPlan,
    Reaggregate,
    RollupExpand,
    Scan,
    SortGroupBy,
)


def fs(*cols):
    return frozenset(cols)


@pytest.fixture
def tiny_session(tiny_table) -> Session:
    # 12 rows; distinct counts: a=3, b=2, c=4, v=12.
    tiny_table.build_dictionaries()
    return Session.for_table(tiny_table, statistics="exact")


@pytest.fixture
def context(tiny_session) -> AnalysisContext:
    return AnalysisContext(
        catalog=tiny_session.catalog,
        base_table=tiny_session.base_table,
        estimator=tiny_session.estimator,
    )


def one_pipeline_plan(*ops, relation="t"):
    """All operators in one pipeline, for rule-restricted unit tests."""
    return PhysicalPlan(
        relation=relation,
        operators=tuple(ops),
        pipelines=(
            PhysicalPipeline(
                ops=tuple(op.op_id for op in ops),
                label="x",
                kind="group_by",
            ),
        ),
    )


def staged_plan(*, group_keys=("a", "b"), reagg_keys=("a",), reagg_source=2):
    """Scan -> HashGroupBy -> Materialize; Reaggregate; DropTemp.

    Shaped to pass every structural rule (PV012-PV014), so full-catalog
    runs isolate exactly the dataflow rule a seeded bug violates.
    """
    temp = "tmp__" + "__".join(group_keys)
    ops = (
        Scan(op_id=0, table="t"),
        HashGroupBy(op_id=1, source=0, keys=group_keys, output=temp),
        Materialize(op_id=2, source=1, output=temp),
        Reaggregate(
            op_id=3,
            source=reagg_source,
            keys=reagg_keys,
            output="tmp__" + "__".join(reagg_keys),
        ),
        DropTemp(op_id=4, temp=temp),
    )
    pipelines = (
        PhysicalPipeline(
            ops=(0, 1, 2),
            label="(" + ",".join(group_keys) + ")",
            kind="group_by",
            materialized=True,
        ),
        PhysicalPipeline(
            ops=(3,), label="(" + ",".join(reagg_keys) + ")", kind="group_by"
        ),
        PhysicalPipeline(ops=(4,), label="drop", kind="drop"),
    )
    return PhysicalPlan(relation="t", operators=ops, pipelines=pipelines)


def fired(diagnostics):
    return [d.rule for d in diagnostics]


class TestInterval:
    def test_contains_with_slack(self):
        interval = Interval(10.0, 20.0)
        assert interval.contains(10.0)
        assert interval.contains(20.0)
        assert interval.contains(15.0)
        assert not interval.contains(9.0)
        assert not interval.contains(21.0)
        # Relative slack admits near-boundary floats.
        assert interval.contains(20.0000001)

    def test_unbounded_str(self):
        assert str(Interval(0.0, math.inf)) == "[0, inf]"
        assert str(Interval(3.0, 6.0)) == "[3, 6]"


class TestAbstractStates:
    def test_scan_state(self, context):
        plan = one_pipeline_plan(Scan(op_id=0, table="t"))
        state = DataflowAnalysis(plan, context).state_of(0)
        assert state.columns == fs("a", "b", "c", "v")
        assert state.grouping is None
        assert state.rows == Interval(12.0, 12.0)
        assert state.sorted_by == ()
        assert state.complete

    def test_grouping_state_exact_bounds(self, context):
        plan = one_pipeline_plan(
            Scan(op_id=0, table="t"),
            HashGroupBy(op_id=1, source=0, keys=("a", "b"), output="tmp"),
        )
        state = DataflowAnalysis(plan, context).state_of(1)
        assert state.grouping == fs("a", "b")
        # Complete input: at least max(d(a), d(b)) = 3 groups, at most
        # min(12, 3 * 2) = 6.
        assert state.rows == Interval(3.0, 6.0)
        assert state.sorted_by == ("a", "b")
        assert state.fresh == fs("a", "b")
        assert state.complete

    def test_regrouping_on_new_key_loses_completeness(self, context):
        plan = one_pipeline_plan(
            Scan(op_id=0, table="t"),
            HashGroupBy(op_id=1, source=0, keys=("a", "b"), output="t1"),
            HashGroupBy(op_id=2, source=1, keys=("c",), output="t2"),
        )
        state = DataflowAnalysis(plan, context).state_of(2)
        assert not state.complete
        # The (a,b) stream need not contain every c value: the distinct
        # floor collapses to 1; the cap is min(6, d(c)=4).
        assert state.rows == Interval(1.0, 4.0)

    def test_materialize_freshness(self, context):
        plan = staged_plan()
        analysis = DataflowAnalysis(plan, context)
        # Producer is a grouping operator: exactly its keys are fresh.
        assert analysis.state_of(2).fresh == fs("a", "b")

    def test_materialize_of_raw_scan_is_stale(self, context):
        plan = one_pipeline_plan(
            Scan(op_id=0, table="t"),
            Materialize(op_id=1, source=0, output="tmp"),
        )
        assert DataflowAnalysis(plan, context).state_of(1).fresh == fs()

    def test_unresolvable_input_is_top(self, context):
        plan = one_pipeline_plan(
            HashGroupBy(op_id=0, source=7, keys=("a",), output="tmp")
        )
        analysis = DataflowAnalysis(plan, context)
        assert analysis.state_of(7) is UNKNOWN_STATE
        # The pass still terminates and yields a defined state.
        assert analysis.state_of(0).grouping == fs("a")

    def test_no_context_states_are_top(self):
        plan = one_pipeline_plan(Scan(op_id=0, table="t"))
        state = DataflowAnalysis(plan).state_of(0)
        assert state.columns is None
        assert state.rows == Interval(0.0, math.inf)

    def test_render_smoke(self, context):
        text = DataflowAnalysis(staged_plan(), context).render()
        assert "raw" in text
        assert "[12, 12]" in text
        assert "fresh=a,b" in text


class TestPV016:
    def test_unknown_table_flagged(self, context):
        plan = one_pipeline_plan(Scan(op_id=0, table="ghost"))
        diagnostics = verify_physical_plan(
            plan, rules=["PV016"], context=context
        )
        assert fired(diagnostics) == ["PV016"]
        assert "unknown table" in diagnostics[0].message

    def test_unknown_index_flagged(self, context):
        plan = one_pipeline_plan(
            IndexScan(op_id=0, table="t", index="ix_ghost")
        )
        diagnostics = verify_physical_plan(
            plan, rules=["PV016"], context=context
        )
        assert fired(diagnostics) == ["PV016"]
        assert "unknown index" in diagnostics[0].message

    def test_missing_grouping_column_flagged(self, context):
        # The (a,b) temp does not carry column c.
        plan = one_pipeline_plan(
            Scan(op_id=0, table="t"),
            HashGroupBy(op_id=1, source=0, keys=("a", "b"), output="t1"),
            HashGroupBy(op_id=2, source=1, keys=("c",), output="t2"),
        )
        diagnostics = verify_physical_plan(
            plan, rules=["PV016"], context=context
        )
        assert fired(diagnostics) == ["PV016"]
        assert "not available" in diagnostics[0].message

    def test_skipped_without_catalog(self):
        plan = one_pipeline_plan(Scan(op_id=0, table="ghost"))
        assert verify_physical_plan(plan, rules=["PV016"]) == []


class TestPV017Seeded:
    def test_reaggregate_from_finer_exactly_pv017(self, context):
        """Seeded bug: answer (c) from the (a,b) temp — not a coarsening."""
        diagnostics = verify_physical_plan(
            staged_plan(reagg_keys=("c",)), context=context
        )
        assert fired(diagnostics) == ["PV017"]
        assert diagnostics[0].severity is Severity.ERROR
        assert "not a coarsening" in diagnostics[0].message

    def test_noop_reaggregate_warns(self, context):
        diagnostics = verify_physical_plan(
            staged_plan(reagg_keys=("a", "b")), context=context
        )
        assert fired(diagnostics) == ["PV017"]
        assert diagnostics[0].severity is Severity.WARNING

    def test_valid_coarsening_clean(self, context):
        assert verify_physical_plan(staged_plan(), context=context) == []


class TestPV018:
    def cube_plan(self, queries):
        return one_pipeline_plan(
            Scan(op_id=0, table="t"),
            HashGroupBy(op_id=1, source=0, keys=("a", "b"), output="tmp"),
            CubeExpand(op_id=2, source=1, queries=queries),
        )

    def test_duplicate_coverage_flagged(self, context):
        diagnostics = verify_physical_plan(
            self.cube_plan((("a",), ("a",))), rules=["PV018"], context=context
        )
        assert any("duplicates" in d.message for d in diagnostics)

    def test_non_canonical_grouping_flagged(self, context):
        diagnostics = verify_physical_plan(
            self.cube_plan((("b", "a"),)), rules=["PV018"], context=context
        )
        assert any("canonical" in d.message for d in diagnostics)

    def test_non_strict_coarsening_flagged(self, context):
        diagnostics = verify_physical_plan(
            self.cube_plan((("a", "b"),)), rules=["PV018"], context=context
        )
        assert any("strict coarsening" in d.message for d in diagnostics)

    def test_rollup_order_mismatch_flagged(self, context):
        plan = one_pipeline_plan(
            Scan(op_id=0, table="t"),
            HashGroupBy(op_id=1, source=0, keys=("a", "b"), output="tmp"),
            RollupExpand(
                op_id=2, source=1, order=("a", "c"), answers=(("a",),)
            ),
        )
        diagnostics = verify_physical_plan(
            plan, rules=["PV018"], context=context
        )
        assert any("does not match" in d.message for d in diagnostics)

    def test_rollup_bad_answer_flagged(self, context):
        plan = one_pipeline_plan(
            Scan(op_id=0, table="t"),
            HashGroupBy(op_id=1, source=0, keys=("a", "b"), output="tmp"),
            RollupExpand(
                op_id=2, source=1, order=("a", "b"), answers=(("b",),)
            ),
        )
        diagnostics = verify_physical_plan(
            plan, rules=["PV018"], context=context
        )
        assert any("proper prefix" in d.message for d in diagnostics)

    def test_valid_cube_clean(self, context):
        plan = self.cube_plan((("a",), ("b",)))
        assert verify_physical_plan(plan, rules=["PV018"], context=context) == []


class TestPV019:
    def rollup_plan(self, est_rows):
        return one_pipeline_plan(
            Scan(op_id=0, table="t"),
            HashGroupBy(op_id=1, source=0, keys=("a", "b"), output="tmp"),
            RollupExpand(
                op_id=2,
                source=1,
                order=("a", "b"),
                answers=(("a",),),
                est_rows=est_rows,
            ),
        )

    def test_out_of_bounds_estimate_warns(self, context):
        diagnostics = verify_physical_plan(
            self.rollup_plan(1e9), rules=["PV019"], context=context
        )
        assert fired(diagnostics) == ["PV019"]
        assert diagnostics[0].severity is Severity.WARNING

    def test_in_bounds_estimate_clean(self, context):
        # The single proper prefix (a) has exactly d(a) = 3 groups.
        plan = self.rollup_plan(3.0)
        assert verify_physical_plan(plan, rules=["PV019"], context=context) == []

    def test_skipped_without_estimator(self, tiny_session):
        no_stats = AnalysisContext(catalog=tiny_session.catalog)
        diagnostics = verify_physical_plan(
            self.rollup_plan(1e9), rules=["PV019"], context=no_stats
        )
        assert diagnostics == []


class TestPV020:
    def test_sorted_claim_over_unsorted_scan_flagged(self, context):
        plan = one_pipeline_plan(
            Scan(op_id=0, table="t"),
            SortGroupBy(
                op_id=1,
                source=0,
                keys=("a",),
                output="tmp",
                input_sorted=True,
            ),
        )
        diagnostics = verify_physical_plan(
            plan, rules=["PV020"], context=context
        )
        assert fired(diagnostics) == ["PV020"]
        assert "unsorted" in diagnostics[0].message

    def test_index_prefix_claim_clean(self, tiny_session, context):
        tiny_session.create_index(("a", "b"))
        plan = one_pipeline_plan(
            IndexScan(
                op_id=0, table="t", index="ix_a_b", sorted_prefix=True
            ),
            SortGroupBy(
                op_id=1,
                source=0,
                keys=("a",),
                output="tmp",
                input_sorted=True,
            ),
        )
        assert verify_physical_plan(plan, rules=["PV020"], context=context) == []

    def test_unverifiable_claim_skipped_without_catalog(self):
        plan = one_pipeline_plan(
            IndexScan(
                op_id=0, table="t", index="ix_a_b", sorted_prefix=True
            ),
            SortGroupBy(
                op_id=1,
                source=0,
                keys=("b",),
                output="tmp",
                input_sorted=True,
            ),
        )
        assert verify_physical_plan(plan, rules=["PV020"]) == []


class TestPV021Seeded:
    def test_stale_dictionary_temp_exactly_pv021(self, context):
        """Seeded bug: reaggregate a temp whose producer was not a
        grouping — no key dictionary is materialization-fresh."""
        temp = "tmp__raw"
        ops = (
            Scan(op_id=0, table="t"),
            Materialize(op_id=1, source=0, output=temp),
            Reaggregate(op_id=2, source=1, keys=("a",), output="tmp__a"),
            DropTemp(op_id=3, temp=temp),
        )
        plan = PhysicalPlan(
            relation="t",
            operators=ops,
            pipelines=(
                PhysicalPipeline(
                    ops=(0, 1),
                    label="(raw)",
                    kind="group_by",
                    materialized=True,
                ),
                PhysicalPipeline(ops=(2,), label="(a)", kind="group_by"),
                PhysicalPipeline(ops=(3,), label="drop", kind="drop"),
            ),
        )
        diagnostics = verify_physical_plan(plan, context=context)
        assert fired(diagnostics) == ["PV021"]
        assert diagnostics[0].severity is Severity.ERROR
        assert "not" in diagnostics[0].message
        assert "fresh" in diagnostics[0].message

    def test_lattice_violation_owned_by_pv017(self, context):
        # A reaggregate that is both finer AND stale reports only the
        # lattice violation: the rules are disjoint.
        diagnostics = verify_physical_plan(
            staged_plan(reagg_keys=("c",)), context=context
        )
        assert fired(diagnostics) == ["PV017"]


class TestPV022:
    def grouped_plan(self, est_rows):
        return one_pipeline_plan(
            Scan(op_id=0, table="t"),
            HashGroupBy(
                op_id=1,
                source=0,
                keys=("a",),
                output="tmp",
                est_rows=est_rows,
            ),
        )

    def test_out_of_interval_estimate_warns(self, context):
        diagnostics = verify_physical_plan(
            self.grouped_plan(50.0), rules=["PV022"], context=context
        )
        assert fired(diagnostics) == ["PV022"]
        assert diagnostics[0].severity is Severity.WARNING
        assert "[3, 3]" in diagnostics[0].message

    def test_exact_estimate_clean(self, context):
        plan = self.grouped_plan(3.0)
        assert verify_physical_plan(plan, rules=["PV022"], context=context) == []

    def test_unset_estimate_skipped(self, context):
        plan = self.grouped_plan(0.0)
        assert verify_physical_plan(plan, rules=["PV022"], context=context) == []


class TestPV023:
    def test_query_keys_mismatch_flagged(self, context):
        plan = one_pipeline_plan(
            Scan(op_id=0, table="t"),
            HashGroupBy(
                op_id=1,
                source=0,
                keys=("a", "b"),
                output="tmp",
                query=("a",),
            ),
        )
        diagnostics = verify_physical_plan(
            plan, rules=["PV023"], context=context
        )
        assert fired(diagnostics) == ["PV023"]

    def test_non_canonical_query_flagged(self, context):
        plan = one_pipeline_plan(
            Scan(op_id=0, table="t"),
            HashGroupBy(
                op_id=1,
                source=0,
                keys=("a", "b"),
                output="tmp",
                query=("b", "a"),
            ),
        )
        assert fired(
            verify_physical_plan(plan, rules=["PV023"], context=context)
        ) == ["PV023"]

    def test_matching_query_clean(self, context):
        plan = one_pipeline_plan(
            Scan(op_id=0, table="t"),
            HashGroupBy(
                op_id=1,
                source=0,
                keys=("a", "b"),
                output="tmp",
                query=("a", "b"),
            ),
        )
        assert verify_physical_plan(plan, rules=["PV023"], context=context) == []


class TestDiagnosticDedup:
    def test_identical_records_collapse(self):
        out = DiagnosticCollector()
        out.emit("PV017", Severity.ERROR, "op 3", "same message")
        out.emit("PV017", Severity.ERROR, "op 3", "same message")
        assert len(out.diagnostics) == 1

    def test_distinct_records_kept(self):
        out = DiagnosticCollector()
        out.emit("PV017", Severity.ERROR, "op 3", "message one")
        out.emit("PV017", Severity.ERROR, "op 4", "message one")
        out.emit("PV021", Severity.ERROR, "op 3", "message one")
        assert len(out.diagnostics) == 3

    def test_report_as_dict_counts(self):
        out = DiagnosticCollector()
        out.emit("PV017", Severity.ERROR, "op 3", "bad")
        out.emit("PV022", Severity.WARNING, "op 4", "meh", hint="fix it")
        payload = report_as_dict(out.diagnostics)
        assert payload["errors"] == 1
        assert payload["warnings"] == 1
        assert payload["diagnostics"][0]["rule"] == "PV017"
        assert payload["diagnostics"][1]["hint"] == "fix it"


class TestPlanCheckMethod:
    def test_clean_plan_returns_no_diagnostics(self, context):
        assert staged_plan().check(context) == []

    def test_context_free_check_passes_structural_rules(self):
        assert staged_plan().check() == []

    def test_seeded_bug_raises(self, context):
        with pytest.raises(PlanVerificationError, match="PV017"):
            staged_plan(reagg_keys=("c",)).check(context)
