"""Physical verifier rules PV012+ over hand-built and lowered plans."""

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.physrules import (
    PHYSICAL_RULES,
    check_physical_plan,
    verify_physical_plan,
)
from repro.analysis.verifier import PlanVerificationError
from repro.core.plan import naive_plan
from repro.physical.plan import (
    DropTemp,
    HashGroupBy,
    Materialize,
    PhysicalPipeline,
    PhysicalPlan,
    Reaggregate,
    Scan,
)
from repro.workloads.queries import containment_workload


def fs(*cols):
    return frozenset(cols)


def staged_plan(
    *,
    reagg_source=2,
    drop=True,
    drop_temp="tmp__a__b",
    pipeline_order=(0, 1, 2),
):
    """Scan -> HashGroupBy -> Materialize; Reaggregate; DropTemp."""
    ops = (
        Scan(op_id=0, table="r"),
        HashGroupBy(
            op_id=1, source=0, keys=("a", "b"), output="tmp__a__b"
        ),
        Materialize(op_id=2, source=1, output="tmp__a__b"),
        Reaggregate(
            op_id=3, source=reagg_source, keys=("a",), output="tmp__a"
        ),
        DropTemp(op_id=4, temp=drop_temp),
    )
    all_pipelines = [
        PhysicalPipeline(
            ops=(0, 1, 2), label="(a,b)", kind="group_by", materialized=True
        ),
        PhysicalPipeline(ops=(3,), label="(a)", kind="group_by"),
        PhysicalPipeline(ops=(4,), label="(a,b)", kind="drop"),
    ]
    pipelines = tuple(all_pipelines[i] for i in pipeline_order)
    if not drop:
        ops = ops[:4]
        pipelines = tuple(p for p in pipelines if p.kind != "drop")
    return PhysicalPlan(relation="r", operators=ops, pipelines=pipelines)


def fired(diagnostics):
    return {d.rule for d in diagnostics}


class TestRegistry:
    def test_rule_ids_start_at_pv012(self):
        # PV012-PV023 and PV025: number 24 is retired, PV025 keeps its id.
        assert set(PHYSICAL_RULES) == {
            f"PV{number:03d}" for number in range(12, 26) if number != 24
        }

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="unknown physical rule"):
            verify_physical_plan(staged_plan(), rules=["PV999"])


class TestPV012:
    def test_well_formed_plan_clean(self):
        assert verify_physical_plan(staged_plan(), rules=["PV012"]) == []

    def test_forward_edge_flagged(self):
        ops = (
            HashGroupBy(op_id=0, source=1, keys=("a",), output="t"),
            Scan(op_id=1, table="r"),
        )
        plan = PhysicalPlan(
            relation="r",
            operators=ops,
            pipelines=(
                PhysicalPipeline(ops=(0, 1), label="x", kind="group_by"),
            ),
        )
        diagnostics = verify_physical_plan(plan, rules=["PV012"])
        assert any("backwards" in d.message for d in diagnostics)

    def test_orphan_operator_flagged(self):
        ops = (Scan(op_id=0, table="r"), Scan(op_id=1, table="r"))
        plan = PhysicalPlan(
            relation="r",
            operators=ops,
            pipelines=(PhysicalPipeline(ops=(0,), label="x", kind="group_by"),),
        )
        diagnostics = verify_physical_plan(plan, rules=["PV012"])
        assert any("no pipeline" in d.message for d in diagnostics)

    def test_duplicated_operator_flagged(self):
        plan = PhysicalPlan(
            relation="r",
            operators=(Scan(op_id=0, table="r"),),
            pipelines=(
                PhysicalPipeline(ops=(0,), label="x", kind="group_by"),
                PhysicalPipeline(ops=(0,), label="y", kind="group_by"),
            ),
        )
        diagnostics = verify_physical_plan(plan, rules=["PV012"])
        assert any("more than one pipeline" in d.message for d in diagnostics)

    def test_bad_partition_count_flagged(self):
        ops = (
            Scan(op_id=0, table="r"),
            HashGroupBy(
                op_id=1, source=0, keys=("a",), output="t", partitions=0
            ),
        )
        plan = PhysicalPlan(
            relation="r",
            operators=ops,
            pipelines=(
                PhysicalPipeline(ops=(0, 1), label="x", kind="group_by"),
            ),
        )
        diagnostics = verify_physical_plan(plan, rules=["PV012"])
        assert any("must be >= 1" in d.message for d in diagnostics)


class TestPV013:
    def test_reaggregate_from_materialize_clean(self):
        assert verify_physical_plan(staged_plan(), rules=["PV013"]) == []

    def test_reaggregate_from_non_materialize_flagged(self):
        diagnostics = verify_physical_plan(
            staged_plan(reagg_source=1), rules=["PV013"]
        )
        assert any(
            "not a Materialize" in d.message for d in diagnostics
        )

    def test_consumer_before_producer_flagged(self):
        plan = staged_plan(pipeline_order=(1, 0, 2))
        diagnostics = verify_physical_plan(plan, rules=["PV013"])
        assert any("does not run before" in d.message for d in diagnostics)


class TestPV014:
    def test_matched_drop_clean(self):
        assert verify_physical_plan(staged_plan(), rules=["PV014"]) == []

    def test_missing_drop_flagged(self):
        diagnostics = verify_physical_plan(
            staged_plan(drop=False), rules=["PV014"]
        )
        assert any("dropped 0 times" in d.message for d in diagnostics)

    def test_drop_without_materialize_flagged(self):
        diagnostics = verify_physical_plan(
            staged_plan(drop_temp="tmp__ghost"), rules=["PV014"]
        )
        assert any("never materialized" in d.message for d in diagnostics)

    def test_drop_before_last_use_flagged(self):
        plan = staged_plan(pipeline_order=(0, 2, 1))
        diagnostics = verify_physical_plan(plan, rules=["PV014"])
        assert any("still used" in d.message for d in diagnostics)


class TestPV015:
    def test_over_budget_warns(self):
        ops = (
            Scan(op_id=0, table="r"),
            HashGroupBy(
                op_id=1,
                source=0,
                keys=("a",),
                output="t",
                est_mem_bytes=4096.0,
            ),
        )
        plan = PhysicalPlan(
            relation="r",
            operators=ops,
            pipelines=(
                PhysicalPipeline(ops=(0, 1), label="x", kind="group_by"),
            ),
            memory_budget_bytes=1024.0,
        )
        diagnostics = verify_physical_plan(plan, rules=["PV015"])
        [d] = diagnostics
        assert d.severity is Severity.WARNING
        assert "exceeds the plan budget" in d.message
        # Warnings do not raise.
        assert check_physical_plan(plan, rules=["PV015"]) == diagnostics

    def test_no_budget_no_findings(self):
        assert verify_physical_plan(staged_plan(), rules=["PV015"]) == []


class TestGate:
    def test_check_raises_on_error(self):
        with pytest.raises(PlanVerificationError, match="PV014"):
            check_physical_plan(staged_plan(drop=False))

    def test_lowered_plans_pass_all_rules(self, session):
        queries = containment_workload(["low", "mid", "txt"])
        result = session.optimize(queries)
        for parallelism in (1, 2):
            physical = session.lower(result.plan, parallelism=parallelism)
            assert check_physical_plan(physical) == []

    def test_naive_lowered_plan_passes(self, session):
        physical = session.lower(naive_plan("r", [fs("low"), fs("mid")]))
        assert check_physical_plan(physical) == []
