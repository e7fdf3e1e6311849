"""One provoked violation per plan-verifier rule, plus driver behavior.

Every violation is a plan the tests build: the rules check what a
constructible ``LogicalPlan`` can still get wrong (the constructors
reject the rest).
"""

import pytest

from repro.analysis import (
    PLAN_RULES,
    PlanVerificationError,
    STRUCTURAL_RULES,
    Severity,
    VerifyContext,
    check_plan,
    verify_plan,
)
from repro.core.optimizer import GbMqoOptimizer, OptimizerOptions
from repro.core.plan import LogicalPlan, NodeKind, PlanError, PlanNode, SubPlan
from repro.costmodel.base import PlanCoster
from repro.costmodel.cardinality import CardinalityCostModel
from tests.core.support import FakeEstimator


def fs(*columns):
    return frozenset(columns)


def plan_of(subplans, required):
    return LogicalPlan("R", tuple(subplans), frozenset(required))


def rules_fired(diagnostics):
    return {d.rule for d in diagnostics}


class TestRuleViolations:
    """Each rule catches its invariant violation (acceptance criterion)."""

    def test_pv003_required_query_unanswered(self):
        plan = plan_of([SubPlan.leaf(fs("a"))], [fs("a"), fs("b")])
        diagnostics = verify_plan(plan)
        assert rules_fired(diagnostics) == {"PV003"}
        [d] = diagnostics
        assert d.severity is Severity.ERROR
        assert "(b)" in d.message

    def test_pv004_required_mark_without_input_query(self):
        parent = SubPlan(
            PlanNode(fs("a", "b")), (SubPlan.leaf(fs("a")),), required=True
        )
        plan = plan_of([parent], [fs("a", "b")])
        diagnostics = verify_plan(plan)
        [d] = [d for d in diagnostics if d.rule == "PV004"]
        assert d.location == "subplans[0].children[0]"
        assert "is not an input query" in d.message

    def test_pv004_direct_answer_not_input_query(self):
        cube = SubPlan(
            PlanNode(fs("a", "b"), NodeKind.CUBE),
            direct_answers=frozenset([fs("a")]),
        )
        plan = plan_of([cube, SubPlan.leaf(fs("b"))], [fs("b")])
        assert "PV004" in rules_fired(verify_plan(plan))

    def test_pv005_query_answered_twice(self):
        plan = plan_of(
            [
                SubPlan.leaf(fs("a")),
                SubPlan(PlanNode(fs("a", "b")), (SubPlan.leaf(fs("a")),)),
            ],
            [fs("a")],
        )
        [d] = [d for d in verify_plan(plan) if d.rule == "PV005"]
        assert d.location == "subplans[0], subplans[1].children[0]"

    def test_pv006_cube_with_children(self):
        cube = SubPlan(
            PlanNode(fs("a", "b"), NodeKind.CUBE),
            (SubPlan.leaf(fs("b")),),
            direct_answers=frozenset([fs("a")]),
        )
        plan = plan_of([cube], [fs("a"), fs("b")])
        assert "PV006" in rules_fired(verify_plan(plan))

    def test_pv007_dead_subtree_is_warning(self):
        plan = plan_of(
            [SubPlan.leaf(fs("a")), SubPlan.leaf(fs("b"), required=False)],
            [fs("a")],
        )
        diagnostics = verify_plan(plan)
        [d] = [d for d in diagnostics if d.rule == "PV007"]
        assert d.severity is Severity.WARNING
        assert d.location == "subplans[1]"

    def test_pv008_rollup_order_mismatch(self):
        rollup = SubPlan(
            PlanNode(fs("a", "b"), NodeKind.ROLLUP, ("a", "b", "a")),
            direct_answers=frozenset([fs("a")]),
        )
        plan = plan_of([rollup], [fs("a")])
        assert "PV008" in rules_fired(verify_plan(plan))

    def test_pv008_group_by_with_rollup_order(self):
        leaf = SubPlan(PlanNode(fs("a"), rollup_order=("a",)), (), True)
        plan = plan_of([leaf], [fs("a")])
        assert "PV008" in rules_fired(verify_plan(plan))

    def test_pv009_cube_wider_than_cap(self):
        cube = SubPlan(
            PlanNode(fs("a", "b", "c", "d"), NodeKind.CUBE),
            direct_answers=frozenset([fs("a")]),
        )
        plan = plan_of([cube], [fs("a")])
        context = VerifyContext(cube_max_columns=3)
        assert "PV009" in rules_fired(verify_plan(plan, context))
        # Without a cap in context the rule is skipped entirely.
        assert "PV009" not in rules_fired(verify_plan(plan))

    def test_pv010_edge_costlier_than_base(self):
        # (a,b) is almost as large as R, so scanning it for (a) costs
        # nearly |R| — but under the Cardinality model it is still
        # cheaper than R itself, so build a pathological estimator where
        # the intermediate is *larger* than the base relation.
        estimator = FakeEstimator(
            1_000, {"a": 10.0, "b": 10.0}, {fs("a", "b"): 5_000.0}
        )
        coster = PlanCoster(CardinalityCostModel(estimator))
        plan = LogicalPlan(
            "R",
            (
                SubPlan(
                    PlanNode(fs("a", "b")),
                    (SubPlan.leaf(fs("a")),),
                    required=True,
                ),
            ),
            frozenset([fs("a"), fs("a", "b")]),
        )
        diagnostics = verify_plan(plan, VerifyContext(coster=coster))
        [d] = [d for d in diagnostics if d.rule == "PV010"]
        assert d.severity is Severity.WARNING

    def test_pv011_storage_over_budget(self):
        estimator = FakeEstimator(10_000, {"a": 100.0, "b": 100.0})
        plan = LogicalPlan(
            "R",
            (
                SubPlan(
                    PlanNode(fs("a", "b")),
                    (SubPlan.leaf(fs("a")), SubPlan.leaf(fs("b"))),
                    required=False,
                ),
            ),
            frozenset([fs("a"), fs("b")]),
        )
        tight = VerifyContext(estimator=estimator, max_storage_bytes=10.0)
        assert "PV011" in rules_fired(verify_plan(plan, tight))
        roomy = VerifyContext(estimator=estimator, max_storage_bytes=1e12)
        assert "PV011" not in rules_fired(verify_plan(plan, roomy))


class TestDriver:
    def test_valid_plan_is_clean(self):
        plan = LogicalPlan(
            "R",
            (
                SubPlan(
                    PlanNode(fs("a", "b")),
                    (SubPlan.leaf(fs("a")), SubPlan.leaf(fs("b"))),
                    required=True,
                ),
            ),
            frozenset([fs("a"), fs("b"), fs("a", "b")]),
        )
        assert verify_plan(plan) == []

    def test_check_plan_raises_plan_error_subclass(self):
        plan = LogicalPlan("R", (SubPlan.leaf(fs("a")),), frozenset([fs("b")]))
        with pytest.raises(PlanVerificationError) as excinfo:
            check_plan(plan, rules=STRUCTURAL_RULES)
        assert isinstance(excinfo.value, PlanError)
        assert "PV003" in str(excinfo.value)
        assert any(d.rule == "PV003" for d in excinfo.value.diagnostics)

    def test_warnings_do_not_raise(self):
        plan = LogicalPlan(
            "R",
            (SubPlan.leaf(fs("a")), SubPlan.leaf(fs("b"), required=False)),
            frozenset([fs("a")]),
        )
        diagnostics = check_plan(plan)
        assert {d.rule for d in diagnostics} == {"PV007"}

    def test_rule_selection(self):
        plan = LogicalPlan("R", (SubPlan.leaf(fs("a")),), frozenset([fs("b")]))
        only_uniqueness = verify_plan(plan, rules=["PV005"])
        assert only_uniqueness == []

    def test_every_rule_documents_its_paper_section(self):
        for rule in PLAN_RULES.values():
            assert rule.paper_section.startswith("§")
            assert rule.invariant


class TestOptimizerDebugVerify:
    def test_debug_verify_accepts_optimizer_output(self):
        estimator = FakeEstimator(
            100_000, {"a": 10.0, "b": 20.0, "c": 4_000.0}
        )
        coster = PlanCoster(CardinalityCostModel(estimator))
        optimizer = GbMqoOptimizer(
            coster, OptimizerOptions(debug_verify=True)
        )
        result = optimizer.optimize(
            "R", [fs("a"), fs("b"), fs("a", "b"), fs("c")]
        )
        assert result.plan.answered_queries() == {
            fs("a"),
            fs("b"),
            fs("a", "b"),
            fs("c"),
        }

    def test_debug_verify_does_not_change_call_metric(self):
        queries = [fs("a"), fs("b"), fs("a", "b"), fs("c")]

        def run(debug_verify):
            estimator = FakeEstimator(
                100_000, {"a": 10.0, "b": 20.0, "c": 4_000.0}
            )
            coster = PlanCoster(CardinalityCostModel(estimator))
            optimizer = GbMqoOptimizer(
                coster, OptimizerOptions(debug_verify=debug_verify)
            )
            return optimizer.optimize("R", queries).optimizer_calls

        assert run(True) == run(False)
