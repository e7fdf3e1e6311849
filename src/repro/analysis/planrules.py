"""The plan-invariant rule catalog (verifier Layer 1).

Each rule enforces one structural invariant of the paper's plan model
over a live :class:`~repro.core.plan.LogicalPlan`.  Rules are
registered in :data:`PLAN_RULES` with a stable id, the invariant in one
line, and the paper section that states it — the same triple the docs
render as the rule catalog.

Invariants that ``PlanNode`` / ``SubPlan`` already enforce at
construction (non-empty column sets, strict-subset edges, direct
answers the node can produce) have no rule: no buildable plan can
violate them.  The rules here check what a constructible plan can
still get wrong.

Rules never mutate the plan and never raise on invalid plans; they emit
:class:`~repro.analysis.diagnostics.Diagnostic` records.  Rules whose
invariant needs external context (a cost model, a storage limit) declare
it via ``requires`` and are skipped when the context does not carry it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from repro.analysis.diagnostics import DiagnosticCollector, Severity
from repro.core.columnset import format_columns
from repro.core.plan import LogicalPlan, NodeKind, SubPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.analysis.verifier import VerifyContext

CheckFn = Callable[[LogicalPlan, "VerifyContext", DiagnosticCollector], None]


@dataclass(frozen=True)
class PlanRule:
    """One verifier rule: id, invariant, provenance, and checker.

    Args:
        rule_id: stable identifier (``PV...``).
        name: short kebab-case name.
        invariant: the property being enforced, in one sentence.
        paper_section: where the paper states it.
        severity: severity of findings this rule emits.
        check: the rule body.
        requires: context attributes that must be non-None for the rule
            to run (e.g. ``('coster',)``).
    """

    rule_id: str
    name: str
    invariant: str
    paper_section: str
    severity: Severity
    check: CheckFn
    requires: tuple[str, ...] = ()


#: Ordered registry of every plan rule, keyed by rule id.
PLAN_RULES: dict[str, PlanRule] = {}


def plan_rule(
    rule_id: str,
    name: str,
    invariant: str,
    paper_section: str,
    severity: Severity = Severity.ERROR,
    requires: tuple[str, ...] = (),
) -> Callable[[CheckFn], CheckFn]:
    """Register a checker function as a plan rule."""

    def register(check: CheckFn) -> CheckFn:
        if rule_id in PLAN_RULES:
            raise ValueError(f"duplicate plan rule id {rule_id}")
        PLAN_RULES[rule_id] = PlanRule(
            rule_id, name, invariant, paper_section, severity, check, requires
        )
        return check

    return register


def _located(
    plan: LogicalPlan,
) -> Iterator[tuple[SubPlan | None, SubPlan, str]]:
    """Pre-order ``(parent, node, location)`` over every plan node.

    ``parent`` is None for sub-plan roots (computed from R); the
    location is the node's tree address, e.g. ``subplans[0].children[1]``.
    """

    def visit(parent, node, path):
        yield parent, node, path
        for i, child in enumerate(node.children):
            yield from visit(node, child, f"{path}.children[{i}]")

    for i, root in enumerate(plan.subplans):
        yield from visit(None, root, f"subplans[{i}]")


def _answered_by(node: SubPlan) -> set[frozenset[str]]:
    """Required queries this single node answers (not its subtree)."""
    answered = set(node.direct_answers)
    if node.node.kind is NodeKind.GROUP_BY and node.required:
        answered.add(node.columns)
    return answered


@plan_rule(
    "PV003",
    "required-coverage",
    "Every required input query is answered somewhere in the plan.",
    "§3.1",
)
def check_required_coverage(plan, ctx, out) -> None:
    missing = plan.required - plan.answered_queries()
    for query in sorted(missing, key=sorted):
        out.emit(
            "PV003",
            Severity.ERROR,
            "plan",
            f"plan does not answer required query {format_columns(query)}",
            hint="add a node (or direct answer) covering the query",
        )


@plan_rule(
    "PV004",
    "answer-consistency",
    "Required marks and direct answers name only input queries.",
    "§3.1",
)
def check_answer_consistency(plan, ctx, out) -> None:
    for _, node, path in _located(plan):
        if node.required and node.columns not in plan.required:
            out.emit(
                "PV004",
                Severity.ERROR,
                path,
                f"node {node.node.describe()} is marked required but "
                f"{format_columns(node.columns)} is not an input query",
                hint="clear the required flag or add the query to the input",
            )
        for query in sorted(node.direct_answers, key=sorted):
            if query not in plan.required:
                out.emit(
                    "PV004",
                    Severity.ERROR,
                    path,
                    f"{format_columns(query)} is answered directly but is "
                    "not an input query",
                )


@plan_rule(
    "PV005",
    "answer-uniqueness",
    "No required query is answered by more than one node.",
    "§4.1",
)
def check_answer_uniqueness(plan, ctx, out) -> None:
    producers: dict[frozenset[str], list[str]] = {}
    for _, node, path in _located(plan):
        for query in _answered_by(node):
            producers.setdefault(query, []).append(path)
    for query, paths in sorted(producers.items(), key=lambda kv: sorted(kv[0])):
        if len(paths) > 1:
            out.emit(
                "PV005",
                Severity.ERROR,
                ", ".join(paths),
                f"required query {format_columns(query)} is answered "
                f"{len(paths)} times",
                hint="SubPlanMerge keeps exactly one producer per query",
            )


@plan_rule(
    "PV006",
    "spool-consistency",
    "CUBE / ROLLUP operators are leaves.",
    "§3.1, §7.1",
)
def check_spool_consistency(plan, ctx, out) -> None:
    for _, node, path in _located(plan):
        kind = node.node.kind
        if kind in (NodeKind.CUBE, NodeKind.ROLLUP) and node.children:
            out.emit(
                "PV006",
                Severity.ERROR,
                path,
                f"{kind.value} node has {len(node.children)} "
                "children; operator nodes answer queries directly and "
                "must be leaves",
            )


@plan_rule(
    "PV007",
    "useless-subtree",
    "Every subtree answers at least one required query.",
    "§4.2",
    severity=Severity.WARNING,
)
def check_useless_subtree(plan, ctx, out) -> None:
    # Report only the topmost dead node of a dead subtree: a sub-plan
    # root whose whole subtree answers nothing.
    for i, root in enumerate(plan.subplans):
        if not root.answered_queries():
            out.emit(
                "PV007",
                Severity.WARNING,
                f"subplans[{i}]",
                f"subtree rooted at {root.node.describe()} answers no "
                "required query",
                hint="the hill climber never creates dead work; drop it",
            )


@plan_rule(
    "PV008",
    "rollup-order-coverage",
    "A ROLLUP order lists each of the node's columns exactly once; "
    "other kinds declare no order.",
    "§7.1",
)
def check_rollup_order(plan, ctx, out) -> None:
    for _, node, path in _located(plan):
        kind = node.node.kind
        order = node.node.rollup_order
        if kind is NodeKind.ROLLUP:
            if len(set(order)) != len(order) or frozenset(order) != node.columns:
                out.emit(
                    "PV008",
                    Severity.ERROR,
                    path,
                    f"ROLLUP order ({','.join(order)}) does not cover "
                    f"columns {format_columns(node.columns)} exactly once",
                    hint="the order must be a permutation of the columns",
                )
        elif order:
            out.emit(
                "PV008",
                Severity.ERROR,
                path,
                f"{kind.value} node declares a rollup_order",
                hint="only ROLLUP nodes carry a column order",
            )


@plan_rule(
    "PV009",
    "cube-width-cap",
    "No CUBE node is wider than the configured column cap.",
    "§7.1",
    requires=("cube_max_columns",),
)
def check_cube_width(plan, ctx, out) -> None:
    cap = ctx.cube_max_columns
    for _, node, path in _located(plan):
        if node.node.kind is NodeKind.CUBE and len(node.columns) > cap:
            out.emit(
                "PV009",
                Severity.ERROR,
                path,
                f"CUBE over {len(node.columns)} columns exceeds the "
                f"cap of {cap} (lattice is exponential in width)",
                hint="split the cube or raise cube_max_columns",
            )


@plan_rule(
    "PV010",
    "cost-monotonicity",
    "Computing a node from its parent never costs more than computing "
    "it from the base relation.",
    "§3.2, §4.2",
    severity=Severity.WARNING,
    requires=("coster",),
)
def check_cost_monotonicity(plan, ctx, out) -> None:
    coster = ctx.coster
    for parent, child, path in _located(plan):
        if parent is None:
            continue
        materialize = child.is_materialized
        via_parent = coster.edge_cost(parent.node, child.node, materialize)
        via_base = coster.edge_cost(None, child.node, materialize)
        if via_parent > via_base * (1.0 + ctx.epsilon) + ctx.epsilon:
            out.emit(
                "PV010",
                Severity.WARNING,
                path,
                f"edge {format_columns(parent.columns)} -> "
                f"{format_columns(child.columns)} costs {via_parent:.1f} "
                f"but the base relation offers {via_base:.1f}",
                hint="compute the node directly from the base relation",
            )


@plan_rule(
    "PV011",
    "storage-bound",
    "The minimum peak intermediate storage of every sub-plan is "
    "within the configured byte budget.",
    "§4.4.2",
    requires=("estimator", "max_storage_bytes"),
)
def check_storage_bound(plan, ctx, out) -> None:
    estimator = ctx.estimator
    limit = ctx.max_storage_bytes

    def size_of(node: SubPlan) -> float:
        if not node.is_materialized:
            return 0.0
        rows = estimator.rows(node.columns)
        return rows * estimator.row_width(node.columns)

    def storage(node: SubPlan) -> float:
        # The paper's Section 4.4.1 recursion.
        if not node.children:
            return size_of(node)
        own = size_of(node)
        breadth_first = own + sum(size_of(child) for child in node.children)
        depth_first = own + max(storage(child) for child in node.children)
        return min(breadth_first, depth_first)

    for i, root in enumerate(plan.subplans):
        peak = storage(root)
        if peak > limit:
            out.emit(
                "PV011",
                Severity.ERROR,
                f"subplans[{i}]",
                f"sub-plan needs at least {peak:.0f} bytes of temp "
                f"storage; the budget is {limit:.0f}",
                hint="lower fan-out or raise max_storage_bytes",
            )
