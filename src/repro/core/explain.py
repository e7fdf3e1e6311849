"""EXPLAIN and EXPLAIN ANALYZE for logical plans.

Renders a plan the way a database EXPLAIN would — each node with its
estimated rows, row width, the cost of the edge that computes it, and
whether it is spooled — so a user can see *why* the optimizer chose
what it chose.  Given the spans of an execution of the same plan, the
same walk also lines up what the engine actually did (rows produced,
bytes moved, wall time, physical operator and regime) and the per-node
*q-error* — ``max(est/actual, actual/est)`` on row counts, the standard
cardinality-fidelity measure.

Tracing is read-only: the analyzed execution produces bit-identical
results and deterministic ``work`` counters to a plain ``execute()``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.plan import LogicalPlan, SubPlan
from repro.costmodel.base import PlanCoster
from repro.obs.tracer import Span
from repro.stats.cardinality import CardinalityEstimator

if TYPE_CHECKING:  # import cycle guard: the executor imports core.plan
    from repro.engine.executor import ExecutionResult
    from repro.physical.plan import PhysicalPlan

#: Span name the executor gives each per-node compute step.
NODE_SPAN = "execute.node"

#: Physical operators that identify how a node was actually computed.
_GROUPING_OPS = (
    "hash_group_by",
    "sort_group_by",
    "reaggregate",
    "cube_expand",
    "rollup_expand",
)


def q_error(estimated: float, actual: float) -> float:
    """The q-error of a cardinality estimate (always >= 1)."""
    estimated = max(estimated, 1e-12)
    actual = max(actual, 1e-12)
    return max(estimated / actual, actual / estimated)


@dataclass(frozen=True)
class ExplainedNode:
    """One plan node: optimizer estimates, and engine actuals if it ran.

    The ``actual_*`` fields are None for a plain EXPLAIN.  ``operator``
    and ``regime`` come from the physical operator that computed the
    node (``hash_group_by``/``sort_group_by``/``reaggregate``/...;
    regime ``hash``, ``sort`` or ``morsel``) — empty when the span
    carried no operator detail (e.g. a replayed legacy trace).
    """

    label: str
    depth: int
    est_rows: float
    est_width: float
    est_cost: float
    materialized: bool
    required: bool
    actual_rows: int | None = None
    actual_bytes: int | None = None
    actual_seconds: float | None = None
    operator: str = ""
    regime: str = ""

    @property
    def q_error(self) -> float | None:
        """Row-count q-error (None for a node that was not executed)."""
        if self.actual_rows is None:
            return None
        return q_error(self.est_rows, self.actual_rows)

    def render(self) -> str:
        indent = "  " * self.depth
        flags = []
        if self.materialized:
            flags.append("spool")
        if self.required:
            flags.append("required")
        flag_text = f" [{', '.join(flags)}]" if flags else ""
        head = f"{indent}{self.label}{flag_text}  "
        if self.actual_rows is None:
            return (
                f"{head}rows={self.est_rows:,.0f} "
                f"width={self.est_width:.0f}B cost={self.est_cost:,.0f}"
            )
        return (
            f"{head}est rows={self.est_rows:,.0f} "
            f"actual rows={self.actual_rows:,} "
            f"(q-error {self.q_error:.2f})  "
            f"est cost={self.est_cost:,.0f} "
            f"actual bytes={self.actual_bytes:,} "
            f"time={self.actual_seconds * 1e3:.2f} ms"
        )


@dataclass
class PlanExplanation:
    """Nodes in execution order plus totals.

    ``execution`` and ``physical`` are the run whose actuals the nodes
    carry and the physical plan that run interpreted; both are None for
    a plain EXPLAIN.
    """

    relation: str
    base_rows: int
    nodes: list[ExplainedNode]
    total_cost: float
    execution: "ExecutionResult | None" = None
    physical: "PhysicalPlan | None" = None

    @property
    def max_q_error(self) -> float:
        return max(
            (n.q_error for n in self.nodes if n.q_error is not None),
            default=1.0,
        )

    @property
    def mean_q_error(self) -> float:
        errors = [n.q_error for n in self.nodes if n.q_error is not None]
        return sum(errors) / len(errors) if errors else 1.0

    def render(self) -> str:
        body = [node.render() for node in self.nodes]
        if self.execution is None:
            return "\n".join(
                [
                    f"{self.relation}  rows={self.base_rows:,}",
                    *body,
                    f"total estimated cost: {self.total_cost:,.0f}",
                ]
            )
        return "\n".join(
            [
                f"{self.relation}  rows={self.base_rows:,}  (EXPLAIN ANALYZE)",
                *body,
                f"totals: est cost={self.total_cost:,.0f}  "
                f"work={self.execution.metrics.work:,} bytes  "
                f"wall={self.execution.wall_seconds:.3f} s  "
                f"q-error mean={self.mean_q_error:.2f} "
                f"max={self.max_q_error:.2f}",
            ]
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form for tooling and trace sinks."""
        payload: dict[str, object] = {
            "relation": self.relation,
            "base_rows": self.base_rows,
            "total_cost": self.total_cost,
            "nodes": [
                {**asdict(node), "q_error": node.q_error}
                for node in self.nodes
            ],
        }
        if self.execution is not None:
            payload.update(
                total_work=self.execution.metrics.work,
                wall_seconds=self.execution.wall_seconds,
                mean_q_error=self.mean_q_error,
                max_q_error=self.max_q_error,
            )
        return payload


def explain_plan(
    plan: LogicalPlan,
    coster: PlanCoster,
    estimator: CardinalityEstimator,
    execution: "ExecutionResult | None" = None,
    spans: Sequence[Span] = (),
    physical: "PhysicalPlan | None" = None,
) -> PlanExplanation:
    """Annotate every node of ``plan`` with estimates and edge costs.

    Args:
        plan: the logical plan to explain.
        coster: the coster that (or an equivalent of the one that)
            produced the plan; edge costs come from its model.
        estimator: cardinality source for row/width estimates.
        execution: result of a traced run of ``plan``; when given, every
            node also carries that run's actuals (EXPLAIN ANALYZE).
        spans: the spans that run recorded.  ``execute.node`` spans are
            matched to plan nodes by label, so serial and parallel runs
            analyze identically.
        physical: the physical plan that run interpreted.
    """
    node_spans: dict[str, list[Span]] = {}
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
        if span.name == NODE_SPAN:
            label = str(span.attributes.get("node", ""))
            node_spans.setdefault(label, []).append(span)

    def actuals(label: str) -> dict[str, object]:
        pending = node_spans.get(label)
        if not pending:
            return dict(actual_rows=0, actual_bytes=0, actual_seconds=0.0)
        span = pending.pop(0)
        operator, regime = "", ""
        for child in children.get(span.span_id, ()):
            op = child.name.removeprefix("execute.")
            if op in _GROUPING_OPS:
                operator = op
                regime = str(child.attributes.get("regime", ""))
                break
        return dict(
            actual_rows=int(span.attributes.get("rows_out", 0)),
            actual_bytes=int(span.attributes.get("bytes", 0)),
            actual_seconds=span.duration,
            operator=operator,
            regime=regime,
        )

    nodes: list[ExplainedNode] = []

    def walk(subplan: SubPlan, parent: SubPlan | None, depth: int) -> None:
        label = subplan.node.describe()
        nodes.append(
            ExplainedNode(
                label=label,
                depth=depth,
                est_rows=estimator.rows(subplan.node.columns),
                est_width=estimator.row_width(subplan.node.columns),
                est_cost=coster.edge_cost(
                    parent.node if parent is not None else None,
                    subplan.node,
                    subplan.is_materialized,
                ),
                materialized=subplan.is_materialized,
                required=bool(subplan.required or subplan.direct_answers),
                **(actuals(label) if execution is not None else {}),
            )
        )
        for child in subplan.children:
            walk(child, subplan, depth + 1)

    for subplan in plan.subplans:
        walk(subplan, None, 1)
    return PlanExplanation(
        relation=plan.relation,
        base_rows=estimator.base_rows,
        nodes=nodes,
        total_cost=coster.plan_cost(plan),
        execution=execution,
        physical=physical,
    )
