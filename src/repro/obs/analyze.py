"""EXPLAIN ANALYZE: estimated-vs-actual accounting per plan node.

Executes a :class:`~repro.core.plan.LogicalPlan` with per-node span
instrumentation and lines up, for every node, the optimizer's numbers
(estimated rows and edge cost from the cost model) against what the
engine actually did (rows produced, bytes moved, wall time), plus the
per-node *q-error* — ``max(est/actual, actual/est)`` on row counts, the
standard cardinality-fidelity measure.  This is the first direct
measurement of cost-model fidelity in the reproduction: the paper could
only compare end-to-end timings.

Tracing is read-only: the analyzed execution produces bit-identical
results and deterministic ``work`` counters to a plain ``execute()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.plan import LogicalPlan, SubPlan
from repro.obs.tracer import Span, Tracer

if TYPE_CHECKING:  # import cycle guard: the executor imports obs.tracer
    from repro.engine.executor import ExecutionResult

#: Span name the executor gives each per-node compute step.
NODE_SPAN = "execute.node"


def q_error(estimated: float, actual: float) -> float:
    """The q-error of a cardinality estimate (always >= 1)."""
    estimated = max(estimated, 1e-12)
    actual = max(actual, 1e-12)
    return max(estimated / actual, actual / estimated)


@dataclass(frozen=True)
class AnalyzedNode:
    """One plan node: optimizer estimates beside engine actuals.

    ``operator`` and ``regime`` come from the physical operator that
    computed the node (``hash_group_by``/``sort_group_by``/
    ``reaggregate``/...; regime ``hash`` or ``sort``) — empty when the
    span carried no operator detail (e.g. a replayed legacy trace).
    """

    label: str
    depth: int
    est_rows: float
    est_cost: float
    actual_rows: int
    actual_bytes: int
    actual_seconds: float
    q_error: float
    materialized: bool
    required: bool
    operator: str = ""
    regime: str = ""

    def render(self) -> str:
        indent = "  " * self.depth
        flags = []
        if self.materialized:
            flags.append("spool")
        if self.required:
            flags.append("required")
        flag_text = f" [{', '.join(flags)}]" if flags else ""
        return (
            f"{indent}{self.label}{flag_text}  "
            f"est rows={self.est_rows:,.0f} actual rows={self.actual_rows:,} "
            f"(q-error {self.q_error:.2f})  "
            f"est cost={self.est_cost:,.0f} actual bytes={self.actual_bytes:,} "
            f"time={self.actual_seconds * 1e3:.2f} ms"
        )


@dataclass
class PlanAnalysis:
    """The full EXPLAIN ANALYZE result for one plan execution."""

    relation: str
    base_rows: int
    nodes: list[AnalyzedNode]
    total_est_cost: float
    total_work: int
    wall_seconds: float
    execution: ExecutionResult

    @property
    def max_q_error(self) -> float:
        return max((node.q_error for node in self.nodes), default=1.0)

    @property
    def mean_q_error(self) -> float:
        if not self.nodes:
            return 1.0
        return sum(node.q_error for node in self.nodes) / len(self.nodes)

    def render(self) -> str:
        lines = [
            f"{self.relation}  rows={self.base_rows:,}  (EXPLAIN ANALYZE)",
            *[node.render() for node in self.nodes],
            (
                f"totals: est cost={self.total_est_cost:,.0f}  "
                f"work={self.total_work:,} bytes  "
                f"wall={self.wall_seconds:.3f} s  "
                f"q-error mean={self.mean_q_error:.2f} "
                f"max={self.max_q_error:.2f}"
            ),
        ]
        return "\n".join(lines)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form for tooling and trace sinks."""
        return {
            "relation": self.relation,
            "base_rows": self.base_rows,
            "total_est_cost": self.total_est_cost,
            "total_work": self.total_work,
            "wall_seconds": self.wall_seconds,
            "mean_q_error": self.mean_q_error,
            "max_q_error": self.max_q_error,
            "nodes": [
                {
                    "label": node.label,
                    "est_rows": node.est_rows,
                    "est_cost": node.est_cost,
                    "actual_rows": node.actual_rows,
                    "actual_bytes": node.actual_bytes,
                    "actual_seconds": node.actual_seconds,
                    "q_error": node.q_error,
                    "materialized": node.materialized,
                    "required": node.required,
                    "operator": node.operator,
                    "regime": node.regime,
                }
                for node in self.nodes
            ],
        }


def _node_spans_by_label(tracer: Tracer) -> dict[str, list[Span]]:
    by_label: dict[str, list[Span]] = {}
    for span in tracer.spans:
        if span.name == NODE_SPAN:
            label = str(span.attributes.get("node", ""))
            by_label.setdefault(label, []).append(span)
    return by_label


#: Physical operators that identify how a node was actually computed.
_GROUPING_OPS = (
    "hash_group_by",
    "sort_group_by",
    "reaggregate",
    "cube_expand",
    "rollup_expand",
)


def _operator_of(tracer: Tracer, span: Span) -> tuple[str, str]:
    """(operator, regime) from a node span's ``execute.<op>`` children."""
    for child in tracer.children_of(span):
        if not child.name.startswith("execute."):
            continue
        op = child.name[len("execute."):]
        if op in _GROUPING_OPS:
            return op, str(child.attributes.get("regime", ""))
    return "", ""


def analyze_execution(
    plan: LogicalPlan,
    execution: "ExecutionResult",
    tracer: Tracer,
    coster,
    estimator,
) -> PlanAnalysis:
    """Join a traced execution's actuals with the optimizer's estimates.

    The pure-analysis half of :func:`explain_analyze`: callers that
    already ran the plan under a recording tracer reuse it without
    paying a second execution.

    Args:
        plan: the logical plan that was executed.
        execution: the execution result (work counters, wall time).
        tracer: the tracer the execution recorded ``execute.node``
            spans into.
        coster: a :class:`~repro.costmodel.base.PlanCoster` over the
            model that costed the plan.
        estimator: the cardinality estimator behind the estimates.
    """
    by_label = _node_spans_by_label(tracer)

    nodes: list[AnalyzedNode] = []

    def walk(subplan: SubPlan, parent: SubPlan | None, depth: int) -> None:
        label = subplan.node.describe()
        parent_node = parent.node if parent is not None else None
        est_rows = estimator.rows(subplan.node.columns)
        est_cost = coster.edge_cost(
            parent_node, subplan.node, subplan.is_materialized
        )
        pending = by_label.get(label, [])
        span = pending.pop(0) if pending else None
        actual_rows = int(span.attributes.get("rows_out", 0)) if span else 0
        actual_bytes = int(span.attributes.get("bytes", 0)) if span else 0
        actual_seconds = span.duration if span else 0.0
        operator, regime = _operator_of(tracer, span) if span else ("", "")
        nodes.append(
            AnalyzedNode(
                label=label,
                depth=depth,
                est_rows=est_rows,
                est_cost=est_cost,
                actual_rows=actual_rows,
                actual_bytes=actual_bytes,
                actual_seconds=actual_seconds,
                q_error=q_error(est_rows, actual_rows),
                materialized=subplan.is_materialized,
                required=bool(subplan.required or subplan.direct_answers),
                operator=operator,
                regime=regime,
            )
        )
        for child in subplan.children:
            walk(child, subplan, depth + 1)

    for subplan in plan.subplans:
        walk(subplan, None, 1)
    return PlanAnalysis(
        relation=plan.relation,
        base_rows=estimator.base_rows,
        nodes=nodes,
        total_est_cost=coster.plan_cost(plan),
        total_work=execution.metrics.work,
        wall_seconds=execution.wall_seconds,
        execution=execution,
    )


def explain_analyze(
    session,
    plan: LogicalPlan,
    schedule: str = "storage",
    parallelism: int = 1,
    mode: str = "auto",
) -> PlanAnalysis:
    """Execute ``plan`` instrumented and join estimates with actuals.

    Args:
        session: a :class:`repro.api.Session` (duck-typed: needs
            ``coster()``, ``estimator``, and ``execute(plan, schedule=,
            tracer=, parallelism=, mode=)``) bound to the plan's base
            relation.
        plan: the logical plan to run.
        schedule: execution schedule, as in ``Session.execute``.
        parallelism: worker threads for parallel execution (node spans
            are matched by label, so analysis works identically either
            way).
        mode: execution mode, as in ``Session.execute`` (morsel-batched
            groupings report regime ``morsel``).
    """
    tracer = Tracer()
    execution = session.execute(
        plan, schedule=schedule, tracer=tracer, parallelism=parallelism,
        mode=mode,
    )
    return analyze_execution(
        plan, execution, tracer, session.coster(), session.estimator
    )
