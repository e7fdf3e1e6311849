"""Cost-based planning of whole GROUPING SETS queries (Section 5.1).

This is the server-side integration story of the paper, end to end: a
GROUPING SETS query over a base relation — or over a join view — is
rewritten and optimized:

* over a base relation, the requested sets go straight to the GB-MQO
  optimizer and the result is assembled into the standard GROUPING SETS
  output shape (NULL padding + grp_tag);
* over a single-key equi-join whose grouping columns come from the left
  input, the Figure 8 rewrite pushes grouping below the join (each set
  extended with the join column, partial counts), and — the paper's
  point — *the pushed-down sets are themselves optimized by GB-MQO*,
  sharing intermediate results among them; the tagged union is joined
  with the right input and re-aggregated above.

Results are bit-identical to evaluating the unoptimized expression.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.optimizer import GbMqoOptimizer, OptimizationResult, OptimizerOptions
from repro.core.rewrites import (
    GroupingSetsExpr,
    JoinExpr,
    RelationExpr,
    RewriteError,
    SelectExpr,
    pad_and_union,
    require_count_star,
)
from repro.costmodel.base import PlanCoster
from repro.costmodel.engine_model import EngineCostModel
from repro.engine.aggregation import AggregateSpec, group_by
from repro.engine.catalog import Catalog
from repro.engine.executor import PlanExecutor
from repro.engine.join import hash_join
from repro.engine.metrics import ExecutionMetrics
from repro.engine.table import Table
from repro.stats.cardinality import (
    CardinalityEstimator,
    SampledCardinalityEstimator,
)


@dataclass
class PlannedGroupingSets:
    """Outcome of planning + executing one GROUPING SETS query."""

    strategy: str  # 'direct' or 'join_pushdown'
    table: Table  # the GROUPING SETS result (padded union + grp_tag)
    optimization: OptimizationResult
    metrics: ExecutionMetrics


def plan_grouping_sets(
    expr: GroupingSetsExpr,
    catalog: Catalog,
    estimator: CardinalityEstimator | None = None,
    options: OptimizerOptions | None = None,
) -> PlannedGroupingSets:
    """Optimize and execute a GROUPING SETS expression.

    Args:
        expr: the query; its child must be a base relation or a
            single-key equi-join of base relations.
        catalog: catalog holding the referenced relations.
        estimator: cardinality source for the grouped relation; a
            sampled estimator is built when omitted.
        options: GB-MQO knobs.

    Raises:
        RewriteError: when the expression shape is unsupported.
    """
    if expr.count_column is not None:
        raise RewriteError("plan_grouping_sets expects COUNT(*) queries")
    if isinstance(expr.child, SelectExpr):
        return _plan_selection(expr, catalog, options)
    if isinstance(expr.child, RelationExpr):
        return _plan_direct(expr, catalog, estimator, options)
    if isinstance(expr.child, JoinExpr):
        return _plan_join_pushdown(expr, catalog, estimator, options)
    raise RewriteError(
        "unsupported child expression: "
        f"{type(expr.child).__name__} (expected Relation, Select or Join)"
    )


def _make_optimizer(
    catalog: Catalog,
    relation: str,
    estimator: CardinalityEstimator | None,
    options: OptimizerOptions | None,
) -> GbMqoOptimizer:
    if estimator is None:
        estimator = SampledCardinalityEstimator(catalog.get(relation))
    model = EngineCostModel(estimator, catalog=catalog, base_table=relation)
    return GbMqoOptimizer(PlanCoster(model), options)


def _plan_selection(
    expr: GroupingSetsExpr,
    catalog: Catalog,
    options: OptimizerOptions | None,
) -> PlannedGroupingSets:
    """GROUPING SETS over a selection (Section 5.1.1, 'selection can be
    pushed below the GROUPING SETS').

    The selection is evaluated once into a filtered base relation
    (statistics are rebuilt for it — the filtered cardinalities are
    what matters for planning), then the direct path applies.
    """
    select = expr.child
    if not isinstance(select.child, RelationExpr):
        raise RewriteError("selection must be over a base relation")
    filtered = select.evaluate(catalog)
    filtered_name = f"{select.child.name}__filtered"
    scratch = Catalog()
    scratch.add_table(filtered.rename(filtered_name))
    scratch.get(filtered_name).build_dictionaries()
    inner = GroupingSetsExpr(
        RelationExpr(filtered_name), expr.sets, aggregates=expr.aggregates
    )
    planned = _plan_direct(inner, scratch, None, options)
    return PlannedGroupingSets(
        strategy="selection_pushdown",
        table=planned.table,
        optimization=planned.optimization,
        metrics=planned.metrics,
    )


def _plan_direct(
    expr: GroupingSetsExpr,
    catalog: Catalog,
    estimator: CardinalityEstimator | None,
    options: OptimizerOptions | None,
) -> PlannedGroupingSets:
    relation = expr.child.name
    queries = [frozenset(s) for s in expr.sets]
    optimizer = _make_optimizer(catalog, relation, estimator, options)
    optimization = optimizer.optimize(relation, queries)
    executor = PlanExecutor(catalog, relation, list(expr.aggregates))
    run = executor.execute(optimization.plan)
    ordered = [
        (tuple(sorted(s)), run.results[frozenset(s)]) for s in expr.sets
    ]
    table = pad_and_union(catalog.get(relation), ordered, metrics=run.metrics)
    return PlannedGroupingSets(
        strategy="direct",
        table=table,
        optimization=optimization,
        metrics=run.metrics,
    )


def _plan_join_pushdown(
    expr: GroupingSetsExpr,
    catalog: Catalog,
    estimator: CardinalityEstimator | None,
    options: OptimizerOptions | None,
) -> PlannedGroupingSets:
    require_count_star(expr)
    join = expr.child
    if not isinstance(join.left, RelationExpr) or not isinstance(
        join.right, RelationExpr
    ):
        raise RewriteError("join inputs must be base relations")
    if len(join.on) != 1:
        raise RewriteError("only single-key equi-joins are supported")
    left = catalog.get(join.left.name)
    right = catalog.get(join.right.name)
    left_key, right_key = join.on[0]
    for columns in expr.sets:
        for column in columns:
            if column not in left:
                raise RewriteError(
                    f"grouping column {column!r} is not in the left input"
                )

    # Figure 8: extend each set with the join column and let GB-MQO
    # share work among the pushed-down groupings.
    pushed_sets = [
        frozenset(tuple(columns) + (left_key,)) for columns in expr.sets
    ]
    optimizer = _make_optimizer(catalog, left.name, estimator, options)
    optimization = optimizer.optimize(left.name, pushed_sets)
    executor = PlanExecutor(catalog, left.name)
    run = executor.execute(optimization.plan)
    metrics = run.metrics

    # Tagged union below the join; the Grp-Tag keeps each upper Group By
    # on its own rows.
    padded = pad_and_union(
        left,
        [
            (tuple(sorted(pushed)), run.results[pushed])
            for pushed in dict.fromkeys(pushed_sets)
        ],
        metrics=metrics,
    )
    joined = hash_join(
        padded, right, [(left_key, right_key)], metrics=metrics
    )

    results = []
    for original, pushed in zip(expr.sets, pushed_sets):
        tag = ",".join(sorted(pushed))
        mine = joined.take(joined["grp_tag"] == tag.encode())
        upper = group_by(
            mine,
            sorted(original),
            [AggregateSpec("sum", "cnt", "cnt")],
            name="upper_" + "_".join(sorted(original)),
            metrics=metrics,
        )
        results.append((tuple(sorted(original)), upper))
    table = pad_and_union(left, results, metrics=metrics)
    return PlannedGroupingSets(
        strategy="join_pushdown",
        table=table,
        optimization=optimization,
        metrics=metrics,
    )
