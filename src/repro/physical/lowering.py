"""Lowering: logical GB-MQO plans onto costed physical operators.

:func:`lower` maps every compute/drop step of a logical plan's schedule
onto a pipeline of :mod:`repro.physical.plan` operators:

* the access path is resolved exactly the way the executor used to —
  a covering non-clustered index narrower than the base row feeds an
  :class:`~repro.physical.plan.IndexScan`, everything else a
  :class:`~repro.physical.plan.Scan`;
* the grouping regime is *chosen from the cost model and column
  statistics*: hashing pays a domain-proportional setup, sorting a
  heavy per-row cost, so each node independently lowers to
  :class:`~repro.physical.plan.HashGroupBy` or
  :class:`~repro.physical.plan.SortGroupBy` (index-prefix scans lower
  to ordered ``SortGroupBy`` with ``input_sorted``);
* per-operator transient-memory estimates are threaded against the
  plan-wide ``memory_budget_bytes``: a hash grouping over budget is
  demoted to sort, and a sort grouping still over budget falls back to
  the engine's partitioned execution (``partitions > 1`` splits on the
  first sorted key, keeping concatenated output bit-identical);
* every grouping carries the aggregates its result needs: the
  workload's list, or — with per-query aggregates (Section 7.2) — the
  union of what its subtree's queries need;
* CUBE / ROLLUP nodes lower to a top grouping plus an expand operator,
  and materialized intermediates get explicit
  :class:`~repro.physical.plan.Materialize` / :class:`~repro.physical.
  plan.DropTemp` operators;
* how the plan runs is decided here, once: the pipelines follow the
  caller's one linear schedule in every mode, ``auto`` is priced from
  the plan's depth ranks, and a parallel plan's waves are those ranks
  mapped onto the pipelines.

Without an estimator the lowering is purely structural (hash-preferred
groupings, zero estimates) — the naive baseline path.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.cache import ResultCache, aggregate_signature
from repro.core.extensions import AggregatesByQuery, QueryAggregates
from repro.core.plan import LogicalPlan, NodeKind, PlanNode
from repro.core.scheduling import Step, depth_first_schedule, depth_ranks
from repro.costmodel.engine_model import (
    SORT_ROW_BYTES,
    EngineCostModel,
    default_execution_mode,
)
from repro.engine.aggregation import AggregateSpec
from repro.engine.catalog import Catalog
from repro.engine.executor import temp_name_for
from repro.engine.morsel import morsel_count
from repro.physical.plan import (
    EXECUTION_MODES,
    CacheRead,
    CubeExpand,
    DropTemp,
    HashGroupBy,
    IndexScan,
    Materialize,
    PhysicalPipeline,
    PhysicalPlan,
    PhysicalPlanError,
    PhysicalWave,
    PhysicalOperator,
    Reaggregate,
    RollupExpand,
    Scan,
    SortGroupBy,
)
from repro.stats.cardinality import CardinalityEstimator

#: Cap on the budget-fallback partition count (diminishing returns and
#: per-partition overhead beyond this).
MAX_PARTITIONS = 64


class _Lowering:
    """Mutable state of one lowering run."""

    def __init__(
        self,
        plan: LogicalPlan,
        catalog: Catalog,
        base_table: str,
        aggregates: QueryAggregates,
        use_indexes: bool,
        estimator: CardinalityEstimator | None,
        memory_budget_bytes: float | None,
        mode: str = "serial",
        parallelism: int = 1,
        result_cache: ResultCache | None = None,
    ) -> None:
        self.plan = plan
        self.catalog = catalog
        self.base_table = base_table
        self.aggregates = aggregates
        # Per-query aggregates: each node's subtree queries.
        self.subtree_queries: dict[PlanNode, set[frozenset[str]]] = {}
        if aggregates.shared is None:
            self.subtree_queries = {
                sub.node: sub.answered_queries()
                for sub in plan.iter_subplans()
            }
            unanswered = set(aggregates.needs) ^ plan.answered_queries()
            if unanswered:
                raise PhysicalPlanError(
                    f"the per-query aggregates and the plan's queries "
                    f"differ on {len(unanswered)} column set(s)"
                )
        self.use_indexes = use_indexes
        self.estimator = estimator
        self.budget = memory_budget_bytes
        self.mode = mode
        self.parallelism = parallelism
        self.result_cache = result_cache
        self.model: EngineCostModel | None = (
            EngineCostModel(
                estimator,
                catalog=catalog,
                base_table=base_table,
                use_indexes=use_indexes,
            )
            if estimator is not None
            else None
        )
        self.ops: list[PhysicalOperator] = []
        self.pipelines: list[PhysicalPipeline] = []
        self.materialized: dict[PlanNode, int] = {}
        self.depths: dict[PlanNode, int] = {}
        # (step action, node) -> index of the pipeline lowered for it.
        self.pipeline_of: dict[tuple[str, PlanNode], int] = {}

    # -- helpers ---------------------------------------------------------------

    def add_op(self, op: PhysicalOperator) -> int:
        self.ops.append(op)
        return op.op_id

    def next_id(self) -> int:
        return len(self.ops)

    def aggregates_for(self, node: PlanNode) -> tuple[AggregateSpec, ...]:
        """The aggregates ``node``'s groupings carry."""
        return self.aggregates.union(self.subtree_queries.get(node, ()))

    def est_rows(self, columns: frozenset[str]) -> float:
        if self.estimator is None:
            return 0.0
        return float(self.estimator.rows(columns))

    def base_rows(self) -> float:
        if self.estimator is not None:
            return float(self.estimator.base_rows)
        return float(self.catalog.get(self.base_table).num_rows)

    def choose_grouping(
        self, keys: Sequence[str], input_rows: float
    ) -> tuple[str, float, float, int]:
        """(strategy, est_cost, est_mem, partitions) for one grouping.

        Applies the budget fallback chain: hash -> sort when the hash
        state is over budget, then partitioned sort when even the sort
        state is.
        """
        if self.model is None:
            return "hash", 0.0, 0.0, 1
        choice = self.model.grouping_choice(keys, input_rows)
        strategy = choice.strategy
        cost = choice.hash_cost if strategy == "hash" else choice.sort_cost
        mem = choice.mem_bytes
        if (
            self.budget is not None
            and strategy == "hash"
            and mem > self.budget
        ):
            strategy = "sort"
            cost = choice.sort_cost
            mem = input_rows * SORT_ROW_BYTES
        partitions = 1
        if self.budget is not None and mem > self.budget and self.budget > 0:
            partitions = min(
                MAX_PARTITIONS, max(1, math.ceil(mem / self.budget))
            )
            mem = mem / partitions
        return strategy, cost, mem, partitions

    def morsels_for(self, input_rows: float, partitions: int) -> int:
        """Morsel count for one grouping under the lowering's mode.

        Only morsel-mode plans split inputs, and only for groupings the
        executor can run two-phase: partitioned (over-budget) groupings
        keep their own splitting scheme.
        """
        if self.mode != "morsel" or partitions != 1:
            return 1
        return morsel_count(int(input_rows), self.parallelism)

    # -- per-step lowering -----------------------------------------------------

    def lower_compute(self, step: Step) -> PhysicalPipeline:
        node = step.node
        keys = tuple(sorted(node.columns))
        temp = temp_name_for(node)
        depth = 0
        pipeline_ops: list[int] = []

        if step.parent is not None:
            depth = self.depths.get(step.parent, 0) + 1

        cached_id = self._lower_cache_hit(step, keys, temp, pipeline_ops)
        if cached_id is not None:
            source_desc = "cache"
            group_id = cached_id
        elif step.parent is None:
            source_desc = "R"
            input_rows = self.base_rows()
            group_id = self._lower_base_grouping(
                step, keys, temp, input_rows, pipeline_ops
            )
        else:
            source_desc = step.parent.describe()
            mat_id = self.materialized.get(step.parent)
            if mat_id is None:
                raise PhysicalPlanError(
                    f"intermediate {step.parent.describe()} was not "
                    "materialized before its children"
                )
            input_rows = self.est_rows(step.parent.columns)
            strategy, cost, mem, partitions = self.choose_grouping(
                keys, input_rows
            )
            group_id = self.add_op(
                Reaggregate(
                    op_id=self.next_id(),
                    source=mat_id,
                    keys=keys,
                    output=temp,
                    query=self._query_for(step),
                    aggregates=self.aggregates_for(node),
                    strategy=strategy,
                    partitions=partitions,
                    morsels=self.morsels_for(input_rows, partitions),
                    est_rows=self.est_rows(node.columns),
                    est_cost=cost,
                    est_mem_bytes=mem,
                )
            )
            pipeline_ops.append(group_id)
        self.depths[node] = depth

        if node.kind is NodeKind.CUBE:
            pipeline_ops.append(self._lower_cube_expand(step, group_id))
        elif node.kind is NodeKind.ROLLUP:
            pipeline_ops.append(self._lower_rollup_expand(step, group_id))

        if step.materialize:
            mat_cost = (
                self.model.materialize_op_cost(node.columns)
                if self.model is not None
                else 0.0
            )
            mat_id = self.add_op(
                Materialize(
                    op_id=self.next_id(),
                    source=group_id,
                    output=temp,
                    est_rows=self.est_rows(node.columns),
                    est_cost=mat_cost,
                )
            )
            pipeline_ops.append(mat_id)
            self.materialized[node] = mat_id

        return PhysicalPipeline(
            ops=tuple(pipeline_ops),
            label=node.describe(),
            kind=node.kind.value,
            source=source_desc,
            materialized=step.materialize,
            depth=depth,
        )

    def _lower_cache_hit(
        self,
        step: Step,
        keys: tuple[str, ...],
        temp: str,
        pipeline_ops: list[int],
    ) -> int | None:
        """Substitute a cache serve for this grouping, if one wins.

        Exact hits lower to a lone zero-cost :class:`CacheRead`;
        derivable hits (a strictly finer cached grouping) lower to
        ``CacheRead -> Reaggregate`` — but only when the cost model
        says reaggregating the cached rows beats recomputing from the
        node's ordinary input.  CUBE / ROLLUP nodes are never
        substituted (their expand operators need the live top
        grouping's pipeline shape).  Returns the id of the operator
        producing the grouping, or None on a miss.
        """
        cache = self.result_cache
        if cache is None or step.node.kind is not NodeKind.GROUP_BY:
            return None
        aggregates = self.aggregates_for(step.node)
        probe = cache.probe(
            self.base_table, keys, aggregate_signature(aggregates)
        )
        if probe is None or probe.entry.version != self.catalog.version(
            self.base_table
        ):
            # A stale entry only survives here when no invalidation
            # hook is registered; it is never served.
            cache.note_miss()
            return None
        entry = probe.entry
        if probe.exact:
            read_id = self.add_op(
                CacheRead(
                    op_id=self.next_id(),
                    table=self.base_table,
                    keys=tuple(sorted(entry.keys)),
                    fingerprint=entry.fingerprint,
                    version=entry.version,
                    output=temp,
                    derived=False,
                    query=self._query_for(step),
                    aggregates=aggregates,
                    est_rows=float(entry.rows),
                    est_cost=0.0,
                )
            )
            pipeline_ops.append(read_id)
            return read_id
        entry_rows = float(entry.rows)
        strategy, cost, mem, partitions = self.choose_grouping(
            keys, entry_rows
        )
        if not self._cache_wins(keys, entry_rows, cost):
            cache.note_miss()
            return None
        read_id = self.add_op(
            CacheRead(
                op_id=self.next_id(),
                table=self.base_table,
                keys=tuple(sorted(entry.keys)),
                fingerprint=entry.fingerprint,
                version=entry.version,
                output="tmp__" + "__".join(sorted(entry.keys)),
                derived=True,
                aggregates=aggregates,
                est_rows=entry_rows,
                est_cost=0.0,
            )
        )
        pipeline_ops.append(read_id)
        group_id = self.add_op(
            Reaggregate(
                op_id=self.next_id(),
                source=read_id,
                keys=keys,
                output=temp,
                query=self._query_for(step),
                aggregates=aggregates,
                strategy=strategy,
                partitions=partitions,
                est_rows=self.est_rows(step.node.columns),
                est_cost=cost,
                est_mem_bytes=mem,
            )
        )
        pipeline_ops.append(group_id)
        return group_id

    def _cache_wins(
        self, keys: tuple[str, ...], entry_rows: float, reagg_cost: float
    ) -> bool:
        """Does reaggregating ``entry_rows`` cached rows beat a cold run?

        Cold cost is the base-table scan plus the grouping the node
        would otherwise lower to.  Without a cost model the heuristic
        is row-count dominance: the cached intermediate must be smaller
        than the base relation.
        """
        input_rows = self.base_rows()
        if self.model is None:
            return entry_rows < input_rows
        base = self.catalog.get(self.base_table)
        cold_scan = self.model.scan_op_cost(
            input_rows, float(base.row_width())
        )
        _, cold_cost, _, _ = self.choose_grouping(keys, input_rows)
        return reagg_cost < cold_scan + cold_cost

    def _lower_base_grouping(
        self,
        step: Step,
        keys: tuple[str, ...],
        temp: str,
        input_rows: float,
        pipeline_ops: list[int],
    ) -> int:
        """Access path + grouping operator for a base-relation node."""
        base = self.catalog.get(self.base_table)
        aggregates = self.aggregates_for(step.node)
        index = None
        if self.use_indexes:
            needed = set(keys) | {
                a.column for a in aggregates if a.column is not None
            }
            candidate = self.catalog.find_covering_index(
                self.base_table, needed
            )
            if (
                candidate is not None
                and not candidate.clustered
                and candidate.scan_width(list(keys), base) <= base.row_width()
            ):
                index = candidate

        common = {
            "keys": keys,
            "output": temp,
            "query": self._query_for(step),
            "aggregates": aggregates,
            "est_rows": self.est_rows(step.node.columns),
        }
        if index is not None:
            sorted_prefix = index.is_prefix(list(keys))
            width = float(index.scan_width(list(keys), base))
            scan_id = self.add_op(
                IndexScan(
                    op_id=self.next_id(),
                    table=self.base_table,
                    index=index.name,
                    sorted_prefix=sorted_prefix,
                    est_rows=input_rows,
                    est_cost=(
                        self.model.scan_op_cost(input_rows, width)
                        if self.model is not None
                        else 0.0
                    ),
                )
            )
            pipeline_ops.append(scan_id)
            if sorted_prefix:
                cost = (
                    self.model.grouping_op_cost(
                        "sort", input_rows, keys, input_sorted=True
                    )
                    if self.model is not None
                    else 0.0
                )
                group_id = self.add_op(
                    SortGroupBy(
                        op_id=self.next_id(),
                        source=scan_id,
                        input_sorted=True,
                        est_cost=cost,
                        **common,
                    )
                )
            else:
                strategy, cost, mem, _ = self.choose_grouping(
                    keys, input_rows
                )
                cls = HashGroupBy if strategy == "hash" else SortGroupBy
                group_id = self.add_op(
                    cls(
                        op_id=self.next_id(),
                        source=scan_id,
                        est_cost=cost,
                        est_mem_bytes=mem,
                        **common,
                    )
                )
            pipeline_ops.append(group_id)
            return group_id

        width = float(base.row_width())
        scan_id = self.add_op(
            Scan(
                op_id=self.next_id(),
                table=self.base_table,
                est_rows=input_rows,
                est_cost=(
                    self.model.scan_op_cost(input_rows, width)
                    if self.model is not None
                    else 0.0
                ),
            )
        )
        pipeline_ops.append(scan_id)
        strategy, cost, mem, partitions = self.choose_grouping(
            keys, input_rows
        )
        cls = HashGroupBy if strategy == "hash" else SortGroupBy
        group_id = self.add_op(
            cls(
                op_id=self.next_id(),
                source=scan_id,
                partitions=partitions,
                morsels=self.morsels_for(input_rows, partitions),
                est_cost=cost,
                est_mem_bytes=mem,
                **common,
            )
        )
        pipeline_ops.append(group_id)
        return group_id

    def _query_for(self, step: Step) -> tuple[str, ...] | None:
        """The required query the top grouping answers directly."""
        if step.node.kind is NodeKind.GROUP_BY:
            return tuple(sorted(step.node.columns)) if step.required else None
        if step.node.columns in step.direct_answers:
            return tuple(sorted(step.node.columns))
        return None

    def _lower_cube_expand(self, step: Step, group_id: int) -> int:
        queries = tuple(
            tuple(sorted(query))
            for query in sorted(step.direct_answers, key=sorted)
            if query != step.node.columns
        )
        cost = 0.0
        rows = 0.0
        if self.model is not None:
            top = PlanNode(step.node.columns)
            for query in queries:
                cost += self.model.group_by_cost(top, frozenset(query), False)
                rows += self.est_rows(frozenset(query))
        return self.add_op(
            CubeExpand(
                op_id=self.next_id(),
                source=group_id,
                queries=queries,
                est_rows=rows,
                est_cost=cost,
            )
        )

    def _lower_rollup_expand(self, step: Step, group_id: int) -> int:
        order = step.node.rollup_order
        answers = tuple(
            tuple(sorted(order[:i]))
            for i in range(len(order) - 1, 0, -1)
            if frozenset(order[:i]) in step.direct_answers
        )
        cost = 0.0
        rows = 0.0
        if self.model is not None:
            for i in range(len(order) - 1, 0, -1):
                upper = PlanNode(frozenset(order[: i + 1]))
                cost += self.model.group_by_cost(
                    upper, frozenset(order[:i]), False
                )
                rows += self.est_rows(frozenset(order[:i]))
        return self.add_op(
            RollupExpand(
                op_id=self.next_id(),
                source=group_id,
                order=tuple(order),
                answers=answers,
                est_rows=rows,
                est_cost=cost,
            )
        )

    def lower_drop(self, step: Step) -> PhysicalPipeline:
        if step.node not in self.materialized:
            raise PhysicalPlanError(
                f"drop of {step.node.describe()} without a prior "
                "materialization"
            )
        drop_id = self.add_op(
            DropTemp(op_id=self.next_id(), temp=temp_name_for(step.node))
        )
        return PhysicalPipeline(
            ops=(drop_id,),
            label=step.node.describe(),
            kind="drop",
            depth=self.depths.get(step.node, 0),
        )

    def lower_step(self, step: Step) -> PhysicalPipeline:
        if step.action == "compute":
            pipeline = self.lower_compute(step)
        elif step.action == "drop":
            pipeline = self.lower_drop(step)
        else:
            raise PhysicalPlanError(f"unknown step action {step.action!r}")
        self.pipeline_of[(step.action, step.node)] = len(self.pipelines)
        self.pipelines.append(pipeline)
        return pipeline

    # -- how the plan runs -----------------------------------------------------

    def choose_mode(self, requested: str) -> tuple[str, str]:
        """(mode, reason) the plan runs under.

        A forced mode passes through.  ``auto`` runs serial with one
        worker; otherwise the cost model's :meth:`~repro.costmodel.
        engine_model.EngineCostModel.execution_mode_choice` prices the
        plan as serial and as wavefront and picks the cheaper — serial
        below its row and grouping floors and under a memory budget, so
        parallel execution never regresses small workloads.  Without
        an estimator only the floors decide.
        """
        if requested != "auto":
            return requested, "forced"
        if self.parallelism <= 1:
            return "serial", "one worker"
        if self.model is not None:
            choice = self.model.execution_mode_choice(
                self.plan, self.parallelism, self.budget
            )
            return choice.mode, choice.reason
        if self.budget is not None:
            return "serial", "a memory budget and no statistics"
        rows = self.catalog.get(self.base_table).num_rows
        nodes = self.plan.node_count()
        return default_execution_mode(rows, nodes, self.parallelism), (
            f"no statistics: {rows} base rows, {nodes} groupings "
            "against the parallel floors"
        )

    def rank_waves(self) -> tuple[PhysicalWave, ...]:
        """The plan's depth ranks as waves over the lowered pipelines:
        wave d computes rank d and drops rank d-1's materialized nodes,
        whose children rank d holds."""
        ranks = depth_ranks(self.plan)
        waves = []
        for depth, steps in enumerate(ranks):
            earlier = ranks[depth - 1] if depth else ()
            waves.append(
                PhysicalWave(
                    depth,
                    tuple(self.index_of("compute", s.node) for s in steps),
                    tuple(
                        self.index_of("drop", s.node)
                        for s in earlier
                        if s.materialize
                    ),
                )
            )
        return tuple(waves)

    def index_of(self, action: str, node: PlanNode) -> int:
        index = self.pipeline_of.get((action, node))
        if index is None:
            raise PhysicalPlanError(
                f"the schedule has no {action} step for {node.describe()}"
            )
        return index


def lower(
    plan: LogicalPlan,
    *,
    catalog: Catalog,
    base_table: str,
    aggregates: Sequence[AggregateSpec] | AggregatesByQuery,
    use_indexes: bool = True,
    estimator: CardinalityEstimator | None = None,
    memory_budget_bytes: float | None = None,
    steps: Sequence[Step] | None = None,
    mode: str = "serial",
    parallelism: int = 1,
    result_cache: ResultCache | None = None,
) -> PhysicalPlan:
    """Lower a logical plan to a :class:`PhysicalPlan`, and decide how
    it runs.

    Args:
        plan: the logical plan.
        catalog: catalog holding the base relation (access-path and
            index decisions bind to its current state).
        base_table: name of R.
        aggregates: the aggregate list every query computes, or each
            query's own list by column set (Section 7.2; see
            :class:`~repro.core.extensions.QueryAggregates`).  Decides
            what each grouping carries, covering-index resolution and
            the cache signature.
        use_indexes: allow covering-index access paths.
        estimator: column statistics the lowering builds its
            :class:`EngineCostModel` from, for the hash-vs-sort choice,
            operator estimates and the ``auto`` mode price; None lowers
            structurally (hash-preferred groupings, zero estimates).
        memory_budget_bytes: plan-wide transient-memory budget; grouping
            operators estimated over it are demoted hash -> sort ->
            partitioned execution.
        steps: the linear schedule whose order the pipelines follow in
            every mode; None derives depth-first order.
        mode: ``auto`` or one of
            :data:`~repro.physical.plan.EXECUTION_MODES`.  ``auto``
            resolves to serial or wavefront (:meth:`_Lowering.
            choose_mode`).  ``serial`` runs ``steps`` as one wave per
            compute step (:func:`~repro.physical.plan.linear_waves`);
            ``wavefront`` and ``morsel`` run the plan's depth ranks
            (:func:`~repro.core.scheduling.depth_ranks`) as waves;
            ``morsel`` additionally splits grouping inputs into
            row-range morsels sized from ``parallelism``.
        parallelism: worker count ``auto`` prices and the morsel split
            targets.
        result_cache: semantic result cache to probe for exact and
            derivable hits; None (the default) lowers cache-unaware —
            bit-identical to the pre-cache behavior.
    """
    if mode != "auto" and mode not in EXECUTION_MODES:
        raise PhysicalPlanError(
            f"unknown execution mode {mode!r}; expected 'auto' or one of "
            f"{EXECUTION_MODES}"
        )
    lowering = _Lowering(
        plan,
        catalog,
        base_table,
        QueryAggregates(aggregates),
        use_indexes,
        estimator,
        memory_budget_bytes,
        mode=mode,
        parallelism=parallelism,
        result_cache=result_cache,
    )
    for step in depth_first_schedule(plan) if steps is None else steps:
        lowering.lower_step(step)
    for subplan in plan.iter_subplans():
        lowering.index_of("compute", subplan.node)
    mode, reason = lowering.choose_mode(mode)
    return PhysicalPlan(
        relation=plan.relation,
        operators=tuple(lowering.ops),
        pipelines=tuple(lowering.pipelines),
        # Empty: the plan builds the linear waves.
        waves=() if mode == "serial" else lowering.rank_waves(),
        memory_budget_bytes=memory_budget_bytes,
        mode=mode,
        mode_reason=reason,
    )
