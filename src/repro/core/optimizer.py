"""The GB-MQO hill-climbing optimizer (Section 4.2, Figure 5).

Starts from the naive plan (every required query computed directly from
R) and repeatedly applies the lowest-cost SubPlanMerge over all pairs of
current sub-plans until no merge reduces total plan cost.  Unlike prior
partial-cube work, the search DAG is never constructed: only the merges
actually considered create nodes, which is what lets the algorithm scale
to wide tables.

Per the paper's running-time analysis, merge evaluations are memoized so
only O(n^2) SubPlanMerge calls are made across the whole run: after a
merge, only pairs involving the newly created sub-plan are evaluated.

A pair is priced cheapest bound first, each from statistics that already
exist: the edge from R to the union of its roots alone, every pair of a
walk in one array expression (:meth:`PlanCoster.root_cost_bounds`), then
— only if that still promises a gain when the pair reaches the top of
the heap — a floor over every candidate
(:meth:`PlanCoster.subplan_cost_bound`), then, on the same condition,
the exact cost: optimizer calls, a new statistic for the
union.  The merges made are those of the eager loop, ties included.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.merge import MergeOptions, subplan_merge
from repro.core.plan import LogicalPlan, NodeKind, SubPlan, naive_plan
from repro.core.storage import estimator_size_fn, min_intermediate_storage
from repro.costmodel.base import PlanCoster, RootArrays
from repro.obs.clock import monotonic
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.telemetry import SearchTelemetry
from repro.obs.tracer import NOOP_TRACER, Tracer


#: Improvements smaller than this are treated as zero.
EPSILON = 1e-9

#: The rungs a heap entry of the search climbs, cheapest first.
_ROOT, _FULL, _EXACT = range(3)


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the GB-MQO search.

    Args:
        merge_types: SubPlanMerge shapes to consider (Figure 4).
        binary_tree_only: restrict to type (b) merges (Section 4.2's
            binary-tree search space); overrides ``merge_types``.
        enable_cube / enable_rollup: Section 7.1 operator alternatives.
        cube_max_columns: cap on CUBE candidate width.
        max_storage_bytes: Section 4.4.2 constraint on the minimum
            intermediate storage of any candidate sub-plan (None = off).
        debug_verify: run the full static verifier
            (:mod:`repro.analysis`) over the final plan as a
            post-condition and raise on any error-severity diagnostic.
            Off by default; meant for tests and debugging runs.
    """

    merge_types: tuple[str, ...] = ("a", "b", "c", "d")
    binary_tree_only: bool = False
    enable_cube: bool = False
    enable_rollup: bool = False
    cube_max_columns: int = 5
    max_storage_bytes: float | None = None
    debug_verify: bool = False

    def merge_options(self) -> MergeOptions:
        types = ("b",) if self.binary_tree_only else self.merge_types
        return MergeOptions(
            merge_types=types,
            enable_cube=self.enable_cube,
            enable_rollup=self.enable_rollup,
            cube_max_columns=self.cube_max_columns,
        )


@dataclass
class OptimizationResult:
    """Outcome of one GB-MQO run.

    ``telemetry`` owns the search counters (and the best-cost
    trajectory); the counter-named properties below are views of it.
    """

    plan: LogicalPlan
    cost: float
    naive_cost: float
    optimization_seconds: float
    telemetry: SearchTelemetry
    merge_log: list[str] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Hill-climbing iterations: one per accepted merge, plus the
        last, which found none."""
        return self.telemetry.merges_accepted + 1

    @property
    def merges_evaluated(self) -> int:
        return self.telemetry.pair_evaluations

    @property
    def pairs_pruned_subsumption(self) -> int:
        return self.telemetry.pairs_pruned_subsumption

    @property
    def pairs_pruned_monotonicity(self) -> int:
        return self.telemetry.pairs_pruned_monotonicity

    @property
    def optimizer_calls(self) -> int:
        """The paper's optimization-cost metric (Section 6.5)."""
        return self.telemetry.cost_model_calls

    @property
    def estimated_speedup(self) -> float:
        """Naive cost over plan cost, under the cost model."""
        if self.cost <= 0:
            return float("inf")
        return self.naive_cost / self.cost


class GbMqoOptimizer:
    """Figure 5's algorithm with memoized, bound-first pair merges.

    Args:
        coster: a :class:`PlanCoster` wrapping the cost model; its
            optimizer-call counter is the optimization-cost metric.
        options: search-space knobs.
        tracer: span tracer; when enabled, the run is wrapped in an
            ``optimize`` span with one ``optimize.iteration`` child per
            hill-climbing iteration.  Defaults to the no-op tracer, so
            an untraced run does no span work and allocates nothing.
        metrics: metrics registry; each run records run counts, search
            seconds, iterations, and estimated speedup labeled by
            relation.  Defaults to the process-wide registry (no-op
            unless enabled).
    """

    def __init__(
        self,
        coster: PlanCoster,
        options: OptimizerOptions | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._coster = coster
        self.options = options or OptimizerOptions()
        self._tracer = tracer or NOOP_TRACER
        self._metrics = metrics if metrics is not None else get_metrics()

    @property
    def coster(self) -> PlanCoster:
        return self._coster

    def optimize(
        self, relation: str, required: Iterable[frozenset[str]]
    ) -> OptimizationResult:
        """Find a logical plan for the required queries on ``relation``."""
        with self._tracer.span("optimize", relation=relation) as span:
            result = self._search(relation, required)
            span.set(
                queries=len(result.plan.required),
                iterations=result.iterations,
                cost=result.cost,
                naive_cost=result.naive_cost,
                optimizer_calls=result.optimizer_calls,
            )
        if self._metrics.enabled:
            self._metrics.inc("repro_optimizer_runs_total", relation=relation)
            self._metrics.observe(
                "repro_optimizer_seconds",
                result.optimization_seconds,
                relation=relation,
            )
            self._metrics.inc(
                "repro_optimizer_iterations_total",
                result.iterations,
                relation=relation,
            )
            if math.isfinite(result.estimated_speedup):
                self._metrics.observe(
                    "repro_optimizer_estimated_speedup",
                    result.estimated_speedup,
                    relation=relation,
                )
        return result

    def _search(
        self, relation: str, required: Iterable[frozenset[str]]
    ) -> OptimizationResult:
        """The Figure 5 hill climb (body of :meth:`optimize`)."""
        started = monotonic()
        calls_before = self._coster.optimizer_calls
        telemetry = SearchTelemetry()
        plan = naive_plan(relation, required)
        required_sets = plan.required
        naive_cost = self._coster.plan_cost(plan)
        current_cost = naive_cost
        telemetry.best_cost_trajectory.append(naive_cost)
        merge_opts = self.options.merge_options()

        # Forest state: sequence-numbered sub-plans and their costs (what
        # every delta of a pair subtracts), also kept as arrays by id, with
        # the roots' bitmasks, for the walks' root floors.
        forest: dict[int, SubPlan] = {}
        costs: dict[int, float] = {}
        roots = RootArrays(frozenset().union(*required_sets))
        next_id = 0

        def add(subplan: SubPlan) -> None:
            nonlocal next_id
            forest[next_id] = subplan
            costs[next_id] = self._coster.subplan_cost(subplan)
            roots.append(subplan.node.columns, costs[next_id])
            next_id += 1

        for subplan in plan.subplans:
            add(subplan)

        # Every pair is priced once, when it is first walked, by its root
        # floor: the materialised Group By on v1 | v2 from R, less the two
        # operands.  Every candidate of the pair sums that edge first and
        # then only non-negative terms — types (a)-(d) root a sub-plan
        # with children at the union; v1 <= v2 hangs p1 under p2's root; a
        # CUBE's edge starts with that Group By and so does a ROLLUP's (two
        # incomparable sets union to >= 2 columns); two roots on the same
        # columns are never both childless — and rounded addition and
        # subtraction are monotone, so as floats
        #     root floor <= delta_floor <= exact delta.
        # Pairs whose root floor promises a gain wait in a min-heap keyed
        # (delta, id1, id2) and climb one rung each time they surface:
        # _ROOT floor -> _FULL floor (delta_floor) -> _EXACT, pushed back
        # under the tighter key or dropped when it shows no gain.  When an
        # _EXACT entry surfaces every other key is no smaller and no true
        # delta is below its key, so it is the merge a scan of all pairs
        # in (id1, id2) order would pick.  Entries of merged-away
        # sub-plans are dropped lazily, on whatever rung they wait.
        profitable: list[tuple[float, int, int, int, SubPlan | None]] = []
        iterations = 0
        merge_log: list[str] = []
        coster = self._coster

        def delta_floor(id1: int, id2: int) -> float:
            """A value no candidate of the pair can cost less than, over
            all candidates (the storage bound only removes some)."""
            telemetry.full_floors_computed += 1
            p1, p2 = forest[id1], forest[id2]
            known = (p1.node.columns, p2.node.columns)
            floor = 0.0
            for candidate in subplan_merge(p1, p2, required_sets, merge_opts):
                delta = (
                    coster.subplan_cost_bound(candidate, known)
                    - costs[id1]
                    - costs[id2]
                )
                if delta < floor:
                    floor = delta
            return floor

        def evaluate_pair(id1: int, id2: int) -> None:
            """Cost the pair exactly; queue it if it is profitable."""
            telemetry.pair_evaluations += 1
            p1, p2 = forest[id1], forest[id2]
            best_delta, best_candidate = 0.0, None
            for candidate in subplan_merge(p1, p2, required_sets, merge_opts):
                telemetry.candidates_considered += 1
                if not self._storage_admissible(candidate):
                    telemetry.candidates_rejected_storage += 1
                    continue
                delta = coster.subplan_cost(candidate) - costs[id1] - costs[id2]
                if delta >= -EPSILON:
                    telemetry.candidates_rejected_cost += 1
                if delta < best_delta:
                    best_delta, best_candidate = delta, candidate
            if best_candidate is None or best_delta >= -EPSILON:
                return
            heapq.heappush(
                profitable, (best_delta, id1, id2, _EXACT, best_candidate)
            )

        while True:
            iterations += 1
            with self._tracer.span(
                "optimize.iteration", index=iterations
            ) as iteration_span:
                ids = sorted(forest)
                pair_count = len(ids) * (len(ids) - 1) // 2
                telemetry.pairs_considered += pair_count
                # A CUBE / ROLLUP root has no candidates and never merges
                # again: no bound is read for it.
                plain = np.array(
                    [i for i in ids if forest[i].node.kind is NodeKind.GROUP_BY],
                    dtype=np.int64,
                )
                # Each pair is walked once: every pair at first, then those
                # of the newest sub-plan (the highest id).  The rest wait in
                # the heap from an earlier walk.
                if iterations == 1:
                    first, second = np.triu_indices(len(plain), 1)
                    first, second = plain[first], plain[second]
                elif len(plain) and plain[-1] == ids[-1]:
                    first = plain[:-1]
                    second = np.full(len(first), ids[-1], dtype=np.int64)
                else:
                    first = second = plain[:0]
                if len(first):
                    # The pair's first price: no candidate built, no child
                    # edge read.
                    floors = (
                        coster.root_cost_bounds(roots, first, second)
                        - roots.costs[first]
                        - roots.costs[second]
                    )
                    promising = floors < -EPSILON
                    refused = len(floors) - int(np.count_nonzero(promising))
                    telemetry.pairs_refused_at_root += refused
                    telemetry.pairs_refused_by_bound += refused
                    for entry in zip(
                        floors[promising].tolist(),
                        first[promising].tolist(),
                        second[promising].tolist(),
                    ):
                        heapq.heappush(profitable, (*entry, _ROOT, None))

                # A popped entry is dropped for good when one side has been
                # merged away.
                best = None
                while profitable and best is None:
                    key, id1, id2, rung, candidate = heapq.heappop(profitable)
                    if id1 not in forest or id2 not in forest:
                        continue
                    if rung == _ROOT:
                        floor = delta_floor(id1, id2)
                        if floor >= -EPSILON:
                            telemetry.pairs_refused_by_bound += 1
                        else:
                            heapq.heappush(
                                profitable, (floor, id1, id2, _FULL, None)
                            )
                    elif rung == _FULL:
                        evaluate_pair(id1, id2)
                    else:
                        best = (key, id1, id2, candidate)
                iteration_span.set(
                    subplans=len(ids),
                    pairs=pair_count,
                    accepted=best is not None,
                )
                if best is None:
                    break
                delta, id1, id2, candidate = best
                telemetry.merges_accepted += 1
                current_cost += delta
                telemetry.best_cost_trajectory.append(current_cost)
                iteration_span.set(delta=delta, best_cost=current_cost)
                merge_log.append(
                    f"merged {forest[id1].node.describe()} + "
                    f"{forest[id2].node.describe()} -> "
                    f"{candidate.node.describe()} (delta {delta:.1f})"
                )
                for stale in (id1, id2):
                    del forest[stale]
                    del costs[stale]
                add(candidate)

        final = LogicalPlan(
            relation,
            tuple(forest[i] for i in sorted(forest)),
            required_sets,
        )
        final.validate()
        cost = self._coster.plan_cost(final)
        telemetry.cost_model_calls = self._coster.optimizer_calls - calls_before
        result = OptimizationResult(
            plan=final,
            cost=cost,
            naive_cost=naive_cost,
            optimization_seconds=monotonic() - started,
            telemetry=telemetry,
            merge_log=merge_log,
        )
        if self.options.debug_verify:
            # Post-condition: the full rule catalog, with cost / storage
            # context.  Runs after the call-count metric is captured so
            # verification never skews the paper's optimization-cost
            # numbers.
            self._debug_verify(final)
        return result

    def _debug_verify(self, plan: LogicalPlan) -> None:
        """Raise if the optimized plan violates any verifier invariant."""
        # Imported here: repro.analysis depends on repro.core.
        from repro.analysis.verifier import VerifyContext, check_plan

        context = VerifyContext(
            coster=self._coster,
            estimator=getattr(self._coster.model, "estimator", None),
            max_storage_bytes=self.options.max_storage_bytes,
            cube_max_columns=(
                self.options.cube_max_columns
                if self.options.enable_cube
                else None
            ),
            epsilon=EPSILON,
        )
        check_plan(plan, context)
        self._debug_verify_physical(plan)

    def _debug_verify_physical(self, plan: LogicalPlan) -> None:
        """Lower the chosen plan and run the dataflow rule catalog.

        Only possible when the cost model is physically bound (an
        :class:`~repro.costmodel.engine_model.EngineCostModel` with a
        catalog and base table); purely statistical models skip the
        cross-check.  In debug mode *any* finding is fatal — including
        the interval-containment warnings, which makes every verified
        optimization a consistency test between the cost model's
        ``est_rows`` and bounds derived from the same statistics.
        """
        from repro.analysis.dataflow import AnalysisContext
        from repro.analysis.physrules import verify_physical_plan
        from repro.analysis.verifier import PlanVerificationError

        model = self._coster.model
        catalog = getattr(model, "catalog", None)
        base_table = getattr(model, "base_table", None)
        if catalog is None or base_table is None:
            return
        from repro.engine.aggregation import AggregateSpec
        from repro.physical.lowering import lower

        physical = lower(
            plan,
            catalog=catalog,
            base_table=base_table,
            aggregates=[AggregateSpec.count_star("cnt")],
            use_indexes=getattr(model, "use_indexes", True),
            estimator=getattr(model, "estimator", None),
        )
        diagnostics = verify_physical_plan(
            physical,
            context=AnalysisContext(
                catalog=catalog,
                base_table=base_table,
                estimator=getattr(model, "estimator", None),
                epsilon=EPSILON,
            ),
        )
        if diagnostics:
            raise PlanVerificationError(diagnostics)

    def _storage_admissible(self, candidate: SubPlan) -> bool:
        limit = self.options.max_storage_bytes
        if limit is None:
            return True
        estimator = getattr(self._coster.model, "estimator", None)
        if estimator is None:
            return True
        size_of = estimator_size_fn(estimator)
        return min_intermediate_storage(candidate, size_of) <= limit
