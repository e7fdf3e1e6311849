"""Test helpers: synthetic cardinality estimators for optimizer tests,
and the full-rescan reference of the Figure 5 search."""

from __future__ import annotations


class FakeEstimator:
    """Cardinality oracle with explicit per-set overrides.

    Args:
        base_rows: |R|.
        singles: cardinality of each single column.
        overrides: explicit cardinalities for multi-column sets; sets
            not listed default to min(product of singles, base_rows).
    """

    def __init__(
        self,
        base_rows: int,
        singles: dict[str, float],
        overrides: dict[frozenset, float] | None = None,
    ) -> None:
        self._base_rows = base_rows
        self._singles = dict(singles)
        self._overrides = {
            frozenset(k): v for k, v in (overrides or {}).items()
        }

    @property
    def base_rows(self) -> int:
        return self._base_rows

    def rows(self, columns: frozenset) -> float:
        columns = frozenset(columns)
        if not columns:
            return 1.0
        if columns in self._overrides:
            return self._overrides[columns]
        product = 1.0
        for column in columns:
            product *= self._singles[column]
        return min(product, float(self._base_rows))

    def row_width(self, columns: frozenset) -> float:
        return 8.0 * len(columns) + 8.0


class SlackEstimator(FakeEstimator):
    """A ``FakeEstimator`` that can bound: its floor is a fixed fraction
    of the true cardinality — valid whatever the overrides are, and as
    loose as the search has to cope with (0.0 makes every pair look as
    good as a merge can be)."""

    def __init__(self, slack, *args):
        super().__init__(*args)
        self._slack = slack

    def rows_lower_bound(self, columns, known):
        return self.rows(columns) * self._slack


def reference_search(optimizer, relation, required):
    """Figure 5 as a full rescan: the reference for ``_search``.

    A frozen transcription of the loop ``GbMqoOptimizer._search`` ran
    before it evaluated pairs incrementally and selected from a heap:
    every iteration rebuilds all pairs of live sub-plans, looks each one
    up in a per-pair memo, and takes the first strictly smaller delta in
    ``(id1, id2)`` order.  It shares the optimizer's coster, options and
    storage check, so only the search itself is compared.  Do not edit
    it to track the production loop — that is what it checks.
    """
    from repro.core.columnset import BitsetCodec
    from repro.core.merge import subplan_merge
    from repro.core.optimizer import OptimizationResult
    from repro.core.plan import LogicalPlan, naive_plan
    from repro.core.pruning import MonotonicityPruner, SubsumptionPruner
    from repro.obs.telemetry import SearchTelemetry

    coster = optimizer.coster
    options = optimizer.options
    calls_before = coster.optimizer_calls
    telemetry = SearchTelemetry()
    plan = naive_plan(relation, required)
    required_sets = plan.required
    naive_cost = coster.plan_cost(plan)
    current_cost = naive_cost
    telemetry.best_cost_trajectory.append(naive_cost)
    merge_opts = options.merge_options()

    codec = BitsetCodec(
        sorted({column for query in required_sets for column in query})
    )
    monotonicity = MonotonicityPruner() if options.monotonicity_pruning else None
    subsumption = SubsumptionPruner() if options.subsumption_pruning else None

    forest = {}
    masks = {}
    next_id = 0
    for subplan in plan.subplans:
        forest[next_id] = subplan
        masks[next_id] = codec.encode(subplan.node.columns)
        next_id += 1

    pair_best = {}
    merges_evaluated = 0
    pruned_subsumption = 0
    pruned_monotonicity = 0
    iterations = 0
    merge_log = []

    def evaluate_pair(id1, id2):
        nonlocal merges_evaluated
        key = frozenset((id1, id2))
        if key in pair_best:
            return pair_best[key]
        merges_evaluated += 1
        telemetry.pair_evaluations += 1
        p1, p2 = forest[id1], forest[id2]
        best_delta, best_candidate = 0.0, None
        for candidate in subplan_merge(p1, p2, required_sets, merge_opts):
            telemetry.candidates_considered += 1
            if not optimizer._storage_admissible(candidate):
                telemetry.candidates_rejected_storage += 1
                continue
            delta = (
                coster.subplan_cost(candidate)
                - coster.subplan_cost(p1)
                - coster.subplan_cost(p2)
            )
            if delta >= -options.epsilon:
                telemetry.candidates_rejected_cost += 1
            if delta < best_delta:
                best_delta, best_candidate = delta, candidate
        pair_best[key] = (best_delta, best_candidate)
        return pair_best[key]

    while True:
        iterations += 1
        ids = sorted(forest)
        pairs = [
            (ids[i], ids[j])
            for i in range(len(ids))
            for j in range(i + 1, len(ids))
        ]
        if subsumption is not None and pairs:
            unions = [masks[a] | masks[b] for a, b in pairs]
            allowed = subsumption.allowed_unions(unions)
            surviving = []
            for (a, b), union in zip(pairs, unions):
                if union in allowed:
                    surviving.append((a, b))
                else:
                    pruned_subsumption += 1
            pairs = surviving
        telemetry.pairs_considered += len(pairs)
        best = (0.0, None, None, None)
        for id1, id2 in pairs:
            union_mask = masks[id1] | masks[id2]
            if monotonicity is not None and monotonicity.is_pruned(union_mask):
                pruned_monotonicity += 1
                continue
            delta, candidate = evaluate_pair(id1, id2)
            if candidate is None or delta >= -options.epsilon:
                mergeable = all(
                    forest[i].node.kind.name == "GROUP_BY" for i in (id1, id2)
                )
                if monotonicity is not None and mergeable:
                    monotonicity.record_failure(union_mask)
                continue
            if delta < best[0]:
                best = (delta, candidate, id1, id2)
        delta, candidate, id1, id2 = best
        if candidate is None:
            break
        telemetry.merges_accepted += 1
        current_cost += delta
        telemetry.best_cost_trajectory.append(current_cost)
        merge_log.append(
            f"merged {forest[id1].node.describe()} + "
            f"{forest[id2].node.describe()} -> "
            f"{candidate.node.describe()} (delta {delta:.1f})"
        )
        for stale in (id1, id2):
            del forest[stale]
            del masks[stale]
        stale_keys = [key for key in pair_best if id1 in key or id2 in key]
        for key in stale_keys:
            del pair_best[key]
        forest[next_id] = candidate
        masks[next_id] = codec.encode(candidate.node.columns)
        next_id += 1

    final = LogicalPlan(
        relation, tuple(forest[i] for i in sorted(forest)), required_sets
    )
    final.validate()
    telemetry.pairs_pruned_subsumption = pruned_subsumption
    telemetry.pairs_pruned_monotonicity = pruned_monotonicity
    cost = coster.plan_cost(final)
    telemetry.cost_model_calls = coster.optimizer_calls - calls_before
    result = OptimizationResult(
        plan=final,
        cost=cost,
        naive_cost=naive_cost,
        optimization_seconds=0.0,
        telemetry=telemetry,
        merge_log=merge_log,
    )
    # The counters the result derives from telemetry match the ones
    # this loop keeps by hand.
    assert result.iterations == iterations
    assert result.merges_evaluated == merges_evaluated
    return result
