"""Pruning techniques for the GB-MQO search (Section 4.3).

Both are proven sound by the paper under the Cardinality cost model with
type-(b) merges over non-overlapping inputs, and used as heuristics
otherwise:

* **Subsumption-based pruning** (Section 4.3.1): do not merge sub-plans
  rooted at v_i, v_j when some other pair v_x, v_y satisfies
  (v_i ∪ v_j) ⊃ (v_x ∪ v_y) — it is never worse to merge the pair with
  the smaller union first.
* **Monotonicity-based pruning** (Section 4.3.2, Apriori-style): once
  merging v_i, v_j fails to reduce cost, never consider any pair whose
  union is a superset of v_i ∪ v_j.

Both prune :func:`eager_search`, the loop the paper measured, over
column sets encoded as integer bitmasks.  ``GbMqoOptimizer`` runs
neither: its bound-first costing spares more calls (EXPERIMENTS.md,
Figure 11).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.columnset import BitsetCodec
from repro.core.merge import subplan_merge
from repro.core.optimizer import EPSILON, GbMqoOptimizer, OptimizationResult
from repro.core.plan import LogicalPlan, SubPlan, naive_plan
from repro.obs.telemetry import SearchTelemetry


class MonotonicityPruner:
    """Tracks failed merge unions and prunes their supersets."""

    def __init__(self) -> None:
        self._failed: list[int] = []
        self.pairs_pruned = 0

    def record_failure(self, union_mask: int) -> None:
        """Remember that merging to ``union_mask`` did not pay off."""
        # Keep the failed set an antichain: drop supersets of the new
        # mask, skip insertion if a subset is already present.
        for mask in self._failed:
            if mask & union_mask == mask:
                return
        self._failed = [
            mask for mask in self._failed if union_mask & mask != union_mask
        ]
        self._failed.append(union_mask)

    def is_pruned(self, union_mask: int) -> bool:
        for mask in self._failed:
            if mask & union_mask == mask:
                self.pairs_pruned += 1
                return True
        return False

    @property
    def failed_unions(self) -> tuple[int, ...]:
        return tuple(self._failed)


def minimal_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-minimal antichain of a collection of bitmasks."""
    ordered = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    minimal: list[int] = []
    for mask in ordered:
        if not any(kept & mask == kept for kept in minimal):
            minimal.append(mask)
    return minimal


class SubsumptionPruner:
    """Per-iteration filter keeping only pairs with minimal unions.

    Given all candidate pair unions of the current iteration, a pair is
    pruned when another pair's union is a *strict* subset of its union.
    """

    def __init__(self) -> None:
        self.pairs_pruned = 0

    def allowed_unions(self, unions: Sequence[int]) -> set[int]:
        """Return the set of union masks that survive pruning: the
        inclusion-minimal ones (any other contains a minimal one)."""
        allowed = set(minimal_masks(unions))
        self.pairs_pruned += len(set(unions) - allowed)
        return allowed


def eager_search(
    optimizer: GbMqoOptimizer,
    relation: str,
    required: Iterable[frozenset[str]],
    *,
    subsumption: bool = False,
    monotonicity: bool = False,
) -> OptimizationResult:
    """Figure 5 as a full rescan, with the Section 4.3 pruners.

    A frozen transcription of the loop ``GbMqoOptimizer._search`` ran
    before it evaluated pairs incrementally and selected from a heap:
    every iteration rebuilds all pairs of live sub-plans, looks each one
    up in a per-pair memo, and takes the first strictly smaller delta in
    ``(id1, id2)`` order.  It shares the optimizer's coster, options and
    storage check, so only the search itself differs: unpruned, it is the
    production search's differential reference; pruned, Figure 11's
    setting.  Do not edit it to track the production loop.
    """
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
    monotonicity_pruner = MonotonicityPruner() if monotonicity else None
    subsumption_pruner = SubsumptionPruner() if subsumption else None

    forest = {}
    masks = {}
    next_id = 0
    for subplan in plan.subplans:
        forest[next_id] = subplan
        masks[next_id] = codec.encode(subplan.node.columns)
        next_id += 1

    pair_best: dict[frozenset[int], tuple[float, SubPlan | None]] = {}
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
            if delta >= -EPSILON:
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
        if subsumption_pruner is not None and pairs:
            unions = [masks[a] | masks[b] for a, b in pairs]
            allowed = subsumption_pruner.allowed_unions(unions)
            surviving = []
            for (a, b), union in zip(pairs, unions):
                if union in allowed:
                    surviving.append((a, b))
                else:
                    pruned_subsumption += 1
            pairs = surviving
        telemetry.pairs_considered += len(pairs)
        best: tuple[float, Any, Any, Any] = (0.0, None, None, None)
        for id1, id2 in pairs:
            union_mask = masks[id1] | masks[id2]
            if (
                monotonicity_pruner is not None
                and monotonicity_pruner.is_pruned(union_mask)
            ):
                pruned_monotonicity += 1
                continue
            delta, candidate = evaluate_pair(id1, id2)
            if candidate is None or delta >= -EPSILON:
                mergeable = all(
                    forest[i].node.kind.name == "GROUP_BY" for i in (id1, id2)
                )
                if monotonicity_pruner is not None and mergeable:
                    monotonicity_pruner.record_failure(union_mask)
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
