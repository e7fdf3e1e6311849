"""Optimizer search telemetry (what the hill climb actually did).

The paper reports only the number of optimizer calls; everything else
about the Figure 5 search — how many candidate merges were generated,
how many were rejected by the cost model vs. pruned before costing, how
the best plan cost fell per iteration — was invisible.
:class:`SearchTelemetry` is the structured record of one optimization
run, populated unconditionally (plain integer increments, no clock
reads) and exposed as ``OptimizationResult.telemetry``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SearchTelemetry:
    """Counters and the cost trajectory of one GB-MQO search.

    Attributes:
        pairs_considered: live sub-plan pairs summed over all iterations
            (a pair counts again in every iteration it is live, although
            it is costed only once).
        pair_evaluations: pairs whose merges were enumerated and costed
            exactly (each pair at most once per run).
        pairs_refused_by_bound: pairs never costed exactly because a
            floor under their delta, made from statistics that already
            existed, showed no gain — at either rung.  The rest of the
            gap between pairs walked and ``pair_evaluations`` is floors
            that promised a gain but whose pair was merged away before
            they surfaced, and pairs with a CUBE / ROLLUP root, which
            have no candidates and are not priced at all.
        pairs_refused_at_root: those of ``pairs_refused_by_bound`` that
            the first, cheapest floor refused: the edge from R to the
            union of the two roots alone, no candidate built.
        full_floors_computed: pairs whose floor over every candidate was
            computed, because their root floor promised a gain and
            surfaced in the heap.
        candidates_considered: candidate merges produced by
            ``subplan_merge`` and offered to the cost model.
        candidates_rejected_cost: candidates costed but not improving
            (delta >= 0 against their operands).
        candidates_rejected_storage: candidates dropped by the Section
            4.4.2 storage bound before costing.
        merges_accepted: merges actually applied (= iterations that
            changed the plan).
        pairs_pruned_subsumption: pairs skipped by Section 4.3.1.
        pairs_pruned_monotonicity: pairs skipped by Section 4.3.2.  Only
            the eager loop (:func:`repro.core.pruning.eager_search`)
            prunes; the production search leaves both at 0.
        cost_model_calls: distinct exact costing requests reaching the
            model during the run (the paper's optimizer-call metric);
            floors are not counted.
        best_cost_trajectory: total plan cost after each iteration,
            starting from the naive cost; monotonically non-increasing.
    """

    pairs_considered: int = 0
    pair_evaluations: int = 0
    pairs_refused_by_bound: int = 0
    pairs_refused_at_root: int = 0
    full_floors_computed: int = 0
    candidates_considered: int = 0
    candidates_rejected_cost: int = 0
    candidates_rejected_storage: int = 0
    merges_accepted: int = 0
    pairs_pruned_subsumption: int = 0
    pairs_pruned_monotonicity: int = 0
    cost_model_calls: int = 0
    best_cost_trajectory: list[float] = field(default_factory=list)

    @property
    def initial_cost(self) -> float:
        return self.best_cost_trajectory[0] if self.best_cost_trajectory else 0.0

    @property
    def final_cost(self) -> float:
        return self.best_cost_trajectory[-1] if self.best_cost_trajectory else 0.0

    def as_dict(self) -> dict[str, object]:
        """Flat, JSON-ready snapshot (trajectory included verbatim)."""
        return {
            "pairs_considered": self.pairs_considered,
            "pair_evaluations": self.pair_evaluations,
            "pairs_refused_by_bound": self.pairs_refused_by_bound,
            "pairs_refused_at_root": self.pairs_refused_at_root,
            "full_floors_computed": self.full_floors_computed,
            "candidates_considered": self.candidates_considered,
            "candidates_rejected_cost": self.candidates_rejected_cost,
            "candidates_rejected_storage": self.candidates_rejected_storage,
            "merges_accepted": self.merges_accepted,
            "pairs_pruned_subsumption": self.pairs_pruned_subsumption,
            "pairs_pruned_monotonicity": self.pairs_pruned_monotonicity,
            "cost_model_calls": self.cost_model_calls,
            "best_cost_trajectory": list(self.best_cost_trajectory),
        }

    def summary(self) -> str:
        """One-line human summary for experiment notes and CLI output."""
        parts = [
            f"{self.merges_accepted} merges accepted / "
            f"{self.candidates_considered} candidates",
            f"{self.cost_model_calls} cost-model calls",
            f"{self.candidates_rejected_cost} rejected by cost",
        ]
        if self.pairs_refused_by_bound or self.full_floors_computed:
            parts.append(
                f"{self.pairs_refused_by_bound} pairs refused by bound "
                f"({self.pairs_refused_at_root} at the root edge), "
                f"{self.full_floors_computed} full floors"
            )
        pruned = self.pairs_pruned_subsumption + self.pairs_pruned_monotonicity
        if pruned:
            parts.append(f"{pruned} pairs pruned")
        if self.best_cost_trajectory:
            parts.append(
                f"cost {self.initial_cost:,.0f} -> {self.final_cost:,.0f}"
            )
        return ", ".join(parts)
