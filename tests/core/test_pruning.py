"""Unit + property tests for the pruning techniques (Section 4.3).

The key properties are the paper's soundness claims: under the
Cardinality cost model, type-(b) merges only, and non-overlapping
(single-column) inputs, neither pruning technique changes the cost of
the plan the algorithm finds.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.optimizer import GbMqoOptimizer, OptimizerOptions
from repro.core.pruning import (
    MonotonicityPruner,
    SubsumptionPruner,
    eager_search,
    minimal_masks,
)
from repro.costmodel.base import PlanCoster
from repro.costmodel.cardinality import CardinalityCostModel
from tests.core.support import FakeEstimator


class TestMinimalMasks:
    def test_antichain(self):
        masks = [0b111, 0b011, 0b101, 0b001]
        assert minimal_masks(masks) == [0b001]

    def test_incomparable_kept(self):
        masks = [0b011, 0b101, 0b110]
        assert sorted(minimal_masks(masks)) == [0b011, 0b101, 0b110]

    def test_duplicates_collapse(self):
        assert minimal_masks([0b1, 0b1]) == [0b1]


class TestMonotonicityPruner:
    def test_superset_pruned(self):
        pruner = MonotonicityPruner()
        pruner.record_failure(0b011)
        assert pruner.is_pruned(0b111)
        assert not pruner.is_pruned(0b100)

    def test_failed_set_stays_antichain(self):
        pruner = MonotonicityPruner()
        pruner.record_failure(0b011)
        pruner.record_failure(0b111)  # superset, ignored
        assert pruner.failed_unions == (0b011,)
        pruner.record_failure(0b001)  # subset, replaces
        assert pruner.failed_unions == (0b001,)

    def test_exact_match_pruned(self):
        pruner = MonotonicityPruner()
        pruner.record_failure(0b010)
        assert pruner.is_pruned(0b010)


class TestSubsumptionPruner:
    def test_strict_supersets_removed(self):
        pruner = SubsumptionPruner()
        allowed = pruner.allowed_unions([0b011, 0b111, 0b101])
        assert 0b111 not in allowed
        assert 0b011 in allowed and 0b101 in allowed

    def test_equal_unions_allowed(self):
        pruner = SubsumptionPruner()
        allowed = pruner.allowed_unions([0b011, 0b011])
        assert allowed == {0b011}


class TestPruningMustNotFire:
    """Pruning must stay quiet when its precondition does not hold."""

    def test_subsumption_keeps_incomparable_unions(self):
        pruner = SubsumptionPruner()
        unions = [0b0011, 0b0101, 0b1001, 0b1100]
        assert pruner.allowed_unions(unions) == set(unions)
        assert pruner.pairs_pruned == 0

    def test_monotonicity_ignores_unrelated_unions(self):
        pruner = MonotonicityPruner()
        pruner.record_failure(0b011)
        # Neither a superset of the failed union: both must survive.
        assert not pruner.is_pruned(0b101)
        assert not pruner.is_pruned(0b100)
        assert pruner.pairs_pruned == 0

    def test_monotonicity_does_not_prune_subsets_of_failure(self):
        pruner = MonotonicityPruner()
        pruner.record_failure(0b111)
        assert not pruner.is_pruned(0b011)
        assert pruner.pairs_pruned == 0

    def test_optimizer_counts_no_subsumption_prunes_on_incomparable_pairs(self):
        # Three single-column queries: every first-round pair union has
        # exactly two columns, so no union strictly contains another and
        # subsumption has nothing to remove.
        singles = {"a": 4.0, "b": 6.0, "c": 9.0}
        plain = optimize_with(50_000, singles)
        pruned = optimize_with(50_000, singles, subsumption=True)
        assert pruned.pairs_pruned_subsumption == 0
        assert pruned.cost == pytest.approx(plain.cost)

    def test_optimizer_counts_no_monotonicity_prunes_when_merges_pay(self):
        # Tiny cardinalities relative to the base relation: every merge
        # reduces cost, no failure is ever recorded, nothing is pruned.
        singles = {"a": 2.0, "b": 3.0, "c": 4.0, "d": 5.0}
        result = optimize_with(200_000, singles, monotonicity=True)
        assert result.pairs_pruned_monotonicity == 0


# -- the paper's soundness claims, as properties ----------------------------


@st.composite
def single_column_instances(draw):
    n = draw(st.integers(3, 7))
    base = draw(st.integers(1_000, 100_000))
    cards = [
        draw(st.integers(2, max(2, base // draw(st.integers(2, 50)))))
        for _ in range(n)
    ]
    singles = {f"c{i}": float(card) for i, card in enumerate(cards)}
    return base, singles


def optimize_with(base, singles, eager=False, **pruners):
    """The production search, or with ``eager`` or any pruner the eager
    loop Section 4.3 prunes."""
    estimator = FakeEstimator(base, singles)
    coster = PlanCoster(CardinalityCostModel(estimator))
    options = OptimizerOptions(binary_tree_only=True)
    optimizer = GbMqoOptimizer(coster, options)
    queries = [frozenset([c]) for c in singles]
    if eager or pruners:
        return eager_search(optimizer, "R", queries, **pruners)
    return optimizer.optimize("R", queries)


@settings(max_examples=40, deadline=None)
@given(instance=single_column_instances())
def test_subsumption_pruning_sound(instance):
    base, singles = instance
    plain = optimize_with(base, singles)
    pruned = optimize_with(base, singles, subsumption=True)
    assert pruned.cost == pytest.approx(plain.cost)


@settings(max_examples=40, deadline=None)
@given(instance=single_column_instances())
def test_monotonicity_pruning_sound(instance):
    base, singles = instance
    plain = optimize_with(base, singles)
    pruned = optimize_with(base, singles, monotonicity=True)
    assert pruned.cost == pytest.approx(plain.cost)


@settings(max_examples=40, deadline=None)
@given(instance=single_column_instances())
def test_combined_pruning_sound(instance):
    base, singles = instance
    plain = optimize_with(base, singles)
    pruned = optimize_with(
        base, singles, subsumption=True, monotonicity=True
    )
    assert pruned.cost == pytest.approx(plain.cost)


@settings(max_examples=25, deadline=None)
@given(instance=single_column_instances())
def test_pruning_never_increases_calls(instance):
    """Section 4.3's claim is about the loop that costs every pair it
    walks (``eager_search``): pruned, it makes no more calls than
    unpruned.  The production search, which costs a pair only once its
    floor surfaces, stays under the unpruned count too."""
    base, singles = instance
    eager = optimize_with(base, singles, eager=True)
    plain = optimize_with(base, singles)
    pruned = optimize_with(
        base, singles, subsumption=True, monotonicity=True
    )
    assert plain.optimizer_calls <= eager.optimizer_calls
    assert pruned.optimizer_calls <= eager.optimizer_calls
