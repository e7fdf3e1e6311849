"""Unit tests for the GB-MQO hill-climbing optimizer (Figure 5)."""

import pytest

from repro.core.optimizer import GbMqoOptimizer, OptimizerOptions
from repro.core.pruning import eager_search
from repro.costmodel.base import PlanCoster
from repro.costmodel.cardinality import CardinalityCostModel
from tests.core.support import FakeEstimator


def fs(*cols):
    return frozenset(cols)


def make_optimizer(estimator, options=None):
    coster = PlanCoster(CardinalityCostModel(estimator))
    return GbMqoOptimizer(coster, options)


class TestBasicBehaviour:
    def test_profitable_merge_found(self):
        # |R|=1000; a,b tiny -> merging (a),(b) under (a,b) saves a scan:
        # naive 2000; merged 1000 + 2*|ab| = 1000 + 2*50.
        estimator = FakeEstimator(1000, {"a": 5, "b": 10})
        optimizer = make_optimizer(estimator)
        result = optimizer.optimize("R", [fs("a"), fs("b")])
        assert result.cost < result.naive_cost
        assert len(result.plan.subplans) == 1
        root = result.plan.subplans[0]
        assert root.node.columns == fs("a", "b")

    def test_unprofitable_merge_rejected(self):
        # |ab| close to |R| -> merging costs more than it saves.
        estimator = FakeEstimator(
            1000, {"a": 900, "b": 900}, {fs("a", "b"): 1000}
        )
        optimizer = make_optimizer(estimator)
        result = optimizer.optimize("R", [fs("a"), fs("b")])
        assert result.cost == result.naive_cost
        assert len(result.plan.subplans) == 2

    def test_never_worse_than_naive(self):
        estimator = FakeEstimator(
            500, {"a": 3, "b": 400, "c": 7, "d": 450}
        )
        optimizer = make_optimizer(estimator)
        result = optimizer.optimize(
            "R", [fs("a"), fs("b"), fs("c"), fs("d")]
        )
        assert result.cost <= result.naive_cost
        result.plan.validate()

    def test_plan_validates_and_answers_everything(self):
        estimator = FakeEstimator(
            2000, {c: 4 for c in "abcdef"}
        )
        optimizer = make_optimizer(estimator)
        queries = [fs(c) for c in "abcdef"]
        result = optimizer.optimize("R", queries)
        assert result.plan.answered_queries() == set(queries)

    def test_overlapping_queries_subsume(self):
        estimator = FakeEstimator(1000, {"a": 10, "b": 10})
        optimizer = make_optimizer(estimator)
        result = optimizer.optimize("R", [fs("a"), fs("a", "b")])
        # (a) should be computed from (a,b), not from R.
        assert len(result.plan.subplans) == 1
        root = result.plan.subplans[0]
        assert root.node.columns == fs("a", "b")
        assert root.required

    def test_merge_log_records_steps(self):
        estimator = FakeEstimator(1000, {"a": 2, "b": 2})
        optimizer = make_optimizer(estimator)
        result = optimizer.optimize("R", [fs("a"), fs("b")])
        assert len(result.merge_log) == result.plan.node_count() - 2

    def test_iterations_and_calls_counted(self):
        estimator = FakeEstimator(1000, {"a": 2, "b": 2, "c": 2})
        optimizer = make_optimizer(estimator)
        result = optimizer.optimize("R", [fs("a"), fs("b"), fs("c")])
        assert result.iterations >= 2
        assert result.optimizer_calls > 0

    def test_single_query_trivial(self):
        estimator = FakeEstimator(100, {"a": 5})
        optimizer = make_optimizer(estimator)
        result = optimizer.optimize("R", [fs("a")])
        assert result.cost == result.naive_cost == 100


class TestSearchSpaceOptions:
    def test_binary_tree_restriction(self):
        estimator = FakeEstimator(10_000, {c: 3 for c in "abcd"})
        options = OptimizerOptions(binary_tree_only=True)
        optimizer = make_optimizer(estimator, options)
        result = optimizer.optimize("R", [fs(c) for c in "abcd"])
        for subplan in result.plan.iter_subplans():
            assert len(subplan.children) in (0, 2)

    def test_binary_uses_fewer_calls(self):
        # Section 6.5 counted calls of the eager loop, which costs every
        # pair it walks: that is ``eager_search``.  The production
        # search costs a pair only when its floor surfaces, so its own
        # count is checked against the same eager one.
        estimator = FakeEstimator(10_000, {c: 3 for c in "abcdef"})
        queries = [fs(c) for c in "abcdef"]
        binary_options = OptimizerOptions(binary_tree_only=True)
        eager_full = eager_search(make_optimizer(estimator), "R", queries)
        eager_binary = eager_search(
            make_optimizer(estimator, binary_options), "R", queries
        )
        assert eager_binary.optimizer_calls <= eager_full.optimizer_calls
        binary = make_optimizer(estimator, binary_options).optimize(
            "R", queries
        )
        assert binary.optimizer_calls <= eager_binary.optimizer_calls

    def test_cube_enabled_can_beat_group_bys(self):
        # All subsets of (a,b) required: a CUBE can answer everything.
        estimator = FakeEstimator(1000, {"a": 3, "b": 3})
        options = OptimizerOptions(enable_cube=True)
        optimizer = make_optimizer(estimator, options)
        queries = [fs("a"), fs("b"), fs("a", "b")]
        result = optimizer.optimize("R", queries)
        result.plan.validate()
        assert result.cost <= result.naive_cost

    def test_storage_constraint_blocks_merges(self):
        estimator = FakeEstimator(1000, {"a": 5, "b": 10})
        # (a,b) temp would need 50 rows x 24B = 1200 bytes; cap below it.
        options = OptimizerOptions(max_storage_bytes=100.0)
        optimizer = make_optimizer(estimator, options)
        result = optimizer.optimize("R", [fs("a"), fs("b")])
        assert len(result.plan.subplans) == 2  # merge was inadmissible

    def test_storage_constraint_permits_small_merges(self):
        estimator = FakeEstimator(1000, {"a": 5, "b": 10})
        options = OptimizerOptions(max_storage_bytes=10_000.0)
        optimizer = make_optimizer(estimator, options)
        result = optimizer.optimize("R", [fs("a"), fs("b")])
        assert len(result.plan.subplans) == 1


class TestPruningIntegration:
    """Section 4.3 on the loop it prunes: ``eager_search``, which costs
    every pair it walks, as Section 6.6 measured."""

    def _speedup_config(self):
        singles = {c: 5 for c in "abcdefgh"}
        return FakeEstimator(100_000, singles), [fs(c) for c in "abcdefgh"]

    def _eager(self, estimator, queries, **pruners):
        optimizer = make_optimizer(
            estimator, OptimizerOptions(binary_tree_only=True)
        )
        return eager_search(optimizer, "R", queries, **pruners)

    def test_pruning_reduces_calls(self):
        estimator, queries = self._speedup_config()
        plain = self._eager(estimator, queries)
        pruned = self._eager(
            estimator, queries, subsumption=True, monotonicity=True
        )
        assert pruned.optimizer_calls <= plain.optimizer_calls

    def test_monotonicity_prunes_supersets_of_failures(self):
        # (a),(b) merge; (a,c) and (b,c) fail because c is near-key.
        # Next iteration the pair ((a,b), c) has union {a,b,c}, a
        # superset of the failed {a,c} -> pruned without evaluation.
        estimator = FakeEstimator(1000, {"a": 2, "b": 2, "c": 600})
        result = self._eager(
            estimator, [fs("a"), fs("b"), fs("c")], monotonicity=True
        )
        assert result.pairs_pruned_monotonicity > 0

    def test_subsumption_prunes_wider_unions(self):
        # Overlapping TC inputs: the paper's own example — with
        # sub-plans (a,b), (b,c), (c,d), the pair ((a,b),(c,d)) has
        # union (a,b,c,d), a strict superset of (a,b) ∪ (b,c).
        estimator = FakeEstimator(10_000, {c: 6 for c in "abcd"})
        result = self._eager(
            estimator,
            [fs("a", "b"), fs("b", "c"), fs("c", "d")],
            subsumption=True,
        )
        assert result.pairs_pruned_subsumption > 0

    def test_pruning_preserves_cost_for_uniform_singles(self):
        """The paper's soundness claims: with the Cardinality model,
        type-(b) merges and non-overlapping inputs, pruning does not
        change the found plan's cost."""
        estimator, queries = self._speedup_config()
        plain = make_optimizer(
            estimator, OptimizerOptions(binary_tree_only=True)
        ).optimize("R", queries)
        for pruners in (
            {"subsumption": True},
            {"monotonicity": True},
            {"subsumption": True, "monotonicity": True},
        ):
            pruned = self._eager(estimator, queries, **pruners)
            assert pruned.cost == pytest.approx(plain.cost)
