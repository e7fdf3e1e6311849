"""Unit tests for plan schedules."""

from hypothesis import given, settings, strategies as st

from repro.core.plan import LogicalPlan, PlanNode, SubPlan, naive_plan
from repro.core.scheduling import (
    Step,
    depth_first_schedule,
    depth_ranks,
    peak_storage_of_schedule,
    storage_minimizing_schedule,
)
from repro.core.storage import min_intermediate_storage


def fs(*cols):
    return frozenset(cols)


def sample_plan():
    ab = SubPlan(
        PlanNode(fs("a", "b")),
        (SubPlan.leaf(fs("a")), SubPlan.leaf(fs("b"))),
    )
    return LogicalPlan("R", (ab, SubPlan.leaf(fs("c"))), frozenset(
        [fs("a"), fs("b"), fs("c")]
    ))


def schedule_invariants(steps):
    """Every schedule must satisfy these regardless of strategy."""
    live = set()
    computed = set()
    for step in steps:
        if step.action == "compute":
            if step.parent is not None:
                assert step.parent in live, "parent dropped too early"
            computed.add(step.node)
            if step.materialize:
                live.add(step.node)
        else:
            assert step.node in live
            live.discard(step.node)
    assert not live, "some temps never dropped"
    return computed


class TestDepthFirst:
    def test_invariants(self):
        steps = depth_first_schedule(sample_plan())
        computed = schedule_invariants(steps)
        assert len(computed) == 4

    def test_compute_counts(self):
        steps = depth_first_schedule(sample_plan())
        computes = [s for s in steps if s.action == "compute"]
        drops = [s for s in steps if s.action == "drop"]
        assert len(computes) == 4
        assert len(drops) == 1

    def test_describe(self):
        steps = depth_first_schedule(sample_plan())
        assert steps[0].describe().startswith("COMPUTE")
        assert any(s.describe().startswith("DROP") for s in steps)


class TestStorageMinimizing:
    def test_invariants(self):
        steps = storage_minimizing_schedule(sample_plan(), lambda s: 1.0 if s.is_materialized else 0.0)
        schedule_invariants(steps)

    def test_same_queries_as_depth_first(self):
        plan = sample_plan()
        size = lambda s: 2.0 if s.is_materialized else 0.0
        a = {
            (s.action, s.node)
            for s in storage_minimizing_schedule(plan, size)
        }
        b = {(s.action, s.node) for s in depth_first_schedule(plan)}
        assert a == b


@st.composite
def random_subplans(draw, depth=0):
    """Random plan trees over a fixed column universe."""
    universe = "abcdefg"
    columns = frozenset(
        draw(st.sets(st.sampled_from(universe), min_size=depth + 1, max_size=7))
    )
    if depth >= 2 or draw(st.booleans()):
        return SubPlan.leaf(columns)
    n_children = draw(st.integers(1, 3))
    children = []
    for _ in range(n_children):
        child = draw(random_subplans(depth=depth + 1))
        if child.node.columns < columns and all(
            child.node.columns != c.node.columns for c in children
        ):
            children.append(child)
    if not children:
        return SubPlan.leaf(columns)
    return SubPlan(PlanNode(columns), tuple(children), False)


def _bf_node_has_materialized_grandchildren(subplan, size_of):
    from repro.core.storage import mark_storage

    for mark in _iter_marks(mark_storage(subplan, size_of)):
        if mark.strategy == "BF" and any(
            grandchild.subplan.is_materialized
            for child in mark.children
            for grandchild in child.children
        ):
            return True
    return False


def _iter_marks(mark):
    yield mark
    for child in mark.children:
        yield from _iter_marks(child)


@settings(max_examples=60, deadline=None)
@given(subplan=random_subplans(), unit=st.floats(0.5, 100))
def test_marked_schedule_vs_storage_recursion(subplan, unit):
    """Property: the Section 4.4.1 recursion lower-bounds the achieved
    peak, with equality whenever no BF-marked node has materialized
    grandchildren (where the paper's formula is exact)."""
    size_of = lambda s: unit * len(s.node.columns) if s.is_materialized else 0.0
    plan = LogicalPlan("R", (subplan,), frozenset())
    steps = storage_minimizing_schedule(plan, size_of)
    schedule_invariants(steps)
    materialized_sizes = {
        s.node.columns: unit * len(s.node.columns)
        for s in subplan.iter_subplans()
        if s.is_materialized
    }
    peak = peak_storage_of_schedule(
        steps, lambda node: materialized_sizes.get(node.columns, 0.0)
    )
    formula = min_intermediate_storage(subplan, size_of)
    assert peak >= formula - 1e-9
    if not _bf_node_has_materialized_grandchildren(subplan, size_of):
        assert peak == formula


def flatten(ranks):
    """The ranks as one linear order, each rank's materialized nodes
    dropped after the next rank — the waves a parallel lowering builds."""
    steps = []
    for depth, rank in enumerate(ranks):
        steps.extend(rank)
        if depth:
            steps.extend(
                Step("drop", step.node)
                for step in ranks[depth - 1]
                if step.materialize
            )
    return steps


class TestWavefront:
    """:func:`depth_ranks` — the ranks a parallel plan's waves hold."""

    def test_flattened_waves_are_a_valid_schedule(self):
        computed = schedule_invariants(flatten(depth_ranks(sample_plan())))
        assert len(computed) == 4

    def test_waves_grouped_by_depth(self):
        ranks = depth_ranks(sample_plan())
        assert len(ranks) == 2
        assert {s.node.columns for s in ranks[0]} == {fs("a", "b"), fs("c")}
        assert {s.node.columns for s in ranks[1]} == {fs("a"), fs("b")}

    def test_drops_attached_to_child_wave(self):
        """The lowering drops a node in the wave after its own: the wave
        that computes its children."""
        from repro.engine.aggregation import AggregateSpec
        from repro.engine.catalog import Catalog
        from repro.engine.table import Table
        from repro.physical.lowering import lower

        catalog = Catalog()
        catalog.add_table(
            Table("R", {"a": [1, 2, 1], "b": [3, 3, 4], "c": [5, 6, 5]})
        )
        physical = lower(
            sample_plan(),
            catalog=catalog,
            base_table="R",
            aggregates=[AggregateSpec.count_star("cnt")],
            mode="wavefront",
            parallelism=2,
        )
        waves = physical.waves
        assert waves[0].drops == ()
        assert [physical.pipelines[i].label for i in waves[1].drops] == [
            PlanNode(fs("a", "b")).describe()
        ]

    def test_in_wave_order_deterministic(self):
        a = depth_ranks(sample_plan())
        b = depth_ranks(sample_plan())
        for rank_a, rank_b in zip(a, b):
            assert [s.node for s in rank_a] == [s.node for s in rank_b]
            assert [s.describe() for s in rank_a] == [
                s.describe() for s in rank_b
            ]

    def test_wave_steps_mutually_independent(self):
        for rank in depth_ranks(sample_plan()):
            nodes = {s.node for s in rank}
            for step in rank:
                assert step.parent not in nodes

    @settings(max_examples=60, deadline=None)
    @given(subplan=random_subplans())
    def test_random_plans_flatten_validly(self, subplan):
        plan = LogicalPlan("R", (subplan,), frozenset())
        ranks = depth_ranks(plan)
        computed = schedule_invariants(flatten(ranks))
        assert computed == {
            s.node for s in depth_first_schedule(plan) if s.action == "compute"
        }
        # Parents always land in an earlier rank than their children.
        rank_of = {
            step.node: depth for depth, rank in enumerate(ranks) for step in rank
        }
        for depth, rank in enumerate(ranks):
            for step in rank:
                if step.parent is not None:
                    assert rank_of[step.parent] < depth
