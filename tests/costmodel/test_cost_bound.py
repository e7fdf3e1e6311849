"""The inequality bound-first costing rests on, on the costing side.

``PlanCoster.subplan_cost_bound`` runs a merge candidate through the
same edges in the same summation order as ``subplan_cost``, reading each
cardinality it has no statistic for as a floor: the result must never be
above the cost — compared as floats, no tolerance — and computing it
must send nothing to the optimizer, declare no what-if table and create
no statistic beyond the roots'.

``PlanCoster.root_cost_bounds`` is the rung below it: the one edge every
candidate of a pair starts its sum with, read before any candidate is
built, which the search reads for a whole walk of pairs at once.  The
rungs must be ordered, again as floats with no tolerance: the model's
floor of that edge <= root floor <= every candidate's floor <= its exact
delta.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.core.merge import MergeOptions, subplan_merge
from repro.core.optimizer import GbMqoOptimizer
from repro.core.plan import NodeKind, PlanNode, SubPlan, naive_plan
from repro.costmodel.base import PlanCoster, RootArrays
from repro.costmodel.cardinality import CardinalityCostModel
from repro.costmodel.engine_model import EngineCostModel
from repro.workloads.queries import containment_workload, two_column_queries
from repro.workloads.sales import SALES_COLUMNS, make_sales
from tests.core.support import FakeEstimator, SlackEstimator

OPERATORS = MergeOptions(enable_cube=True, enable_rollup=True)


@pytest.fixture(scope="module")
def sales():
    return make_sales(20_000)


def workload(name):
    if name == "tc":
        return two_column_queries(SALES_COLUMNS[:8])
    return containment_workload(SALES_COLUMNS[:5])


def forests_of(session, queries):
    """Sub-plan sets to pair up: the naive leaves, and the merged trees of
    the optimized plan (roots with children and internal costs)."""
    naive = naive_plan(session.base_table, queries)
    twin = Session.for_table(
        session.catalog.get(session.base_table),
        statistics="sampled",
        sample_rows=2_000,
        cost_model=session.cost_model_name,
    )
    optimized = GbMqoOptimizer(twin.coster()).optimize(
        twin.base_table, queries
    )
    return naive.required, [naive.subplans, optimized.plan.subplans]


def candidates_of(session, queries, options=None):
    """``(known, candidate)`` for every pair of every forest."""
    required, groups = forests_of(session, queries)
    for subplans in groups:
        for p1, p2 in combinations(subplans, 2):
            known = (p1.node.columns, p2.node.columns)
            for candidate in subplan_merge(p1, p2, required, options):
                yield known, candidate


@pytest.mark.parametrize("cost_model", ["engine", "cardinality"])
@pytest.mark.parametrize("name", ["tc", "cont"])
def test_bound_cost_never_above_exact_cost(sales, name, cost_model):
    session = Session.for_table(
        sales, statistics="sampled", sample_rows=2_000, cost_model=cost_model
    )
    coster = session.coster()
    created = session.estimator.created_statistics
    whatif = getattr(session.cost_model(), "whatif", ())
    kinds = set()
    checked = 0
    for known, candidate in candidates_of(session, workload(name), OPERATORS):
        calls, declared, statistics = (
            coster.optimizer_calls, len(whatif), len(created)
        )
        floor = coster.subplan_cost_bound(candidate, known)
        # Not an optimizer call, nothing declared, and no statistic but
        # the two roots' (with the single columns under them).
        assert coster.optimizer_calls == calls
        assert len(whatif) == declared
        assert {s for s in created[statistics:] if len(s) > 1} <= set(known)
        cost = coster.subplan_cost(candidate)
        assert floor <= cost
        # With the exact cost memoised, the floor is the cost.
        assert coster.subplan_cost_bound(candidate, known) == cost
        kinds.add(candidate.node.kind.name)
        checked += 1
    assert checked > 100
    assert {"GROUP_BY", "CUBE"} <= kinds
    for table in whatif:
        assert table.est_rows == session.estimator.rows(table.columns)


@pytest.mark.parametrize("cost_model", ["engine", "cardinality"])
def test_rollup_bound_never_above_exact_cost(sales, cost_model):
    """SubPlanMerge proposes a ROLLUP only over a chain of answered
    queries, which these workloads never line up; its edge reads the
    cardinality of every prefix, so it is costed here directly."""
    columns = SALES_COLUMNS[:5]
    checked = 0
    for size in (2, 3, 4):
        for order in combinations(columns, size):
            session = Session.for_table(
                sales,
                statistics="sampled",
                sample_rows=2_000,
                cost_model=cost_model,
            )
            coster = session.coster()
            prefixes = frozenset(
                frozenset(order[:i]) for i in range(1, size + 1)
            )
            node = PlanNode(frozenset(order), NodeKind.ROLLUP, order)
            rollup = SubPlan(node, (), False, direct_answers=prefixes)
            known = (frozenset(order[:2]), frozenset(order[-1:]))
            floor = coster.subplan_cost_bound(rollup, known)
            assert coster.optimizer_calls == 0
            assert floor <= coster.subplan_cost(rollup)
            checked += 1
    assert checked == 25


class ReversedSum(PlanCoster):
    """The mutant: the right edges, added up from the last child."""

    def _internal_cost(self, subplan, known):
        if known is None or not subplan.children:
            return super()._internal_cost(subplan, known)
        total = 0.0
        for child in reversed(subplan.children):
            total += self._edge(
                subplan.node, child.node, child.is_materialized, known
            )
            total += self._internal_cost(child, known)
        return total


def test_summing_in_another_order_breaks_the_bound(sales):
    """Every floor below is made of exact terms only (all statistics
    exist), so only the order of addition separates it from the cost:
    rounding then puts some floors above it.  Few candidates round
    differently, so the search takes every pair of the whole TC
    workload (all 15 sales columns, 105 queries): on the first eight
    columns alone, none does."""
    queries = two_column_queries(SALES_COLUMNS)
    session = Session.for_table(
        sales, statistics="sampled", sample_rows=2_000
    )
    exact = PlanCoster(session.cost_model())
    mutant = ReversedSum(session.cost_model())
    above = 0
    for known, candidate in candidates_of(session, queries):
        cost = exact.subplan_cost(candidate)
        production = PlanCoster(session.cost_model())
        assert production.subplan_cost_bound(candidate, known) == cost
        above += mutant.subplan_cost_bound(candidate, known) > cost
    assert above > 0


# -- the rung below: the root edge alone ------------------------------------

COLUMNS = SALES_COLUMNS[:6]


@pytest.fixture(scope="module")
def small_sales():
    return make_sales(3_000)


def random_forest(queries, steps):
    """The naive leaves of ``queries`` after the merges ``steps`` picks:
    every shape the search can hold, CUBE / ROLLUP roots included."""
    required = frozenset(queries)
    forest = [SubPlan.leaf(query) for query in sorted(queries, key=sorted)]
    for first, second, choice in steps:
        if len(forest) < 2:
            break
        p1 = forest.pop(first % len(forest))
        p2 = forest.pop(second % len(forest))
        candidates = subplan_merge(p1, p2, required, OPERATORS)
        if candidates:
            forest.append(candidates[choice % len(candidates)])
        else:
            forest.extend((p1, p2))
    return required, forest


def forest_roots(forest):
    """The roots of ``forest`` as the search keeps them (the batched entry
    reads no sub-plan cost)."""
    roots = RootArrays(frozenset().union(*(p.node.columns for p in forest)))
    for subplan in forest:
        roots.append(subplan.node.columns, 0.0)
    return roots


def root_floors(coster, forest):
    """``{(i, j): root floor}`` of every pair of ``forest``, read from the
    batched entry in one call, as the search reads its first walk."""
    first, second = np.triu_indices(len(forest), 1)
    floors = coster.root_cost_bounds(forest_roots(forest), first, second)
    return dict(zip(zip(first.tolist(), second.tolist()), floors.tolist()))


def broken_rungs(coster, required, forest, options):
    """``(root, candidate)`` of every candidate of every pair for which
        model floor of R -> v1 | v2 <= root floor <= candidate floor <= delta
    does not hold, every term less the same two operand costs."""
    model = coster.model
    roots = forest_roots(forest)
    broken = []
    checked = 0
    for i, j in combinations(range(len(forest)), 2):
        p1, p2 = forest[i], forest[j]
        v1, v2 = p1.node.columns, p2.node.columns
        known = (v1, v2)
        c1, c2 = coster.subplan_cost(p1), coster.subplan_cost(p2)
        # In the order the search reads them: a floor read later leans
        # on more statistics and is never looser.
        edge = model.edge_cost_bound(None, PlanNode(v1 | v2), True, known)
        (root,) = coster.root_cost_bounds(roots, np.array([i]), np.array([j]))
        candidates = subplan_merge(p1, p2, required, options)
        floors = [
            coster.subplan_cost_bound(candidate, known)
            for candidate in candidates
        ]
        for candidate, floor in zip(candidates, floors):
            cost = coster.subplan_cost(candidate)
            checked += 1
            if not (
                edge - c1 - c2
                <= root - c1 - c2
                <= floor - c1 - c2
                <= cost - c1 - c2
            ):
                broken.append((PlanNode(v1 | v2).describe(), candidate))
    return broken, checked


forests = st.tuples(
    st.sets(
        st.frozensets(st.sampled_from(COLUMNS), min_size=1, max_size=3),
        min_size=2,
        max_size=8,
    ),
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 5)),
        max_size=6,
    ),
)
merge_options = st.builds(
    MergeOptions,
    merge_types=st.sets(st.sampled_from("abcd")).map(
        lambda types: tuple(sorted(types))
    ),
    enable_cube=st.booleans(),
    enable_rollup=st.booleans(),
)


@settings(max_examples=120, deadline=None)
@given(
    forest=forests,
    options=merge_options,
    statistics=st.sampled_from(["sampled", "exact"]),
    cost_model=st.sampled_from(["engine", "cardinality"]),
)
def test_rungs_are_ordered_over_a_table(
    small_sales, forest, options, statistics, cost_model
):
    session = Session.for_table(
        small_sales,
        statistics=statistics,
        sample_rows=500,
        cost_model=cost_model,
    )
    broken, _ = broken_rungs(
        session.coster(), *random_forest(*forest), options
    )
    assert broken == []


@settings(max_examples=120, deadline=None)
@given(
    forest=forests,
    options=merge_options,
    singles=st.lists(st.integers(2, 400), min_size=6, max_size=6),
    overrides=st.dictionaries(
        st.frozensets(st.sampled_from(COLUMNS), min_size=2, max_size=4),
        st.integers(2, 5_000),
        max_size=12,
    ),
    # None: the estimator cannot bound, so every floor is its estimate.
    slack=st.sampled_from([None, 0.0, 0.5, 0.999]),
    model=st.sampled_from([EngineCostModel, CardinalityCostModel]),
)
def test_rungs_are_ordered_under_slack_floors(
    forest, options, singles, overrides, slack, model
):
    cardinalities = (5_000, dict(zip(COLUMNS, singles)), overrides)
    if slack is None:
        estimator = FakeEstimator(*cardinalities)
    else:
        estimator = SlackEstimator(slack, *cardinalities)
    broken, _ = broken_rungs(
        PlanCoster(model(estimator)), *random_forest(*forest), options
    )
    assert broken == []


def coster_for(table, statistics, cost_model):
    """A fresh coster whose estimator is ``statistics``: a table's sampled
    or exact statistics, or a ``SlackEstimator`` / ``FakeEstimator`` (no
    bound) over the table's exact counts."""
    session = Session.for_table(
        table,
        statistics="exact" if statistics in ("slack", "none") else statistics,
        sample_rows=2_000,
        cost_model=cost_model,
    )
    if statistics not in ("slack", "none"):
        return session.coster()
    exact = session.estimator
    columns = table.column_names
    singles = {c: exact.rows(frozenset([c])) for c in columns}
    overrides = {
        frozenset(s): exact.rows(frozenset(s))
        for size in (2, 3, 4)
        for s in combinations(SALES_COLUMNS[:8], size)
    }
    args = (table.num_rows, singles, overrides)
    estimator = (
        SlackEstimator(0.5, *args) if statistics == "slack"
        else FakeEstimator(*args)
    )
    model = {"engine": EngineCostModel, "cardinality": CardinalityCostModel}
    return PlanCoster(model[cost_model](estimator))


@pytest.mark.parametrize("cost_model", ["engine", "cardinality"])
@pytest.mark.parametrize("statistics", ["sampled", "exact", "slack", "none"])
def test_batched_floor_is_the_models_floor(sales, statistics, cost_model):
    """One formula: the batched root floor of every pair of the TC leaves
    is, bit for bit, the model's own floor of the materialised Group By
    on the pair's union over the two roots, read first (no union here is
    a root, so both see the same statistics) — with the sample smaller
    than the table, so the estimators scale up."""
    coster = coster_for(sales, statistics, cost_model)
    forest = naive_plan("sales", workload("tc")).subplans
    model = coster.model
    expected = {}
    for i, j in combinations(range(len(forest)), 2):
        v1, v2 = forest[i].node.columns, forest[j].node.columns
        expected[i, j] = model.edge_cost_bound(
            None, PlanNode(v1 | v2), True, (v1, v2)
        )
    assert root_floors(coster, forest) == expected
    if statistics == "sampled":
        assert coster.model.estimator.sample_size < sales.num_rows


class UnmaterialisedRoot(PlanCoster):
    """Mutant: the root edge without the spool every candidate pays —
    the batched routine with no rows to write."""

    def root_cost_bounds(self, roots, first, second):
        model = self.model
        real = model.root_edge_bounds
        model.root_edge_bounds = lambda terms, rows: real(
            terms, lambda: np.zeros(len(terms))
        )
        try:
            return super().root_cost_bounds(roots, first, second)
        finally:
            del model.root_edge_bounds


class SubtractsChildren(PlanCoster):
    """Mutant: the edges to the two operands, which the root floor drops
    (reads as free), taken off it instead."""

    def root_cost_bounds(self, roots, first, second):
        bounds = super().root_cost_bounds(roots, first, second)
        for k, (i, j) in enumerate(zip(first.tolist(), second.tolist())):
            v1, v2 = roots.columns[i], roots.columns[j]
            root = PlanNode(v1 | v2)
            for child in (v1, v2):
                if child < root.columns:
                    bounds[k] -= self._edge(
                        root, PlanNode(child), True, (v1, v2)
                    )
        return bounds


@pytest.mark.parametrize(
    "coster_class, breaks",
    [
        (PlanCoster, False),
        (UnmaterialisedRoot, True),
        (SubtractsChildren, True),
    ],
)
def test_root_floor_mutants_break_the_rungs(sales, coster_class, breaks):
    """Both mutants are still floors, only looser ones (they would cost
    full floors, not plans): what they fall under is the left end of the
    chain, the model's own floor of the materialised Group By."""
    queries = workload("tc")
    session = Session.for_table(
        sales, statistics="sampled", sample_rows=2_000
    )
    required, groups = forests_of(session, queries)
    coster = coster_class(session.cost_model())
    broken = checked = 0
    for subplans in groups:
        found, count = broken_rungs(coster, required, subplans, OPERATORS)
        broken += len(found)
        checked += count
    assert checked > 100
    assert (broken > 0) == breaks
