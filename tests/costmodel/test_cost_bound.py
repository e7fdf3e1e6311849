"""The inequality bound-first costing rests on, on the costing side.

``PlanCoster.subplan_cost_bound`` runs a merge candidate through the
same edges in the same summation order as ``subplan_cost``, reading each
cardinality it has no statistic for as a floor: the result must never be
above the cost — compared as floats, no tolerance — and computing it
must send nothing to the optimizer, declare no what-if table and create
no statistic beyond the roots'.
"""

from itertools import combinations

import pytest

from repro.api import Session
from repro.core.merge import MergeOptions, subplan_merge
from repro.core.optimizer import GbMqoOptimizer
from repro.core.plan import NodeKind, PlanNode, SubPlan, naive_plan
from repro.costmodel.base import PlanCoster
from repro.workloads.queries import containment_workload, two_column_queries
from repro.workloads.sales import SALES_COLUMNS, make_sales

OPERATORS = MergeOptions(enable_cube=True, enable_rollup=True)


@pytest.fixture(scope="module")
def sales():
    return make_sales(20_000)


def workload(name):
    if name == "tc":
        return two_column_queries(SALES_COLUMNS[:8])
    return containment_workload(SALES_COLUMNS[:5])


def forests(session, queries):
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
    required, groups = forests(session, queries)
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
    rounding then puts some floors above it."""
    queries = workload("tc")
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
