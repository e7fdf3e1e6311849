"""Unit tests for the naive, GROUPING SETS and partial-cube baselines."""

import pytest

from repro.baselines.grouping_sets import CommercialGroupingSetsPlanner
from repro.baselines.partial_cube import (
    GreedyLatticePlanner,
    LatticeTooLargeError,
)
from repro.costmodel.base import PlanCoster
from repro.costmodel.cardinality import CardinalityCostModel
from repro.engine.catalog import Catalog
from tests.conftest import brute_force_group_by, result_as_dict
from tests.core.support import FakeEstimator


def fs(*cols):
    return frozenset(cols)


@pytest.fixture
def catalog(random_table):
    cat = Catalog()
    cat.add_table(random_table)
    return cat


class TestNaive:
    def test_results_correct(self, session, random_table):
        result = session.run_naive([fs("low"), fs("mid")])
        for column in ("low", "mid"):
            assert result_as_dict(
                result.results[fs(column)], [column]
            ) == brute_force_group_by(random_table, [column])

    def test_one_query_per_input(self, session):
        result = session.run_naive([fs("low"), fs("mid"), fs("low")])
        assert result.metrics.queries_executed == 2  # deduped


class TestCommercialGroupingSets:
    def test_sc_chooses_union_strategy(self, catalog):
        planner = CommercialGroupingSetsPlanner(catalog, "r")
        queries = [fs("low"), fs("mid"), fs("high"), fs("txt")]
        assert planner.choose_strategy(queries) == "union_groupby"

    def test_cont_chooses_shared_sort(self, catalog):
        planner = CommercialGroupingSetsPlanner(catalog, "r")
        queries = [
            fs("low"), fs("mid"), fs("corr"),
            fs("low", "mid"), fs("low", "corr"), fs("mid", "corr"),
        ]
        assert planner.choose_strategy(queries) == "shared_sort"

    def test_union_plan_shape(self, catalog):
        planner = CommercialGroupingSetsPlanner(catalog, "r")
        plan = planner.union_plan([fs("low"), fs("mid")])
        assert len(plan.subplans) == 1
        root = plan.subplans[0]
        assert root.node.columns == fs("low", "mid")
        plan.validate()

    def test_union_plan_with_required_root(self, catalog):
        planner = CommercialGroupingSetsPlanner(catalog, "r")
        plan = planner.union_plan([fs("low"), fs("low", "mid")])
        assert plan.subplans[0].required

    @pytest.mark.parametrize(
        "queries",
        [
            [fs("low"), fs("mid"), fs("txt"), fs("high")],
            [fs("low"), fs("mid"), fs("low", "mid")],
        ],
    )
    def test_results_match_naive(self, catalog, random_table, queries):
        planner = CommercialGroupingSetsPlanner(catalog, "r")
        outcome = planner.execute(queries)
        for query in queries:
            keys = sorted(query)
            assert result_as_dict(
                outcome.results[query], keys
            ) == brute_force_group_by(random_table, keys)


class TestGreedyLattice:
    def _coster(self):
        estimator = FakeEstimator(
            10_000, {"a": 4, "b": 6, "c": 5, "d": 4000}
        )
        return PlanCoster(CardinalityCostModel(estimator))

    def test_lattice_size(self):
        planner = GreedyLatticePlanner(self._coster())
        lattice = planner.build_lattice([fs("a"), fs("b"), fs("c")])
        assert len(lattice) == 7  # 2^3 - 1

    def test_too_many_columns(self):
        planner = GreedyLatticePlanner(self._coster(), max_columns=3)
        with pytest.raises(LatticeTooLargeError):
            planner.build_lattice([fs(f"c{i}") for i in range(5)])

    def test_plan_valid_and_no_worse_than_naive(self):
        coster = self._coster()
        planner = GreedyLatticePlanner(coster)
        queries = [fs("a"), fs("b"), fs("c"), fs("d")]
        result = planner.optimize("R", queries)
        result.plan.validate()
        naive_cost = 4 * 10_000
        assert result.cost <= naive_cost

    def test_dense_column_left_alone(self):
        planner = GreedyLatticePlanner(self._coster())
        result = planner.optimize("R", [fs("a"), fs("d")])
        # d is near-key: it should be computed directly from R.
        direct = [
            s for s in result.plan.subplans if s.node.columns == fs("d")
        ]
        assert len(direct) == 1 and not direct[0].children

    def test_lattice_metrics_reported(self):
        planner = GreedyLatticePlanner(self._coster())
        result = planner.optimize("R", [fs("a"), fs("b")])
        assert result.lattice_nodes == 3
        assert result.lattice_seconds >= 0
