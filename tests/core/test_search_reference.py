"""Differential tests: ``GbMqoOptimizer._search`` against the full rescan.

The production search prices each pair by the cheapest floor under its
delta first (the root edge alone, then every candidate), costs it exactly
only if each floor still promises a gain when it surfaces in a heap, and
selects merges from that heap; :func:`repro.core.pruning.eager_search`
with no pruner is the Figure 5 loop as it was, costing every pair and
rescanning them all each iteration.  Both must make the same *decisions*
— the same merges in the same order, the same plan, costs, trajectory
and pruner counts — under every search option, while the production
search's *effort* (optimizer calls, pairs and candidates costed,
statistics created) never exceeds the reference's.  The Section 4.3
pruners run only in ``eager_search``; the checks that they bite are
here too.
"""

import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.core.optimizer
import repro.core.pruning
from repro.api import Session
from repro.core.optimizer import GbMqoOptimizer, OptimizerOptions
from repro.core.plan import NodeKind
from repro.core.pruning import MonotonicityPruner, eager_search
from repro.costmodel.base import PlanCoster
from repro.costmodel.cardinality import CardinalityCostModel
from repro.costmodel.engine_model import EngineCostModel
from repro.stats.cardinality import SampledCardinalityEstimator
from repro.workloads.queries import (
    containment_workload,
    single_column_queries,
    two_column_queries,
)
from repro.workloads.sales import SALES_COLUMNS, make_sales
from repro.workloads.tpch import LINEITEM_SC_COLUMNS, make_lineitem
from tests.core.support import FakeEstimator, SlackEstimator

ROWS = 3000

OPTIONS = {
    "default": OptimizerOptions(),
    "binary_tree_only": OptimizerOptions(binary_tree_only=True),
    "enable_cube": OptimizerOptions(enable_cube=True),
    "enable_rollup": OptimizerOptions(enable_rollup=True),
    "max_storage_bytes": OptimizerOptions(max_storage_bytes=20_000.0),
}

CUBE_ROLLUP = OptimizerOptions(enable_cube=True, enable_rollup=True)


@pytest.fixture(scope="module")
def workloads():
    sales = make_sales(ROWS)
    lineitem = make_lineitem(ROWS)
    return {
        "lineitem_sc": (lineitem, single_column_queries(LINEITEM_SC_COLUMNS)),
        "sales_sc": (sales, single_column_queries(SALES_COLUMNS)),
        "sales_tc": (sales, two_column_queries(SALES_COLUMNS)),
        "lineitem_cont": (
            lineitem,
            containment_workload(
                ["l_shipdate", "l_commitdate", "l_receiptdate"]
            ),
        ),
        "sales_cont": (sales, containment_workload(SALES_COLUMNS[:5])),
    }


def assert_same_decisions(result, reference):
    assert result.merge_log == reference.merge_log
    assert result.plan == reference.plan
    assert result.cost == reference.cost
    assert result.naive_cost == reference.naive_cost
    assert result.iterations == reference.iterations
    assert (
        result.pairs_pruned_subsumption == reference.pairs_pruned_subsumption
    )
    assert (
        result.pairs_pruned_monotonicity
        == reference.pairs_pruned_monotonicity
    )
    ours, theirs = result.telemetry, reference.telemetry
    assert ours.merges_accepted == theirs.merges_accepted
    assert ours.best_cost_trajectory == theirs.best_cost_trajectory
    assert ours.pairs_considered == theirs.pairs_considered
    assert ours.pairs_pruned_subsumption == theirs.pairs_pruned_subsumption
    assert ours.pairs_pruned_monotonicity == theirs.pairs_pruned_monotonicity


EFFORT_COUNTS = (
    "pair_evaluations",
    "candidates_considered",
    "candidates_rejected_cost",
    "candidates_rejected_storage",
    "cost_model_calls",
)


def assert_no_more_effort(result, reference):
    assert result.optimizer_calls <= reference.optimizer_calls
    assert result.merges_evaluated <= reference.merges_evaluated
    for name in EFFORT_COUNTS:
        assert getattr(result.telemetry, name) <= getattr(
            reference.telemetry, name
        ), name
    telemetry = result.telemetry
    assert telemetry.pair_evaluations == result.merges_evaluated
    assert telemetry.cost_model_calls == result.optimizer_calls
    # Every pair the reference costed was either refused by its floor,
    # costed exactly, or left in the heap as a floor for good.
    assert (
        telemetry.pairs_refused_by_bound + telemetry.pair_evaluations
        <= reference.merges_evaluated
    )
    # The rungs: a root floor refuses or asks for the full floor, which
    # refuses or asks for the exact cost.
    assert telemetry.pairs_refused_at_root <= telemetry.pairs_refused_by_bound
    assert (
        telemetry.pairs_refused_by_bound - telemetry.pairs_refused_at_root
        + telemetry.pair_evaluations
        <= telemetry.full_floors_computed
    )


def assert_same_search(result, reference):
    assert_same_decisions(result, reference)
    assert_no_more_effort(result, reference)


@pytest.mark.parametrize("option_name", sorted(OPTIONS))
@pytest.mark.parametrize(
    "workload",
    ["lineitem_sc", "sales_sc", "sales_tc", "lineitem_cont", "sales_cont"],
)
def test_search_equals_full_rescan(workloads, workload, option_name):
    table, queries = workloads[workload]
    options = OPTIONS[option_name]

    # Fresh sessions: both searches start from empty coster memos and an
    # estimator that has created no statistic yet.
    session = Session.for_table(table, statistics="sampled")
    result = GbMqoOptimizer(session.coster(), options).optimize(
        session.base_table, queries
    )
    twin = Session.for_table(table, statistics="sampled")
    reference = eager_search(
        GbMqoOptimizer(twin.coster(), options), twin.base_table, queries
    )

    assert_same_search(result, reference)
    # Every statistic is one the reference created too, or the column set
    # of a sub-plan root (a floor reads the two roots it joins).
    created = session.estimator.created_statistics
    assert len(created) == len(set(created))
    assert len(created) <= len(twin.estimator.created_statistics)
    # (Roots made by a merge were costed exactly, so the reference has them.)
    roots = {frozenset(query) for query in queries}
    assert set(created) <= set(twin.estimator.created_statistics) | roots


#: Rows and sample of the scaled-up differential: the sample is a tenth
#: of the table, so every floor scales up by ``sqrt(N/n)``.
SCALED_ROWS, SCALED_SAMPLE = 20_000, 2_000

SCALED_CASES = {
    "sales_tc": ("sales", two_column_queries(SALES_COLUMNS)),
    "sales_tc8": ("sales", two_column_queries(SALES_COLUMNS[:8])),
    "lineitem_sc": ("lineitem", single_column_queries(LINEITEM_SC_COLUMNS)),
    "lineitem_tc": ("lineitem", two_column_queries(LINEITEM_SC_COLUMNS)),
}


@pytest.fixture(scope="module")
def scaled_tables():
    tables = {}

    def table(name, seed):
        if (name, seed) not in tables:
            make = make_sales if name == "sales" else make_lineitem
            tables[name, seed] = make(SCALED_ROWS, seed=seed)
        return tables[name, seed]

    return table


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("case", sorted(SCALED_CASES))
def test_search_equals_full_rescan_when_sampled(scaled_tables, case, seed):
    """The benchmark's workload shapes with the sample smaller than the
    table: the floors a walk prices at once take the scale-up branch."""
    name, queries = SCALED_CASES[case]
    table = scaled_tables(name, seed)

    def fresh():
        return Session.for_table(
            table, statistics="sampled", sample_rows=SCALED_SAMPLE, seed=seed
        )

    session, twin = fresh(), fresh()
    assert session.estimator.sample_size < table.num_rows
    result = session.optimize(queries)
    reference = eager_search(
        GbMqoOptimizer(twin.coster()), twin.base_table, queries
    )
    assert_same_search(result, reference)
    assert result.telemetry.merges_accepted > 0
    assert result.telemetry.pairs_refused_at_root > 0
    created = session.estimator.created_statistics
    assert len(created) == len(set(created))
    roots = {frozenset(query) for query in queries}
    assert set(created) <= set(twin.estimator.created_statistics) | roots


@pytest.mark.parametrize("slack", [None, 0.5])
def test_search_equals_full_rescan_beyond_64_columns(slack):
    """Roots over more columns than an int64 bitmask holds keep their
    bitmasks as Python ints; the walks must price them all the same."""
    columns = [f"c{i:02d}" for i in range(70)]
    singles = {column: 3 + i % 7 for i, column in enumerate(columns)}
    queries = [frozenset([column]) for column in columns[::7]] + [
        frozenset([columns[0], columns[69]]),
        frozenset([columns[65], columns[66]]),
    ]

    def optimizer():
        if slack is None:
            estimator = FakeEstimator(100_000, singles)
        else:
            estimator = SlackEstimator(slack, 100_000, singles)
        return GbMqoOptimizer(PlanCoster(EngineCostModel(estimator)))

    result = optimizer().optimize("R", queries)
    reference = eager_search(optimizer(), "R", queries)
    assert_same_search(result, reference)
    assert result.telemetry.merges_accepted > 0


def test_storage_bound_and_pruners_bite(workloads):
    """The option values above must exercise their code, not idle."""
    table, queries = workloads["sales_tc"]

    def run(option_name):
        session = Session.for_table(table, statistics="sampled")
        return GbMqoOptimizer(session.coster(), OPTIONS[option_name]).optimize(
            session.base_table, queries
        )

    assert run("max_storage_bytes").telemetry.candidates_rejected_storage > 0
    assert run("default").iterations > 5
    session = Session.for_table(table, statistics="sampled")
    optimizer = GbMqoOptimizer(session.coster())
    both = eager_search(
        optimizer, session.base_table, queries, subsumption=True, monotonicity=True
    )
    assert both.pairs_pruned_subsumption > 0
    assert both.pairs_pruned_monotonicity > 0


def spy_on_merges(monkeypatch, module):
    """The root kinds of every ``module.subplan_merge`` call from now on."""
    kinds = []
    real = module.subplan_merge

    def spy(p1, p2, *args):
        kinds.append((p1.node.kind, p2.node.kind))
        return real(p1, p2, *args)

    monkeypatch.setattr(module, "subplan_merge", spy)
    return kinds


def test_operator_roots_are_skipped_not_refused(monkeypatch):
    """A pair with a CUBE / ROLLUP root has no candidates: it used to be
    floored to 0.0 and counted as refused by a bound nobody read."""
    table = make_sales(50_000)
    queries = containment_workload(SALES_COLUMNS[:4])
    options = OptimizerOptions(enable_cube=True, enable_rollup=True)
    ours = spy_on_merges(monkeypatch, repro.core.optimizer)
    theirs = spy_on_merges(monkeypatch, repro.core.pruning)

    session = Session.for_table(table, statistics="sampled")
    result = session.optimize(queries, options)
    twin = Session.for_table(table, statistics="sampled")
    reference = eager_search(
        GbMqoOptimizer(twin.coster(), options), twin.base_table, queries
    )
    assert_same_decisions(result, reference)

    plain = (NodeKind.GROUP_BY, NodeKind.GROUP_BY)
    operator_pairs = sum(kinds != plain for kinds in theirs)
    assert operator_pairs > 5, "workload no longer roots a CUBE early"
    assert all(kinds == plain for kinds in ours)
    assert_no_more_effort(result, reference)
    # Every pair walked is an operator pair, refused by its root floor,
    # given a full floor, or still waiting under its root floor at the end.
    telemetry = result.telemetry
    assert telemetry.pairs_refused_by_bound > 0
    assert (
        operator_pairs
        + telemetry.pairs_refused_at_root
        + telemetry.full_floors_computed
        <= reference.merges_evaluated
    )


def test_eager_monotonicity_never_records_operator_roots(
    monkeypatch, workloads
):
    """A pair with a CUBE / ROLLUP root has no candidates, so it never
    pays off; monotonicity must not record that as a failed union, or it
    would prune the Group By pairs above it."""
    table, queries = workloads["sales_cont"]
    walked = spy_on_merges(monkeypatch, repro.core.pruning)
    recorded = []
    record_failure = MonotonicityPruner.record_failure

    def spy(pruner, union_mask):
        # The pair is the caller's: eager_search's loop variables.
        search = sys._getframe(1).f_locals
        pair = (search["id1"], search["id2"])
        recorded.append(tuple(search["forest"][i].node.kind for i in pair))
        record_failure(pruner, union_mask)

    monkeypatch.setattr(MonotonicityPruner, "record_failure", spy)
    session = Session.for_table(table, statistics="sampled")
    optimizer = GbMqoOptimizer(session.coster(), CUBE_ROLLUP)
    eager_search(optimizer, session.base_table, queries, monotonicity=True)
    plain = (NodeKind.GROUP_BY, NodeKind.GROUP_BY)
    assert any(kinds != plain for kinds in walked), "no operator root"
    assert recorded, "no merge failed: monotonicity had nothing to record"
    assert all(kinds == plain for kinds in recorded)


@pytest.mark.parametrize(
    "workload, options",
    [("sales_tc", OptimizerOptions()), ("sales_cont", CUBE_ROLLUP)],
    ids=["sales_tc", "sales_cont_cube_rollup"],
)
def test_search_prices_each_pair_once(
    monkeypatch, workloads, workload, options
):
    """Each pair is walked once: all of them in the first iteration, then
    only the newest sub-plan's.  So no root floor is read twice for the
    same two sub-plans in one search.  (Their column sets can repeat: a
    merge of v1 <= v2 makes a new sub-plan rooted on v2.)"""
    table, queries = workloads[workload]
    priced = []
    root_cost_bounds = PlanCoster.root_cost_bounds

    def spy(coster, roots, first, second):
        # The pairs are the search's sequence-numbered ids.
        priced.extend(zip(first.tolist(), second.tolist()))
        return root_cost_bounds(coster, roots, first, second)

    monkeypatch.setattr(PlanCoster, "root_cost_bounds", spy)
    session = Session.for_table(table, statistics="sampled")
    result = GbMqoOptimizer(session.coster(), options).optimize(
        session.base_table, queries
    )
    assert result.telemetry.merges_accepted > 1
    assert len(priced) > len(queries)
    assert len(priced) == len(set(priced))


class TestNoDeadWork:
    """Sales TC, where a floor refuses most pairs: statistics and exact
    costings are made for the pairs that could win, and for nobody else."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Every ``_create_statistic`` call of every estimator, by session."""
        calls = []
        original = SampledCardinalityEstimator._create_statistic

        def counting(estimator, columns):
            calls.append((estimator, columns))
            return original(estimator, columns)

        monkeypatch.setattr(
            SampledCardinalityEstimator, "_create_statistic", counting
        )
        return lambda session: [
            columns
            for estimator, columns in calls
            if estimator is session.estimator
        ]

    def test_bound_first_spares_statistics_and_costings(
        self, counted, monkeypatch
    ):
        merges = spy_on_merges(monkeypatch, repro.core.optimizer)
        table = make_sales(30_000)
        queries = two_column_queries(SALES_COLUMNS)

        def fresh():
            return Session.for_table(
                table, statistics="sampled", sample_rows=3_000
            )

        session, twin = fresh(), fresh()
        result = session.optimize(queries)
        reference = eager_search(
            GbMqoOptimizer(twin.coster()), twin.base_table, queries
        )
        assert_same_search(result, reference)
        assert len(counted(twin)) > 1_000, "workload no longer costs much"
        assert 4 * len(counted(session)) <= len(counted(twin))
        assert 4 * result.merges_evaluated <= reference.merges_evaluated
        assert 4 * result.optimizer_calls <= reference.optimizer_calls
        assert result.telemetry.pairs_refused_by_bound > 0
        # Most pairs are refused by their root edge alone: no candidate
        # is built for them and no child edge floored.
        assert result.telemetry.pairs_refused_at_root > 0
        assert 4 * result.telemetry.full_floors_computed <= (
            reference.merges_evaluated
        )
        assert 4 * len(merges) <= reference.merges_evaluated

        # No floor was ever declared as a cardinality.
        whatif = session.cost_model().whatif
        assert len(whatif) > 0
        for hypothetical in whatif:
            assert hypothetical.est_rows == session.estimator.rows(
                hypothetical.columns
            )

        # A second run in the session reads memos only.
        created, calls = len(counted(session)), session.coster().optimizer_calls
        again = session.optimize(queries)
        assert again.plan == result.plan
        assert again.optimizer_calls == 0
        assert session.coster().optimizer_calls == calls
        assert len(counted(session)) == created


@settings(max_examples=150, deadline=None)
@given(
    singles=st.lists(st.integers(2, 400), min_size=6, max_size=6),
    overrides=st.dictionaries(
        st.frozensets(st.sampled_from("abcdef"), min_size=2, max_size=4),
        st.integers(2, 5_000),
        max_size=12,
    ),
    queries=st.sets(
        st.frozensets(st.sampled_from("abcdef"), min_size=1, max_size=3),
        min_size=2,
        max_size=9,
    ),
    flags=st.fixed_dictionaries(
        {
            "binary_tree_only": st.booleans(),
            "enable_cube": st.booleans(),
            "enable_rollup": st.booleans(),
        }
    ),
    # None: the estimator cannot bound, so a floor is the cost itself.
    slack=st.sampled_from([None, 0.0, 0.5, 0.999]),
)
# (c) + (a,b) proposed CUBE(a,b,c) claiming the required union (a,b,c)
# while that query's own sub-plan stayed in the forest: PV005.
@example(
    singles=[2] * 6,
    overrides={frozenset("ab"): 6, frozenset("abc"): 2},
    queries={frozenset(q) for q in ("a", "b", "c", "ab", "abc")},
    flags={
        "binary_tree_only": False,
        "enable_cube": True,
        "enable_rollup": False,
    },
    slack=None,
)
def test_search_equals_full_rescan_property(
    singles, overrides, queries, flags, slack
):
    """Property: same search on random cardinalities, overlapping query
    sets and every combination of search flags.  Deltas tie often here,
    which tests the ``(delta, id1, id2)`` order, and the overrides make
    costs irregular.  ``slack`` loosens the floors the search selects
    by."""
    options = OptimizerOptions(**flags)
    ordered = sorted(queries, key=sorted)

    def optimizer():
        cardinalities = (5_000, dict(zip("abcdef", singles)), overrides)
        if slack is None:
            estimator = FakeEstimator(*cardinalities)
        else:
            estimator = SlackEstimator(slack, *cardinalities)
        return GbMqoOptimizer(
            PlanCoster(CardinalityCostModel(estimator)), options
        )

    result = optimizer().optimize("R", ordered)
    reference = eager_search(optimizer(), "R", ordered)
    assert_same_search(result, reference)
