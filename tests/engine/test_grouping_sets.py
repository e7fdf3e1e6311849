"""Unit tests for CUBE / ROLLUP / GROUPING SETS operators."""

from itertools import combinations

import numpy as np
import pytest

from repro.engine.aggregation import AggregateSpec, group_by
from repro.engine.grouping_sets import cube, grouping_sets, rollup
from repro.engine.partitioned_cube import partitioned_cube
from repro.engine.table import Table
from repro.engine.types import INT_NULL, SchemaError
from tests.conftest import brute_force_group_by, result_as_dict


def reference(table, keys):
    return brute_force_group_by(table, list(keys))


class TestCube:
    def test_all_subsets_present(self, tiny_table):
        results = cube(tiny_table, ["a", "b", "c"])
        expected_sets = set()
        for size in range(1, 4):
            for combo in combinations(["a", "b", "c"], size):
                expected_sets.add(frozenset(combo))
        assert set(results) == expected_sets

    def test_every_grouping_correct(self, tiny_table):
        results = cube(tiny_table, ["a", "b", "c"])
        for grouping, table in results.items():
            keys = sorted(grouping)
            assert result_as_dict(table, keys) == reference(tiny_table, keys)

    def test_grand_total(self, tiny_table):
        results = cube(tiny_table, ["a", "b"], include_grand_total=True)
        total = results[frozenset()]
        assert total["cnt"][0] == tiny_table.num_rows

    def test_width_guard(self, tiny_table):
        with pytest.raises(SchemaError):
            cube(tiny_table, [f"c{i}" for i in range(17)])

    def test_smallest_parent_used(self, random_table):
        """Sub-groupings computed from parents must still be exact."""
        results = cube(random_table, ["low", "mid", "corr"])
        for grouping, table in results.items():
            keys = sorted(grouping)
            assert result_as_dict(table, keys) == reference(
                random_table, keys
            )


class TestRollup:
    def test_prefixes_only(self, tiny_table):
        results = rollup(tiny_table, ["a", "b", "c"])
        assert set(results) == {
            frozenset(["a"]),
            frozenset(["a", "b"]),
            frozenset(["a", "b", "c"]),
        }

    def test_values_correct(self, tiny_table):
        results = rollup(tiny_table, ["a", "b"])
        for grouping, table in results.items():
            keys = sorted(grouping)
            assert result_as_dict(table, keys) == reference(tiny_table, keys)

    def test_empty_order_rejected(self, tiny_table):
        with pytest.raises(SchemaError):
            rollup(tiny_table, [])


class TestGroupingSets:
    def test_naive_strategy(self, tiny_table):
        results = grouping_sets(tiny_table, [["a"], ["b"], ["a", "c"]])
        for grouping, table in results.items():
            keys = sorted(grouping)
            assert result_as_dict(table, keys) == reference(tiny_table, keys)

    def test_pipesort_strategy_matches_naive(self, random_table):
        sets = [["low"], ["mid"], ["low", "mid"], ["low", "mid", "corr"]]
        shared = grouping_sets(random_table, sets, strategy="pipesort")
        plain = grouping_sets(random_table, sets, strategy="naive")
        for grouping in plain:
            keys = sorted(grouping)
            assert result_as_dict(
                shared[grouping], keys
            ) == result_as_dict(plain[grouping], keys)

    def test_unknown_strategy(self, tiny_table):
        with pytest.raises(SchemaError):
            grouping_sets(tiny_table, [["a"]], strategy="quantum")

    def test_custom_aggregate(self, tiny_table):
        results = grouping_sets(
            tiny_table, [["a"]], aggregates=[AggregateSpec("sum", "c", "s")]
        )
        expected = brute_force_group_by(tiny_table, ["a"], "sum", "c")
        assert result_as_dict(results[frozenset(["a"])], ["a"], "s") == expected


#: Aggregates a CUBE cannot re-aggregate as they are: AVG merges its
#: SUM and COUNT(col) states, and MIN over strings merges by MIN.
AVG_AND_STRING_MIN = [
    AggregateSpec("avg", "x", "mean_x"),
    AggregateSpec("min", "s", "min_s"),
]


@pytest.fixture
def measured_table():
    """Three dimensions, an integer measure with NULLs and a string
    measure with NULLs (``""``)."""
    rng = np.random.default_rng(5)
    n = 600
    x = rng.integers(-20, 50, n)
    x[rng.random(n) < 0.15] = INT_NULL
    return Table(
        "t",
        {
            "a": rng.integers(0, 4, n),
            "b": rng.integers(0, 5, n),
            "c": rng.integers(0, 3, n),
            "x": x,
            "s": rng.choice(np.array(["", "kiwi", "apple", "fig"]), n),
        },
    )


def answers(table, keys):
    """{key tuple: aggregate tuple}, NaN as None so equal answers compare
    equal."""
    width = len(keys)
    return {
        tuple(row[:width]): tuple(
            None if value != value else value for value in row[width:]
        )
        for row in table.project(
            list(keys) + [s.alias for s in AVG_AND_STRING_MIN]
        ).to_rows()
    }


@pytest.mark.parametrize(
    "compute",
    [
        lambda t: cube(t, ["a", "b", "c"], AVG_AND_STRING_MIN),
        lambda t: rollup(t, ["a", "b", "c"], AVG_AND_STRING_MIN),
        lambda t: partitioned_cube(
            t, ["a", "b", "c"], memory_rows=100, aggregates=AVG_AND_STRING_MIN
        ),
    ],
    ids=["cube", "rollup", "partitioned_cube"],
)
def test_avg_and_string_min_equal_direct_group_by(measured_table, compute):
    """Every grouping set equals a direct ``group_by``: the groupings
    carry state columns, merge them from a finer grouping and finalize."""
    results = compute(measured_table)
    assert results
    for grouping, result in results.items():
        keys = sorted(grouping)
        assert list(result.column_names) == keys + [
            s.alias for s in AVG_AND_STRING_MIN
        ]
        direct = group_by(measured_table, keys, AVG_AND_STRING_MIN)
        assert answers(result, keys) == answers(direct, keys)
