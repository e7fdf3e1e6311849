"""Unit + property tests for group-by aggregation (the core operator)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.aggregation import (
    AggregateSpec,
    _dense_group_ids,
    BINCOUNT_LIMIT,
    combined_group_codes,
    group_by,
    reaggregate_specs,
    sorted_group_boundaries,
)
from repro.engine.dictcache import encode_column
from repro.engine.metrics import ExecutionMetrics
from repro.engine.table import Table
from repro.engine.types import INT_NULL, SchemaError
from tests.conftest import brute_force_group_by, result_as_dict


class TestAggregateSpec:
    def test_count_star(self):
        spec = AggregateSpec.count_star()
        assert spec.func == "count" and spec.column is None

    def test_unknown_func_rejected(self):
        with pytest.raises(SchemaError):
            AggregateSpec("median", "x", "m")

    def test_column_required(self):
        with pytest.raises(SchemaError):
            AggregateSpec("sum", None, "s")

    def test_describe(self):
        assert AggregateSpec.count_star().describe() == "COUNT(*) AS cnt"
        assert (
            AggregateSpec.sum_of("x").describe() == "SUM(x) AS sum_x"
        )


class TestFactorize:
    def test_dense_codes(self):
        codes, uniques = encode_column(np.array([5, 3, 5, 7]))
        assert len(uniques) == 3
        assert codes.max() == 2

    def test_deterministic_ordering(self):
        codes1, _ = encode_column(np.array([2, 1, 2]))
        codes2, _ = encode_column(np.array([2, 1, 2]))
        assert list(codes1) == list(codes2)


class TestGroupByCorrectness:
    @pytest.mark.parametrize("keys", [["a"], ["b"], ["a", "b"], ["a", "b", "c"]])
    def test_count_matches_brute_force(self, tiny_table, keys):
        result = group_by(tiny_table, keys, [AggregateSpec.count_star()])
        assert result_as_dict(result, keys) == brute_force_group_by(
            tiny_table, keys
        )

    @pytest.mark.parametrize("func", ["sum", "min", "max", "avg"])
    def test_numeric_aggregates(self, tiny_table, func):
        spec = AggregateSpec(func, "v", "out")
        result = group_by(tiny_table, ["a"], [spec])
        expected = brute_force_group_by(tiny_table, ["a"], func, "v")
        got = result_as_dict(result, ["a"], "out")
        for key, value in expected.items():
            assert got[key] == pytest.approx(value)

    def test_count_col_skips_nulls(self):
        table = Table("t", {"g": [1, 1, 2], "s": ["x", "", "y"]})
        result = group_by(
            table, ["g"], [AggregateSpec("count_col", "s", "nn")]
        )
        assert result_as_dict(result, ["g"], "nn") == {(1,): 1, (2,): 1}

    def test_multiple_aggregates(self, tiny_table):
        result = group_by(
            tiny_table,
            ["a"],
            [
                AggregateSpec.count_star(),
                AggregateSpec("sum", "c", "sum_c"),
                AggregateSpec("min", "v", "min_v"),
            ],
        )
        assert set(result.column_names) == {"a", "cnt", "sum_c", "min_v"}

    def test_empty_keys_grand_total(self, tiny_table):
        result = group_by(tiny_table, [], [AggregateSpec.count_star()])
        assert result.num_rows == 1
        assert result["cnt"][0] == 12

    def test_empty_table(self):
        table = Table("t", {"a": np.array([], dtype=np.int64)})
        result = group_by(table, ["a"], [AggregateSpec.count_star()])
        assert result.num_rows == 0

    def test_duplicate_alias_rejected(self, tiny_table):
        with pytest.raises(SchemaError):
            group_by(
                tiny_table, ["a"], [AggregateSpec.count_star("a")]
            )

    def test_string_keys(self, tiny_table):
        result = group_by(tiny_table, ["b"], [AggregateSpec.count_star()])
        assert result_as_dict(result, ["b"]) == {("x",): 6, ("y",): 6}

    def test_metrics_recorded(self, tiny_table):
        metrics = ExecutionMetrics()
        group_by(tiny_table, ["a"], [AggregateSpec.count_star()], metrics=metrics)
        assert metrics.group_by_ops == 1
        assert metrics.bytes_scanned == tiny_table.size_bytes()

    def test_result_dictionaries_attached(self, tiny_table):
        result = group_by(tiny_table, ["a", "b"], [AggregateSpec.count_star()])
        codes, values = result.dictionary("a")
        assert list(values[codes]) == list(result["a"])


class TestGroupingRegimes:
    """The bincount, sort and compressed regimes must agree."""

    def _wide_random(self, cards, n=3_000, seed=1):
        rng = np.random.default_rng(seed)
        return Table(
            "w",
            {
                f"k{i}": rng.integers(0, card, n)
                for i, card in enumerate(cards)
            },
        )

    def test_sort_regime_matches_bincount(self):
        # Same data grouped through both regimes must agree: force the
        # sort regime with a high-cardinality composite.
        table = self._wide_random([3000, 2500])
        keys = ["k0", "k1"]
        assert 3000 * 2500 > BINCOUNT_LIMIT
        result = group_by(table, keys, [AggregateSpec.count_star()])
        assert result_as_dict(result, keys) == brute_force_group_by(table, keys)

    def test_compressed_regime(self):
        # 8 columns of cardinality ~2^9 overflow int64 -> compression.
        table = self._wide_random([500] * 8)
        keys = [f"k{i}" for i in range(8)]
        result = group_by(table, keys, [AggregateSpec.count_star()])
        assert result_as_dict(result, keys) == brute_force_group_by(table, keys)

    def test_compressed_regime_with_sum(self):
        table = self._wide_random([400] * 8, n=500)
        table = table.with_column("v", np.arange(500))
        keys = [f"k{i}" for i in range(8)]
        result = group_by(table, keys, [AggregateSpec("sum", "v", "s")])
        expected = brute_force_group_by(table, keys, "sum", "v")
        assert result_as_dict(result, keys, "s") == expected

    def test_sort_regime_sum_uses_ids(self):
        table = self._wide_random([3000, 2500], n=2_000)
        table = table.with_column("v", np.ones(2_000))
        result = group_by(
            table, ["k0", "k1"], [AggregateSpec("sum", "v", "s")]
        )
        expected = brute_force_group_by(table, ["k0", "k1"], "sum", "v")
        got = result_as_dict(result, ["k0", "k1"], "s")
        assert got == pytest.approx(expected)


class TestSortedPath:
    def test_assume_sorted_matches_hash(self, tiny_table):
        ordered = tiny_table.sort_by(["a", "b"])
        fast = group_by(
            ordered, ["a", "b"], [AggregateSpec.count_star()], assume_sorted=True
        )
        assert result_as_dict(fast, ["a", "b"]) == brute_force_group_by(
            tiny_table, ["a", "b"]
        )

    def test_sorted_boundaries_empty(self):
        table = Table("t", {"a": np.array([], dtype=np.int64)})
        ids, first, n = sorted_group_boundaries(table, ["a"])
        assert n == 0 and len(ids) == 0 and len(first) == 0


class TestCombinedGroupCodes:
    def test_ids_consistent_with_groups(self, tiny_table):
        ids, first, n = combined_group_codes(tiny_table, ["a", "b"])
        assert len(ids) == tiny_table.num_rows
        assert ids.max() == n - 1
        # Rows with equal keys share an id.
        a, b = tiny_table["a"], tiny_table["b"]
        seen = {}
        for i in range(tiny_table.num_rows):
            key = (a[i], b[i])
            if key in seen:
                assert ids[i] == seen[key]
            seen[key] = ids[i]


class TestReaggregation:
    def test_count_becomes_sum(self):
        specs = reaggregate_specs([AggregateSpec.count_star("cnt")])
        assert specs[0].func == "sum" and specs[0].column == "cnt"

    def test_distributive_stay(self):
        for func in ("sum", "min", "max"):
            specs = reaggregate_specs([AggregateSpec(func, "x", "x")])
            assert specs[0].func == func

    def test_avg_rejected(self):
        with pytest.raises(SchemaError):
            reaggregate_specs([AggregateSpec("avg", "x", "a")])

    def test_two_phase_equals_one_phase(self, random_table):
        """COUNT via an intermediate node equals COUNT from base."""
        direct = group_by(random_table, ["low"], [AggregateSpec.count_star()])
        intermediate = group_by(
            random_table, ["low", "mid"], [AggregateSpec.count_star()]
        )
        reagg = group_by(
            intermediate,
            ["low"],
            reaggregate_specs([AggregateSpec.count_star()]),
        )
        assert result_as_dict(direct, ["low"]) == result_as_dict(reagg, ["low"])


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 6), st.integers(0, 3), st.sampled_from("pqr")
        ),
        min_size=1,
        max_size=200,
    )
)
def test_group_by_count_property(data):
    """Property: engine counts equal brute-force counts on any data."""
    table = Table.from_rows("h", ["x", "y", "z"], data)
    for keys in (["x"], ["x", "y"], ["x", "y", "z"], ["z"]):
        result = group_by(table, keys, [AggregateSpec.count_star()])
        assert result_as_dict(result, keys) == brute_force_group_by(table, keys)
        # group counts sum to the row count
        assert int(result["cnt"].sum()) == len(data)


class TestStringMinMax:
    def test_min_max_on_strings(self):
        table = Table("t", {"g": [1, 1, 2, 2], "s": ["b", "a", "d", "c"]})
        result = group_by(
            table,
            ["g"],
            [AggregateSpec("min", "s", "lo"), AggregateSpec("max", "s", "hi")],
        )
        assert sorted(result.to_rows()) == [(1, "a", "b"), (2, "c", "d")]

    def test_string_min_single_group(self):
        table = Table("t", {"g": [7, 7], "s": ["zz", "aa"]})
        result = group_by(table, ["g"], [AggregateSpec("min", "s", "m")])
        assert result.to_rows() == [(7, "aa")]


class TestSortedBoundariesProperty:
    """Pin the sorted-path boundary detection to the hash path, bit for
    bit, on randomized sorted inputs (NULL sentinels included)."""

    @given(
        ints=st.lists(
            st.sampled_from([INT_NULL, -3, 0, 1, 2, 7]), max_size=60
        ),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_to_hash_path(self, ints, data):
        n = len(ints)
        strs = data.draw(
            st.lists(
                st.sampled_from(["", "a", "b", "zz"]), min_size=n, max_size=n
            )
        )
        table = Table("t", {"i": ints, "s": strs}) if n else Table.wrap(
            "t",
            {
                "i": np.zeros(0, dtype=np.int64),
                "s": np.zeros(0, dtype="U2"),
            },
        )
        keys = data.draw(st.sampled_from([["i"], ["s"], ["i", "s"], ["s", "i"]]))
        ordered = table.sort_by(keys)
        ids_a, first_a, n_a = sorted_group_boundaries(ordered, keys)
        ids_b, first_b, n_b = combined_group_codes(ordered, keys)
        assert n_a == n_b
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_array_equal(first_a, first_b)

    def test_single_group(self):
        table = Table("t", {"k": [5, 5, 5]})
        ids, first, n = sorted_group_boundaries(table, ["k"])
        ids_h, first_h, n_h = combined_group_codes(table, ["k"])
        assert (n, list(ids), list(first)) == (n_h, list(ids_h), list(first_h))
        assert n == 1

    def test_empty_input(self):
        table = Table.wrap("t", {"k": np.zeros(0, dtype=np.int64)})
        ids, first, n = sorted_group_boundaries(table, ["k"])
        assert n == 0 and len(ids) == 0 and len(first) == 0

    def test_group_by_sorted_equals_hash(self):
        rng = np.random.default_rng(3)
        values = np.sort(rng.integers(0, 9, 200))
        table = Table("t", {"k": values, "v": rng.integers(0, 5, 200)})
        sorted_result = group_by(
            table,
            ["k"],
            [AggregateSpec.count_star()],
            assume_sorted=True,
        )
        hash_result = group_by(table, ["k"], [AggregateSpec.count_star()])
        np.testing.assert_array_equal(sorted_result["k"], hash_result["k"])
        np.testing.assert_array_equal(
            sorted_result["cnt"], hash_result["cnt"]
        )


class TestDenseGroupIds:
    """The fused bincount ranking must equal np.unique exactly."""

    @given(
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=80)
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_np_unique(self, values):
        combined = np.array(values, dtype=np.int64)
        ids, first, counts = _dense_group_ids(combined, 41)
        _, ref_first, ref_inverse, ref_counts = np.unique(
            combined,
            return_index=True,
            return_inverse=True,
            return_counts=True,
        )
        np.testing.assert_array_equal(ids, ref_inverse)
        np.testing.assert_array_equal(first, ref_first)
        np.testing.assert_array_equal(counts, ref_counts)
