"""The grouping kernel against the brute-force reference, at its edges.

``group_by`` numbers groups by their composite dictionary code.  When
every code of the domain occurs, group *g* is code *g*, and a single
key's result column is its input dictionary's values, viewed read-only.
A dictionary with an unused code takes the general path instead.
Composite codes are ``uint32`` up to a domain of exactly 2^32, and
``int64`` past it.  Every case here runs under every grouping strategy
and is checked, aggregate by aggregate, against
``tests.conftest.brute_force_group_by``, which is plain Python over
row tuples.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.aggregation import (
    GROUPING_STRATEGIES,
    AggregateSpec,
    _combined_codes,
    group_by,
)
from repro.engine.dictcache import encode_column
from repro.engine.table import Table
from repro.engine.types import INT_NULL, STR_NULL
from tests.conftest import brute_force_group_by, result_as_dict

FUNCS = ("count", "count_col", "sum", "min", "max", "avg")


def specs(column: str, funcs=FUNCS) -> list[AggregateSpec]:
    return [
        AggregateSpec(func, None if func == "count" else column, func)
        for func in funcs
    ]


def assert_matches_reference(table: Table, keys, column="v", funcs=FUNCS):
    """Every aggregate of ``group_by`` under every strategy equals the
    reference; returns the ``auto`` result."""
    want = {
        func: brute_force_group_by(table, keys, func, column) for func in funcs
    }
    results = {
        strategy: group_by(table, keys, specs(column, funcs), strategy=strategy)
        for strategy in GROUPING_STRATEGIES
    }
    for result in results.values():
        assert result.column_names == (*keys, *funcs)
        for func in funcs:
            got = result_as_dict(result, keys, func)
            # Exact first: approx walks a large dict slowly.
            assert got == want[func] or got == pytest.approx(
                want[func], nan_ok=True
            ), func
    return results["auto"]


def is_identity_view(result: Table, table: Table, key: str) -> bool:
    """Whether ``result[key]`` is a read-only view of the input's
    dictionary values (the identity numbering)."""
    column = result[key]
    return not column.flags.writeable and np.shares_memory(
        column, table.dictionary(key)[1]
    )


def values_with_nulls(n: int, rng: np.random.Generator) -> np.ndarray:
    values = rng.integers(-9, 9, n)
    values[rng.random(n) < 0.3] = INT_NULL
    return values


class TestFullOccupancy:
    def test_single_key_is_its_dictionary(self):
        rng = np.random.default_rng(1)
        n = 200
        keys = rng.permutation(np.arange(n) % 17)
        table = Table("t", {"k": keys, "v": values_with_nulls(n, rng)})
        result = assert_matches_reference(table, ["k"])
        assert is_identity_view(result, table, "k")
        codes, values = result.dictionary("k")
        np.testing.assert_array_equal(codes, np.arange(17))
        np.testing.assert_array_equal(values, np.arange(17))

    def test_every_strategy_takes_the_identity(self):
        table = Table("t", {"k": [3, 1, 2, 1, 3], "v": [1, 2, 3, 4, 5]})
        for strategy in GROUPING_STRATEGIES:
            result = group_by(table, ["k"], specs("v"), strategy=strategy)
            assert is_identity_view(result, table, "k")

    def test_full_composite_domain(self):
        # Every (a, b) pair occurs: the identity numbering over two keys.
        rng = np.random.default_rng(2)
        a, b = np.meshgrid(np.arange(5), np.arange(7))
        n = a.size
        table = Table(
            "t",
            {
                "a": np.concatenate([a.ravel(), rng.integers(0, 5, 40)]),
                "b": np.concatenate([b.ravel(), rng.integers(0, 7, 40)]),
                "v": values_with_nulls(n + 40, rng),
            },
        )
        result = assert_matches_reference(table, ["a", "b"])
        assert result.num_rows == n
        for key in ("a", "b"):
            assert result[key].flags.writeable  # gathered, not a view
            codes, values = result.dictionary(key)
            np.testing.assert_array_equal(values[codes], result[key])


class TestUnusedCode:
    """A dictionary that holds a value no row has takes the general path."""

    @staticmethod
    def with_extra_unique(table: Table, key: str, extra) -> Table:
        codes, uniques = encode_column(table[key])
        widened = np.append(uniques, extra)
        table.set_dictionary(key, codes, widened)
        return table

    def test_int_key(self):
        table = Table("t", {"k": [4, 1, 4, 2, 1], "v": [1, INT_NULL, 3, 4, 5]})
        self.with_extra_unique(table, "k", 9)
        result = assert_matches_reference(table, ["k"])
        assert list(result["k"]) == [1, 2, 4]
        assert result["k"].flags.writeable
        codes, values = result.dictionary("k")
        assert list(codes) == [0, 1, 2] and list(values) == [1, 2, 4]

    def test_string_key_in_a_composite(self):
        table = Table(
            "t",
            {"s": ["b", "a", "b", "a"], "k": [1, 2, 2, 1], "v": [5, 6, 7, 8]},
        )
        self.with_extra_unique(table, "s", b"c")
        result = assert_matches_reference(table, ["s", "k"])
        assert result.num_rows == 4


class TestThirtyTwoBitEdge:
    """2^16 x 2^16 codes is exactly 2^32: ``uint32``.  One more: ``int64``."""

    @staticmethod
    def table(card_a: int, card_b: int) -> Table:
        rng = np.random.default_rng(card_b)
        n = max(card_a, card_b)
        return Table(
            "w",
            {
                "a": rng.permutation(np.arange(n) % card_a),
                "b": rng.permutation(np.arange(n) % card_b),
                "v": values_with_nulls(n, rng),
            },
        )

    @pytest.mark.parametrize(
        "card_b, dtype", [(65_536, np.uint32), (65_537, np.int64)]
    )
    def test_composite_width(self, card_b, dtype):
        table = self.table(65_536, card_b)
        combined, radix, cards = _combined_codes(table, ["a", "b"])
        assert radix == 65_536 * card_b and cards == [65_536, card_b]
        assert combined.dtype == dtype
        assert_matches_reference(table, ["a", "b"], funcs=("count", "max"))


class TestNullKeys:
    """A single key holding its kind's NULL: NULL is one group."""

    @pytest.mark.parametrize(
        "keys",
        [
            [3, INT_NULL, 1, INT_NULL, 3, 1],
            [0.5, np.nan, 1.5, np.nan, 0.5, 1.5],
            ["b", STR_NULL, "a", STR_NULL, "b", "a"],
        ],
        ids=["int", "float", "string"],
    )
    def test_null_is_one_group(self, keys):
        table = Table("t", {"k": keys, "v": [1, 2, INT_NULL, INT_NULL, 5, 6]})
        result = assert_matches_reference(table, ["k"])
        assert result.num_rows == 3
        assert is_identity_view(result, table, "k")


class TestReadOnlyKeys:
    def test_single_key_column_rejects_writes(self):
        table = Table("t", {"k": [2, 1, 2, 3], "v": [1, 2, 3, 4]})
        before = table.dictionary("k")[1].copy()
        result = group_by(table, ["k"], specs("v"))
        with pytest.raises(ValueError):
            result["k"][0] = 7
        codes, values = result.dictionary("k")
        with pytest.raises(ValueError):
            values[0] = 7
        np.testing.assert_array_equal(table.dictionary("k")[1], before)
        assert table.dictionary("k")[1].flags.writeable


@st.composite
def small_tables(draw):
    """(table, keys): random int/string keys, some with an unused code."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    width = draw(st.integers(1, 3))
    columns = {}
    for i in range(width):
        card = draw(st.integers(1, 6))
        if draw(st.booleans()):
            columns[f"k{i}"] = rng.integers(0, card, n)
        else:
            columns[f"k{i}"] = np.array(rng.choice(list("abcdef")[:card], n))
    columns["v"] = values_with_nulls(n, rng)
    table = Table("t", columns)
    keys = [f"k{i}" for i in range(width)]
    for key in keys:
        if draw(st.booleans()):
            extra = "zz" if table[key].dtype.kind == "U" else 99
            TestUnusedCode.with_extra_unique(table, key, extra)
    return table, keys


@settings(max_examples=80, deadline=None)
@given(case=small_tables())
def test_random_tables_match_reference(case):
    table, keys = case
    assert_matches_reference(table, keys)
