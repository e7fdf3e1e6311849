"""Unit tests for the columnar Table."""

import numpy as np
import pytest

from repro.engine import dictcache, morsel
from repro.engine.dictcache import encode_column
from repro.engine.table import PARALLEL_LOAD_MIN_ROWS, Table
from repro.engine.types import INT_NULL, SchemaError
from repro.workloads.sales import make_sales
from repro.workloads.tpch import make_lineitem


class TestConstruction:
    def test_basic(self, tiny_table):
        assert tiny_table.num_rows == 12
        assert tiny_table.column_names == ("a", "b", "c", "v")

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", {})

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", {"a": [1, 2], "b": [1]})

    def test_bool_coerced_to_int(self):
        table = Table("t", {"flag": [True, False, True]})
        assert table["flag"].dtype == np.int64
        assert list(table["flag"]) == [1, 0, 1]

    def test_object_column_with_none_becomes_null_string(self):
        table = Table("t", {"s": np.array(["a", None, "b"], dtype=object)})
        assert table["s"][1] == b""

    def test_two_dimensional_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", {"m": np.zeros((2, 2))})

    def test_from_rows_roundtrip(self):
        rows = [(1, "a"), (2, "b")]
        table = Table.from_rows("t", ["x", "y"], rows)
        assert table.to_rows() == rows

    def test_from_rows_empty(self):
        table = Table.from_rows("t", ["x"], [])
        assert table.num_rows == 0

    def test_missing_column_raises(self, tiny_table):
        with pytest.raises(SchemaError, match="no column"):
            tiny_table["nope"]

    def test_contains(self, tiny_table):
        assert "a" in tiny_table
        assert "zz" not in tiny_table


class TestSizeModel:
    def test_row_width_ints(self):
        table = Table("t", {"a": [1], "b": [2]})
        assert table.row_width() == 16

    def test_row_width_subset(self, tiny_table):
        assert tiny_table.row_width(["a"]) == 8

    def test_size_bytes_scales_with_rows(self, tiny_table):
        assert tiny_table.size_bytes(["a"]) == 8 * 12

    def test_string_width_is_itemsize(self):
        table = Table("t", {"s": ["abc", "x"]})
        assert table.row_width() == table["s"].dtype.itemsize

    def test_touch_returns_size(self, tiny_table):
        assert tiny_table.touch() == tiny_table.size_bytes()
        assert tiny_table.touch(["a"]) == tiny_table.size_bytes(["a"])


class TestRelationalOps:
    def test_project_shares_arrays(self, tiny_table):
        projection = tiny_table.project(["a", "b"])
        assert projection["a"] is tiny_table["a"]
        assert projection.column_names == ("a", "b")

    def test_project_missing_column(self, tiny_table):
        with pytest.raises(SchemaError):
            tiny_table.project(["a", "nope"])

    def test_project_shares_dictionaries(self, tiny_table):
        tiny_table.dictionary("a")
        projection = tiny_table.project(["a"])
        assert "a" in projection._dictionaries

    def test_take_mask(self, tiny_table):
        mask = tiny_table["a"] == 1
        taken = tiny_table.take(mask)
        assert taken.num_rows == 4
        assert set(taken["a"]) == {1}

    def test_take_indices(self, tiny_table):
        taken = tiny_table.take(np.array([0, 2]))
        assert list(taken["a"]) == [1, 2]

    def test_sort_by(self, tiny_table):
        ordered = tiny_table.sort_by(["c", "a"])
        c = ordered["c"]
        assert all(c[i] <= c[i + 1] for i in range(len(c) - 1))

    def test_rename(self, tiny_table):
        renamed = tiny_table.rename("other")
        assert renamed.name == "other"
        assert renamed["a"] is tiny_table["a"]

    def test_with_column(self, tiny_table):
        extended = tiny_table.with_column("d", range(12))
        assert "d" in extended
        assert "d" not in tiny_table

    def test_with_column_wrong_length(self, tiny_table):
        with pytest.raises(SchemaError):
            tiny_table.with_column("d", [1, 2])


class TestDictionary:
    def test_codes_roundtrip(self, tiny_table):
        codes, values = tiny_table.dictionary("b")
        assert list(values[codes]) == list(tiny_table["b"])

    def test_codes_are_dense(self, tiny_table):
        codes, values = tiny_table.dictionary("a")
        assert codes.max() == len(values) - 1
        assert codes.min() == 0

    def test_cached(self, tiny_table):
        first = tiny_table.dictionary("a")
        second = tiny_table.dictionary("a")
        assert first[0] is second[0]

    def test_build_all(self, tiny_table):
        tiny_table.build_dictionaries()
        assert set(tiny_table._dictionaries) == set(tiny_table.column_names)

    def test_null_values_participate(self):
        table = Table("t", {"x": [INT_NULL, 1, INT_NULL]})
        codes, values = table.dictionary("x")
        assert len(values) == 2


LOADS = {"lineitem": make_lineitem, "sales": make_sales}


@pytest.fixture(scope="module")
def loads():
    """Each 40k-row load table with its serially encoded columns."""
    out = {}
    for name, make in LOADS.items():
        table = make(40_000)
        out[name] = (
            table,
            {c: encode_column(table[c]) for c in table.column_names},
        )
    return out


def unencoded(table):
    """The same arrays in a fresh table with no dictionaries."""
    return Table(table.name, {c: table[c] for c in table.column_names})


@pytest.fixture
def pools(monkeypatch):
    """Spy on ``Workers``: the list of pools opened (by parallelism)."""
    opened = []

    class SpyWorkers(morsel.Workers):
        def __init__(self, parallelism, name):
            super().__init__(parallelism, name)
            opened.append(self.parallelism)

    monkeypatch.setattr(morsel, "Workers", SpyWorkers)
    return opened


def spy_encodes(monkeypatch, table, fail_on=None):
    """Record which columns ``encode_column`` sees, in call order;
    raise on column ``fail_on``."""
    names = {id(table[c]): c for c in table.column_names}
    seen = []

    def spy(array):
        column = names[id(array)]
        seen.append(column)
        if column == fail_on:
            raise ValueError(f"encode of {column} failed")
        return encode_column(array)

    monkeypatch.setattr(dictcache, "encode_column", spy)
    return seen


class TestParallelLoad:
    """``build_dictionaries`` encodes columns concurrently on the usable
    CPUs, bit-identical to the serial encode."""

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("workload", sorted(LOADS))
    def test_bit_identical_to_serial_encode(
        self, loads, pools, monkeypatch, workload, cpus
    ):
        monkeypatch.setattr(morsel, "usable_cpus", lambda: cpus)
        base, expected = loads[workload]
        table = unencoded(base)
        table.build_dictionaries()
        for column, (codes, uniques) in expected.items():
            got_codes, got_uniques = table.cached_dictionary(column)
            np.testing.assert_array_equal(got_codes, codes)
            np.testing.assert_array_equal(got_uniques, uniques)
            assert got_codes.dtype == codes.dtype
            assert got_uniques.dtype == uniques.dtype
        assert pools == ([] if cpus == 1 else [cpus])

    def test_largest_column_first(self, loads, monkeypatch):
        monkeypatch.setattr(morsel, "usable_cpus", lambda: 1)
        table = unencoded(loads["lineitem"][0])
        seen = spy_encodes(monkeypatch, table)
        table.build_dictionaries()
        sizes = [table[c].nbytes for c in seen]
        assert seen[0] == "l_comment"
        assert sizes == sorted(sizes, reverse=True)
        assert sorted(seen) == sorted(table.column_names)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_deferred_dictionary_realised_not_encoded(
        self, loads, monkeypatch, cpus
    ):
        monkeypatch.setattr(morsel, "usable_cpus", lambda: cpus)
        base, expected = loads["lineitem"]
        table = unencoded(base)
        realised = []

        def derive():
            realised.append(True)
            return expected["l_comment"]

        table.defer_dictionary("l_comment", derive)
        seen = spy_encodes(monkeypatch, table)
        table.build_dictionaries()
        assert "l_comment" not in seen
        assert len(seen) == len(table.column_names) - 1
        assert realised == [True]
        assert table.cached_dictionary("l_comment") is expected["l_comment"]

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_failed_encode_stores_nothing(self, loads, monkeypatch, cpus):
        monkeypatch.setattr(morsel, "usable_cpus", lambda: cpus)
        table = unencoded(loads["sales"][0])
        spy_encodes(monkeypatch, table, fail_on=table.column_names[1])
        with pytest.raises(ValueError, match="failed"):
            table.build_dictionaries()
        for column in table.column_names:
            assert table.cached_dictionary(column) is None

    def test_below_floor_opens_no_pool(self, pools, monkeypatch):
        monkeypatch.setattr(morsel, "usable_cpus", lambda: 4)
        table = make_sales(PARALLEL_LOAD_MIN_ROWS - 1)
        table.build_dictionaries()
        assert pools == []
        for column in table.column_names:
            codes, uniques = table.cached_dictionary(column)
            np.testing.assert_array_equal(uniques[codes], table[column])


class TestDictionaryStaleness:
    """Derived tables must never serve a dictionary built for other data."""

    def base(self):
        table = Table("t", {"a": [3, 1, 2, 1], "b": ["x", "y", "y", "x"]})
        table.build_dictionaries()
        return table

    def test_take_reencodes_for_new_rows(self):
        table = self.base()
        subset = table.take(np.array([0, 2]))
        codes, values = subset.dictionary("a")
        assert list(values) == [2, 3]
        assert list(values[codes]) == [3, 2]

    def test_sort_by_reencodes_for_new_order(self):
        table = self.base()
        ordered = table.sort_by(["a"])
        codes, values = ordered.dictionary("a")
        assert list(values[codes]) == list(ordered["a"]) == [1, 1, 2, 3]

    def test_with_column_replacement_drops_stale_dictionary(self):
        table = self.base()
        derived = table.with_column("a", [9, 9, 8, 7])
        codes, values = derived.dictionary("a")
        assert list(values) == [7, 8, 9]
        assert list(values[codes]) == [9, 9, 8, 7]

    def test_with_column_keeps_untouched_dictionaries(self):
        table = self.base()
        derived = table.with_column("c", [0, 1, 2, 3])
        # Untouched column: same rows, same arrays — carry-over is valid
        # and must not re-encode.
        assert derived.cached_dictionary("b") is not None
        codes, values = derived.dictionary("b")
        assert list(values[codes]) == list(derived["b"])

    def test_rename_shares_dictionaries(self):
        table = self.base()
        renamed = table.rename("other")
        assert renamed.cached_dictionary("a") is table.cached_dictionary("a")
