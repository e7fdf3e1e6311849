"""Unit tests for column type helpers."""

import numpy as np
import pytest

from repro.engine.aggregation import AggregateSpec, group_by
from repro.engine.table import Table
from repro.engine.types import (
    INT_NULL,
    SchemaError,
    STR_NULL,
    coerce_column,
    column_kind,
    null_mask,
    value_width,
)


class TestColumnKind:
    def test_int(self):
        assert column_kind(np.array([1, 2])) == "int"

    def test_float(self):
        assert column_kind(np.array([1.0])) == "float"

    def test_str(self):
        assert column_kind(np.array(["a"])) == "str"

    def test_unsupported(self):
        with pytest.raises(SchemaError):
            column_kind(np.array([object()]))


class TestCoerce:
    def test_int32_widens(self):
        out = coerce_column(np.array([1], dtype=np.int32))
        assert out.dtype == np.int64

    def test_float32_widens(self):
        out = coerce_column(np.array([1.0], dtype=np.float32))
        assert out.dtype == np.float64

    def test_list_of_strings(self):
        out = coerce_column(["a", "bb"])
        assert out.dtype.kind == "U"

    @pytest.mark.parametrize(
        "layout",
        [
            lambda a: a.astype(">U3"),
            lambda a: np.repeat(a, 2)[::2],
            lambda a: np.repeat(a, 2).astype(">U3")[::2],
        ],
        ids=["big_endian", "strided", "both"],
    )
    def test_strings_become_native_contiguous(self, layout):
        values = np.array(["b", "a", "b", STR_NULL, "é"], dtype="U3")
        out = coerce_column(layout(values))
        assert out.dtype == values.dtype
        assert out.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(out, values)
        got = group_by(
            Table("t", {"k": layout(values)}), ["k"], [AggregateSpec.count_star()]
        )
        want = group_by(
            Table("t", {"k": values}), ["k"], [AggregateSpec.count_star()]
        )
        assert got.to_rows() == want.to_rows()


class TestNulls:
    def test_int_null(self):
        mask = null_mask(np.array([INT_NULL, 5]))
        assert list(mask) == [True, False]

    def test_float_null_is_nan(self):
        mask = null_mask(np.array([np.nan, 1.0]))
        assert list(mask) == [True, False]

    def test_str_null_is_empty(self):
        mask = null_mask(np.array([STR_NULL, "x"]))
        assert list(mask) == [True, False]


def test_value_width():
    assert value_width(np.array([1])) == 8
    assert value_width(np.array(["abcd"])) == 16  # U4 = 4 chars x 4 bytes
