"""Unit + property tests for hash join and union-all."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.join import hash_join, union_all
from repro.engine.metrics import ExecutionMetrics
from repro.engine.table import Table
from repro.engine.types import SchemaError


def brute_force_join(left, right, on):
    out = []
    left_rows = left.to_rows()
    right_rows = right.to_rows()
    l_idx = [left.column_names.index(l) for l, _ in on]
    r_idx = [right.column_names.index(r) for _, r in on]
    extra = [
        i
        for i, c in enumerate(right.column_names)
        if c not in left.column_names
    ]
    for lrow in left_rows:
        for rrow in right_rows:
            if all(lrow[i] == rrow[j] for i, j in zip(l_idx, r_idx)):
                out.append(lrow + tuple(rrow[k] for k in extra))
    return sorted(out)


class TestHashJoin:
    def test_matches_brute_force(self):
        left = Table("l", {"k": [1, 2, 2, 3], "x": [10, 20, 21, 30]})
        right = Table("r", {"k": [2, 2, 3, 4], "y": [200, 201, 300, 400]})
        joined = hash_join(left, right, [("k", "k")])
        assert sorted(joined.to_rows()) == brute_force_join(
            left, right, [("k", "k")]
        )

    def test_different_key_names(self):
        left = Table("l", {"a": [1, 2], "x": [1, 2]})
        right = Table("r", {"b": [2, 2], "y": [5, 6]})
        joined = hash_join(left, right, [("a", "b")])
        assert joined.num_rows == 2
        assert set(joined.column_names) == {"a", "x", "b", "y"}

    def test_multi_key(self):
        left = Table("l", {"a": [1, 1, 2], "b": ["x", "y", "x"], "v": [1, 2, 3]})
        right = Table("r", {"a": [1, 2], "b": ["y", "x"], "w": [10, 20]})
        joined = hash_join(left, right, [("a", "a"), ("b", "b")])
        assert sorted(joined.to_rows(["v", "w"])) == [(2, 10), (3, 20)]

    def test_no_matches(self):
        left = Table("l", {"k": [1]})
        right = Table("r", {"k": [2], "y": [1]})
        joined = hash_join(left, right, [("k", "k")])
        assert joined.num_rows == 0

    def test_empty_key_list_rejected(self):
        left = Table("l", {"k": [1]})
        with pytest.raises(SchemaError):
            hash_join(left, left, [])

    def test_metrics(self):
        left = Table("l", {"k": [1, 2]})
        right = Table("r", {"k": [1], "y": [2]})
        metrics = ExecutionMetrics()
        hash_join(left, right, [("k", "k")], metrics=metrics)
        assert metrics.rows_scanned == 3

    @settings(max_examples=30, deadline=None)
    @given(
        left_keys=st.lists(st.integers(0, 5), min_size=0, max_size=30),
        right_keys=st.lists(st.integers(0, 5), min_size=0, max_size=30),
    )
    def test_join_property(self, left_keys, right_keys):
        if not left_keys or not right_keys:
            return
        left = Table("l", {"k": left_keys, "x": list(range(len(left_keys)))})
        right = Table(
            "r", {"k": right_keys, "y": list(range(len(right_keys)))}
        )
        joined = hash_join(left, right, [("k", "k")])
        assert sorted(joined.to_rows()) == brute_force_join(
            left, right, [("k", "k")]
        )


class TestUnionAll:
    def test_concatenates(self):
        t1 = Table("a", {"x": [1], "y": ["a"]})
        t2 = Table("b", {"x": [2], "y": ["bb"]})
        out = union_all([t1, t2])
        assert sorted(out.to_rows()) == [(1, "a"), (2, "bb")]

    def test_string_widening(self):
        t1 = Table("a", {"s": ["x"]})
        t2 = Table("b", {"s": ["longer"]})
        out = union_all([t1, t2])
        assert out["s"].dtype == np.dtype("S6")
        assert b"longer" in list(out["s"])

    def test_mismatched_schema_rejected(self):
        t1 = Table("a", {"x": [1]})
        t2 = Table("b", {"y": [1]})
        with pytest.raises(SchemaError):
            union_all([t1, t2])

    def test_empty_input_rejected(self):
        with pytest.raises(SchemaError):
            union_all([])
