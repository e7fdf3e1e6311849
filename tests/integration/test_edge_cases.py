"""Edge cases through the full pipeline: degenerate tables and inputs."""

import numpy as np
import pytest

from repro.api import Session
from repro.engine.table import Table
from repro.workloads.queries import single_column_queries


def run_pipeline(table, statistics="exact"):
    session = Session.for_table(table, statistics=statistics)
    queries = single_column_queries(table.column_names)
    result = session.optimize(queries)
    result.plan.validate()
    run = session.execute(result.plan)
    naive = session.run_naive(queries)
    for query in queries:
        assert sorted(run.results[query].to_rows()) == sorted(
            naive.results[query].to_rows()
        )
    return run


class TestDegenerateTables:
    def test_empty_table(self):
        table = Table(
            "e",
            {
                "a": np.array([], dtype=np.int64),
                "b": np.array([], dtype=np.int64),
            },
        )
        run = run_pipeline(table)
        for result in run.results.values():
            assert result.num_rows == 0

    def test_single_row(self):
        table = Table("one", {"a": [7], "b": ["x"], "c": [1.5]})
        run = run_pipeline(table)
        for result in run.results.values():
            assert result.num_rows == 1
            assert int(result["cnt"][0]) == 1

    def test_all_identical_rows(self):
        table = Table("same", {"a": [3] * 200, "b": ["k"] * 200})
        run = run_pipeline(table)
        for result in run.results.values():
            assert result.num_rows == 1
            assert int(result["cnt"][0]) == 200

    def test_all_distinct_rows(self):
        n = 300
        table = Table(
            "keys", {"a": np.arange(n), "b": np.arange(n) * 7}
        )
        run = run_pipeline(table)
        for result in run.results.values():
            assert result.num_rows == n

    def test_single_column_table(self):
        table = Table("narrow", {"only": [1, 2, 2, 3]})
        run = run_pipeline(table)
        assert run.results[frozenset(["only"])].num_rows == 3

    def test_wide_unicode_values(self):
        table = Table(
            "uni",
            {
                "s": ["héllo", "wörld", "héllo", "日本語テキスト"],
                "k": [1, 2, 1, 3],
            },
        )
        run = run_pipeline(table)
        result = run.results[frozenset(["s"])]
        assert result["s"].dtype.kind == "S"
        values = dict(result.to_rows(["s", "cnt"]))
        assert int(values["héllo"]) == 2
        assert int(values["日本語テキスト"]) == 1

    def test_sampled_statistics_on_tiny_table(self):
        table = Table("tiny", {"a": [1, 1, 2], "b": [5, 6, 7]})
        run_pipeline(table, statistics="sampled")

    def test_negative_and_extreme_ints(self):
        table = Table(
            "ext",
            {
                "a": [-(2**40), 0, 2**40, -(2**40)],
                "b": [1, 1, 2, 2],
            },
        )
        run = run_pipeline(table)
        assert run.results[frozenset(["a"])].num_rows == 3
