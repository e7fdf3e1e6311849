"""String Group By keys end to end: a ``Session`` batch against the oracle.

The key columns mix the ``STR_NULL`` sentinel, non-ASCII text (1-, 2-
and 4-byte code points) and a near-unique column, so every result
depends on the string dictionary encode being exact and order
preserving.  Expected results come from the benchmark's independent
oracle, which shares no code with the engine.
"""

import numpy as np
import pytest
from benchmarks.e2e.oracle import Oracle, canonical

from repro.api import Session
from repro.engine.table import Table
from repro.engine.types import STR_NULL
from repro.workloads.queries import single_column_queries, two_column_queries


def string_key_table(n_rows=3_000, seed=5):
    rng = np.random.default_rng(seed)
    words = np.array([STR_NULL, "a", "a\x00b", "été", "中", "\U0001F600x"])
    return Table(
        "strings",
        {
            "word": words[rng.integers(0, len(words), n_rows)],
            "tag": rng.choice(np.array(["x", "yy", STR_NULL]), n_rows),
            "note": np.array(
                [f"ü{i:012d}" for i in rng.integers(0, n_rows, n_rows)]
            ),
            "num": rng.integers(0, 7, n_rows),
        },
    )


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("query_set", ["sc", "tc"])
def test_string_keys_match_oracle(parallelism, query_set):
    table = string_key_table()
    columns = table.column_names
    queries = (
        single_column_queries(columns)
        if query_set == "sc"
        else two_column_queries(columns)
    )
    session = Session.for_table(table, statistics="exact")
    plan = session.optimize(queries).plan
    result = session.execute(plan, parallelism=parallelism)
    expected = Oracle.for_table(table, columns).expected(queries)
    for query, want in expected.items():
        assert canonical(result.results[query], query).matches(want), sorted(query)
