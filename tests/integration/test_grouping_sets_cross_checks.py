"""Cross-implementation consistency: every way of computing a set of
groupings must agree.

The repository ends up with six independent implementations that can
answer the same workload — naive Group Bys, GB-MQO plans, the
commercial GROUPING SETS baseline, PipeSort, PipeHash, and (for full
lattices) cube / partitioned cube.  Any divergence
between them is a bug in exactly one place, which makes this the
highest-leverage integration test in the suite.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.baselines.grouping_sets import CommercialGroupingSetsPlanner
from repro.engine.grouping_sets import cube
from repro.engine.partitioned_cube import partitioned_cube
from repro.engine.pipesort import pipehash, pipesort
from repro.engine.table import Table
from repro.workloads.queries import combi_workload


def make_table(seed, n=600):
    rng = np.random.default_rng(seed)
    return Table(
        "x",
        {
            "a": rng.integers(0, 7, n),
            "b": rng.integers(0, 3, n),
            "c": rng.integers(0, 20, n),
        },
    )


def canonical(table, query):
    keys = sorted(query)
    return sorted(
        tuple(table[k][i].item() for k in keys) + (int(table["cnt"][i]),)
        for i in range(table.num_rows)
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 3_000))
def test_all_implementations_agree(seed):
    table = make_table(seed)
    queries = combi_workload(["a", "b", "c"], 3)
    session = Session.for_table(table, statistics="exact")

    reference = {
        q: canonical(session.run_naive(queries).results[q], q)
        for q in queries
    }

    # GB-MQO plan.
    outcome = session.run(queries)
    for q in queries:
        assert canonical(outcome.execution.results[q], q) == reference[q]

    # Commercial GROUPING SETS (either strategy).
    planner = CommercialGroupingSetsPlanner(session.catalog, "x")
    gs = planner.execute(queries)
    for q in queries:
        assert canonical(gs.results[q], q) == reference[q]

    # PipeSort / PipeHash.
    for results in (pipesort(table, queries).results, pipehash(table, queries)):
        for q in queries:
            assert canonical(results[q], q) == reference[q]

    # Cube and partitioned cube (the workload is the full lattice).
    for results in (
        cube(table, ["a", "b", "c"]),
        partitioned_cube(table, ["a", "b", "c"], memory_rows=150),
    ):
        for q in queries:
            assert canonical(results[q], q) == reference[q]
