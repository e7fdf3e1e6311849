"""Benchmark for Figure 11 — impact of the pruning techniques
(Section 6.6).

Paper shape: on TC workloads, S and M each cut optimizer calls
substantially and S+M cuts them the most (up to ~80%), while the plan
still reduces naive cost by a large margin.

The paper's "None" is a loop that costs every pair it walks; that loop
is ``tests.core.support.reference_search``, and the cuts are asserted
against its count.  The production search costs a pair only once a
floor under its delta surfaces (bound-first), which makes its own
unpruned count the smallest on TC — below S+M's, with the unpruned
plan — because monotonicity needs each verdict at walk time.
"""

from repro.core.optimizer import GbMqoOptimizer
from repro.experiments import exp_fig11
from repro.experiments.harness import make_session
from repro.workloads.queries import two_column_queries
from repro.workloads.sales import SALES_COLUMNS, make_sales
from repro.workloads.tpch import LINEITEM_SC_COLUMNS, make_lineitem
from tests.core.support import reference_search


def eager_calls(table, columns):
    session = make_session(table)
    unpruned = exp_fig11.PRUNING_CONFIGS[0][1]
    return reference_search(
        GbMqoOptimizer(session.coster(), unpruned),
        session.base_table,
        two_column_queries(columns),
    ).optimizer_calls


def test_fig11_shapes(benchmark, bench_rows):
    rows = max(bench_rows // 2, 10_000)
    result = benchmark.pedantic(
        exp_fig11.run,
        kwargs={
            "rows": rows,
            "datasets": ("tpc-h", "sales"),
            "workloads": ("SC", "TC"),
        },
        rounds=1,
        iterations=1,
    )
    print("\n" + result.render())
    by_key = {(r[0], r[1]): r for r in result.rows}
    eager = {
        "tpc-h (tc)": eager_calls(make_lineitem(rows), LINEITEM_SC_COLUMNS),
        "sales (tc)": eager_calls(make_sales(rows), SALES_COLUMNS),
    }
    print(f"eager (reference_search) unpruned calls: {eager}")
    for dataset, eager_none in eager.items():
        none_calls = by_key[(dataset, "None")][2]
        sm_calls = by_key[(dataset, "S+M")][2]
        s_calls = by_key[(dataset, "S")][2]
        assert s_calls <= none_calls <= eager_none
        # Substantial reduction on the TC workloads, pruned or bound-first.
        assert sm_calls <= eager_none * 0.7
        assert none_calls <= eager_none * 0.7
        # The pruned optimizer's plan still beats naive on work.
        assert by_key[(dataset, "S+M")][4] > 0
