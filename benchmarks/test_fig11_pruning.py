"""Benchmark for Figure 11 — impact of the pruning techniques
(Section 6.6).

Paper shape: on TC workloads, S and M each cut optimizer calls
substantially and S+M cuts them the most (up to ~80%), while the plan
still reduces naive cost by a large margin.

The paper's loop costs every pair it walks; that loop is
``repro.core.pruning.eager_search``, and the cuts are asserted on it.
The production search ("bound-first") costs a pair only once a floor
under its delta surfaces and runs no pruner; on TC it cuts the eager
count at least as far as the paper's target, with a plan at least as
cheap as S+M's.  It makes fewer calls than eager S+M outright on sales
TC at every scale measured (5k-150k rows), on tpc-h TC only from about
15k rows up (EXPERIMENTS.md, Figure 11).
"""

from repro.experiments import exp_fig11


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
    calls = {(r[0], r[1]): r[2] for r in result.rows}
    cost = {(r[0], r[1]): r[3] for r in result.rows}
    work_reduction = {(r[0], r[1]): r[5] for r in result.rows}
    for dataset in ("tpc-h (sc)", "tpc-h (tc)", "sales (sc)", "sales (tc)"):
        eager_none = calls[(dataset, "eager None")]
        assert calls[(dataset, "eager S")] <= eager_none
        assert calls[(dataset, "eager M")] <= eager_none
    for dataset in ("tpc-h (tc)", "sales (tc)"):
        eager_none = calls[(dataset, "eager None")]
        # Substantial reduction on the TC workloads.
        assert calls[(dataset, "eager S+M")] <= 0.7 * eager_none
        assert calls[(dataset, "bound-first")] <= 0.7 * eager_none
        assert cost[(dataset, "bound-first")] <= cost[(dataset, "eager S+M")]
        # The pruned plan still beats naive on work.
        assert work_reduction[(dataset, "eager S+M")] > 0
    sales = calls[("sales (tc)", "bound-first")]
    assert sales <= calls[("sales (tc)", "eager S+M")]
