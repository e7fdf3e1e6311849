"""Benchmark for Figure 10 — scaling with the number of columns
(Section 6.4).

Paper shape: optimizer calls grow with width (quadratically in the
paper, which costs every pair) but the optimization stays cheap (48 single-column queries well under the
paper's 100 s), and the runtime advantage over naive grows with width.
"""

from repro.experiments import exp_fig10


def test_fig10_shapes(benchmark, bench_rows):
    widths = (12, 24, 36, 48)
    result = benchmark.pedantic(
        exp_fig10.run,
        kwargs={
            "rows": max(bench_rows // 3, 5_000),
            "widths": widths,
            "repeats": 2,
        },
        rounds=1,
        iterations=1,
    )
    print("\n" + result.render())
    calls = result.column("optimizer calls")
    assert all(b > a for a, b in zip(calls, calls[1:]))
    # The pairs walked grow quadratically with width, but a pair is
    # costed only once a floor under its delta surfaces, so calls grow
    # close to linearly: quadrupling width grows them by about as much,
    # not by the 16x of costing every pair (10,436 calls at 48 columns
    # before bound-first costing), let alone the lattice's 2^48.
    assert 3 < calls[-1] / calls[0] < 16
    assert calls[-1] < 200_000
    opt_seconds = result.column("opt time (s)")
    assert all(seconds < 100 for seconds in opt_seconds)
    speedups = result.column("speedup")
    assert speedups[-1] > speedups[0]
