"""Semantic result cache benchmark: cold vs exact-hit vs derived-hit.

Times three ways of answering the same grouping workloads over one
base relation through :class:`~repro.api.Session`:

* **cold** — cache disabled: every query pays its full scan-and-group
  cost (the PR-9 behavior, and the bit-identity reference);
* **exact** — the cache-enabled session re-executes a workload whose
  results are all resident: every query lowers to a zero-scan
  ``CacheRead`` serving the stored table;
* **derived** — a *coarser* workload (single columns) is answered from
  cached *finer* results (column pairs) via the grouping lattice:
  each query lowers to ``CacheRead -> Reaggregate``, re-grouping a few
  hundred cached rows instead of re-scanning the fact table.  The
  cache is cleared and re-populated with the pair results between
  repeats so every measured run exercises the derived path, never an
  exact hit on its own output.

Every served result must be bit-identical to the cold execution.  At
full scale the exact path must clear **5x** over cold and the derived
path **1.5x** over its own cold baseline.

Writes ``BENCH_cache.json`` at the repository root::

    python benchmarks/bench_cache.py [--rows N] [--repeats K] [--smoke]

``--smoke`` runs a reduced scale for CI: it still asserts the
bit-identity flags and hit counters but skips the speedup floors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import Session  # noqa: E402
from repro.engine.table import Table  # noqa: E402
from repro.obs.clock import monotonic  # noqa: E402
from repro.workloads.queries import (  # noqa: E402
    single_column_queries,
    two_column_queries,
)
from repro.workloads.sales import make_sales  # noqa: E402

#: Grouping columns: the geographic hierarchy plus an independent one.
COLUMNS = ["region", "state", "city", "brand"]

#: Full-scale acceptance floors (skipped under --smoke).
MIN_SPEEDUP_EXACT = 5.0
MIN_SPEEDUP_DERIVED = 1.5


def tables_match(a: Table, b: Table) -> bool:
    if a.num_rows != b.num_rows or set(a.column_names) != set(b.column_names):
        return False
    return all(np.array_equal(a[c], b[c]) for c in a.column_names)


def results_match(reference, other, queries) -> bool:
    return all(
        tables_match(reference.results[q], other.results[q]) for q in queries
    )


def best_of(repeats: int, run):
    """Best wall time over ``repeats`` calls and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = monotonic()
        result = run()
        best = min(best, monotonic() - started)
    return best, result


def bench(rows: int, repeats: int) -> dict[str, object]:
    table = make_sales(rows)
    table.build_dictionaries()
    pairs = two_column_queries(COLUMNS)
    singles = single_column_queries(COLUMNS)

    # Cold baselines: cache off, every run pays the full cost.
    cold = Session.for_table(table, statistics="exact")
    pairs_plan_cold = cold.optimize(pairs).plan
    singles_plan_cold = cold.optimize(singles).plan
    cold_seconds, cold_pairs = best_of(
        repeats, lambda: cold.execute(pairs_plan_cold)
    )
    derived_cold_seconds, cold_singles = best_of(
        repeats, lambda: cold.execute(singles_plan_cold)
    )

    # Exact hits: populate once, then every repeat serves from cache.
    cached = Session.for_table(table, statistics="exact", cache=True)
    pairs_plan = cached.optimize(pairs).plan
    cached.execute(pairs_plan)
    exact_seconds, warm_pairs = best_of(
        repeats, lambda: cached.execute(pairs_plan)
    )
    exact_hits = cached.cache_stats()["hits"]

    # Derived hits: singles answered from the cached pair results.  The
    # first derived execution caches its own (exact) outputs, so reset
    # and re-populate with the pairs between repeats — unmeasured — to
    # keep every measured run on the CacheRead -> Reaggregate path.
    singles_plan = cached.optimize(singles).plan

    def run_derived():
        assert cached.result_cache is not None
        cached.result_cache.clear()
        cached.execute(pairs_plan)
        started = monotonic()
        result = cached.execute(singles_plan)
        return monotonic() - started, result

    derived_seconds = float("inf")
    warm_singles = None
    for _ in range(repeats):
        seconds, warm_singles = run_derived()
        derived_seconds = min(derived_seconds, seconds)
    derived_hits = cached.cache_stats()["derived_hits"]

    return {
        "rows": rows,
        "queries_exact": len(pairs),
        "queries_derived": len(singles),
        "cold_seconds": cold_seconds,
        "exact_seconds": exact_seconds,
        "derived_cold_seconds": derived_cold_seconds,
        "derived_seconds": derived_seconds,
        "speedup_exact": cold_seconds / max(exact_seconds, 1e-12),
        "speedup_derived": derived_cold_seconds / max(derived_seconds, 1e-12),
        "exact_hits": exact_hits,
        "derived_hits": derived_hits,
        "results_match_exact": results_match(cold_pairs, warm_pairs, pairs),
        "results_match_derived": results_match(
            cold_singles, warm_singles, singles
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=300_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scale for CI; checks correctness flags only",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_cache.json",
        help="output JSON path (default: BENCH_cache.json at repo root)",
    )
    args = parser.parse_args(argv)
    rows = 4_000 if args.smoke else args.rows
    repeats = 1 if args.smoke else args.repeats

    payload = {
        "benchmark": "semantic result cache: cold vs exact vs derived",
        "smoke": args.smoke,
        **bench(rows, repeats),
    }
    print(
        f"cold {payload['cold_seconds'] * 1e3:8.1f} ms  "
        f"exact {payload['speedup_exact']:.1f}x  "
        f"derived {payload['speedup_derived']:.1f}x  "
        f"results_match_exact={payload['results_match_exact']} "
        f"results_match_derived={payload['results_match_derived']}"
    )

    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")

    failures = []
    if not payload["results_match_exact"]:
        failures.append("exact-hit results differ from cold execution")
    if not payload["results_match_derived"]:
        failures.append("derived-hit results differ from cold execution")
    if payload["exact_hits"] < payload["queries_exact"]:
        failures.append(
            f"only {payload['exact_hits']} exact hits for "
            f"{payload['queries_exact']} queries"
        )
    if payload["derived_hits"] < payload["queries_derived"]:
        failures.append(
            f"only {payload['derived_hits']} derived hits for "
            f"{payload['queries_derived']} queries"
        )
    if not args.smoke:
        if payload["speedup_exact"] < MIN_SPEEDUP_EXACT:
            failures.append(
                f"exact speedup {payload['speedup_exact']:.2f}x below the "
                f"{MIN_SPEEDUP_EXACT:.1f}x floor"
            )
        if payload["speedup_derived"] < MIN_SPEEDUP_DERIVED:
            failures.append(
                f"derived speedup {payload['speedup_derived']:.2f}x below "
                f"the {MIN_SPEEDUP_DERIVED:.1f}x floor"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
