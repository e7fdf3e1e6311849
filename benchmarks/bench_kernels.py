"""Kernel benchmark: legacy vs cached dictionary encoding vs parallel.

Times three ways of answering a multi-query Group By workload whose
queries repeatedly touch the same base columns:

* **legacy** — the pre-cache execution shape: every query re-factorizes
  its key columns with sort-based ``np.unique`` and groups through a
  second ``np.unique`` over the composite codes (no sharing between
  queries);
* **cached** — one plan-wide :class:`~repro.engine.dictcache.
  DictionaryCache` shared by every query, the O(n) dense-range encode
  fast path, and the fused bincount grouping kernel;
* **serial / parallel** — full plan execution through
  :class:`~repro.engine.executor.PlanExecutor`, serial vs wavefront
  (``parallelism=4``), verifying bit-identical results and equal
  metrics totals while timing both.

Writes ``BENCH_kernels.json`` at the repository root::

    python benchmarks/bench_kernels.py [--rows N] [--repeats K] [--smoke]

``--smoke`` runs a reduced scale for CI: it still asserts the
serial/parallel equivalence flags but skips the speedup floor.
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
from repro.engine.aggregation import AggregateSpec, group_by  # noqa: E402
from repro.engine.dictcache import DictionaryCache, legacy_encode  # noqa: E402
from repro.engine.table import Table  # noqa: E402
from repro.obs.clock import monotonic  # noqa: E402
from repro.workloads.customers import make_customers  # noqa: E402
from repro.workloads.queries import combi_workload  # noqa: E402
from repro.workloads.sales import make_sales  # noqa: E402
from repro.workloads.tpch import make_lineitem  # noqa: E402

WORKLOAD_BUILDERS = {
    "sales": make_sales,
    "lineitem": make_lineitem,
    "customers": make_customers,
}

COUNT_STAR = [AggregateSpec.count_star("cnt")]


def fresh_view(table: Table) -> Table:
    """The same column arrays with no cached dictionaries."""
    return Table.wrap(table.name, {c: table[c] for c in table.column_names})


def legacy_group(table: Table, keys: list[str]) -> Table:
    """Pre-cache grouping kernel: per-query np.unique factorization of
    every key, then np.unique over the composite codes."""
    n = table.num_rows
    combined = np.zeros(n, dtype=np.int64)
    per_key = {}
    for key in keys:
        codes, uniques = legacy_encode(table[key])
        card = max(len(uniques), 1)
        combined = combined * card + codes
        per_key[key] = uniques
    _, first, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    counts = np.bincount(inverse, minlength=len(first)).astype(np.int64)
    columns = {key: table[key][first] for key in keys}
    columns["cnt"] = counts
    return Table.wrap("legacy_" + "_".join(keys), columns)


def run_legacy(
    table: Table, queries
) -> tuple[float, dict[frozenset[str], Table]]:
    results = {}
    started = monotonic()
    for query in queries:
        # A fresh view per query: nothing is shared across queries.
        results[query] = legacy_group(fresh_view(table), sorted(query))
    return monotonic() - started, results


def run_cached(
    table: Table, queries
) -> tuple[float, dict[frozenset[str], Table], dict[str, int]]:
    shared = fresh_view(table)
    cache = DictionaryCache()
    results = {}
    started = monotonic()
    for query in queries:
        results[query] = group_by(
            shared, sorted(query), COUNT_STAR, dictionaries=cache
        )
    return monotonic() - started, results, cache.stats()


def tables_match(a: Table, b: Table) -> bool:
    if a.num_rows != b.num_rows or set(a.column_names) != set(b.column_names):
        return False
    return all(np.array_equal(a[c], b[c]) for c in a.column_names)


def run_executors(maker, rows: int, queries, parallelism: int):
    """Serial and parallel full-plan runs on identical fresh sessions."""
    serial_session = Session.for_table(maker(rows), statistics="exact")
    parallel_session = Session.for_table(maker(rows), statistics="exact")
    plan = serial_session.optimize(queries).plan
    parallel_plan = parallel_session.optimize(queries).plan

    started = monotonic()
    serial = serial_session.execute(plan)
    serial_seconds = monotonic() - started

    started = monotonic()
    parallel = parallel_session.execute(
        parallel_plan, parallelism=parallelism
    )
    parallel_seconds = monotonic() - started

    results_match = set(serial.results) == set(parallel.results) and all(
        tables_match(serial.results[q], parallel.results[q])
        for q in serial.results
    )
    metrics_match = serial.metrics.as_dict(
        per_query=True
    ) == parallel.metrics.as_dict(per_query=True)
    return serial_seconds, parallel_seconds, results_match, metrics_match


def bench_workload(
    name: str, rows: int, repeats: int, parallelism: int
) -> dict[str, object]:
    maker = WORKLOAD_BUILDERS[name]
    table = maker(rows)
    columns = list(table.column_names)[:5]
    queries = combi_workload(columns, 2)

    # Correctness first, then timing: the two kernels must agree, but
    # holding both result sets alive during the timed passes distorts
    # them (tens of MB of retained key columns -> allocator pressure).
    _, legacy_results = run_legacy(table, queries)
    _, cached_results, _ = run_cached(table, queries)
    kernels_match = all(
        tables_match(legacy_results[q], cached_results[q]) for q in queries
    )
    del legacy_results, cached_results

    legacy_best = float("inf")
    cached_best = float("inf")
    cache_stats = {}
    for _ in range(repeats):
        cached_seconds, results, cache_stats = run_cached(table, queries)
        del results
        cached_best = min(cached_best, cached_seconds)
    for _ in range(repeats):
        legacy_seconds, results = run_legacy(table, queries)
        del results
        legacy_best = min(legacy_best, legacy_seconds)

    serial_seconds, parallel_seconds, results_match, metrics_match = (
        run_executors(maker, rows, queries, parallelism)
    )
    return {
        "rows": rows,
        "queries": len(queries),
        "legacy_seconds": legacy_best,
        "cached_seconds": cached_best,
        "speedup_cached": legacy_best / max(cached_best, 1e-12),
        "kernels_match": kernels_match,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup_parallel": serial_seconds / max(parallel_seconds, 1e-12),
        "parallelism": parallelism,
        "results_match": results_match,
        "metrics_match": metrics_match,
        "dictionary_cache": cache_stats,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=120_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--parallelism", type=int, default=4)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scale for CI; checks correctness flags only",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_kernels.json",
        help="output JSON path (default: BENCH_kernels.json at repo root)",
    )
    args = parser.parse_args(argv)
    rows = 4_000 if args.smoke else args.rows
    repeats = 1 if args.smoke else args.repeats

    payload = {
        "benchmark": "dictionary-cache kernels vs legacy np.unique path",
        "smoke": args.smoke,
        "workloads": {},
    }
    for name in sorted(WORKLOAD_BUILDERS):
        payload["workloads"][name] = bench_workload(
            name, rows, repeats, args.parallelism
        )
        entry = payload["workloads"][name]
        print(
            f"{name:10s} cached {entry['speedup_cached']:.2f}x "
            f"(legacy {entry['legacy_seconds'] * 1e3:.1f} ms -> "
            f"cached {entry['cached_seconds'] * 1e3:.1f} ms)  "
            f"parallel {entry['speedup_parallel']:.2f}x  "
            f"results_match={entry['results_match']} "
            f"metrics_match={entry['metrics_match']}"
        )
    payload["min_speedup_cached"] = min(
        entry["speedup_cached"] for entry in payload["workloads"].values()
    )

    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")

    failures = []
    for name, entry in payload["workloads"].items():
        if not (
            entry["results_match"]
            and entry["metrics_match"]
            and entry["kernels_match"]
        ):
            failures.append(f"{name}: correctness flags not all true")
    if not args.smoke and payload["min_speedup_cached"] < 2.0:
        failures.append(
            f"cached speedup {payload['min_speedup_cached']:.2f}x "
            "below the 2x floor"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
