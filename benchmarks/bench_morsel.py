"""Morsel benchmark: serial vs wavefront vs morsel-driven execution.

Times three execution modes of :class:`~repro.engine.executor.
PlanExecutor` over the same optimized plan:

* **serial** — pipelines in schedule order, one full row-store pass per
  grouping (``parallelism=1``);
* **wavefront** — dependency waves across a thread pool, node-level
  parallelism (``parallelism=4, mode="wavefront"``);
* **morsel** — the two-phase path (``parallelism=4, mode="auto"``):
  each wave's groupings batch by input table, every morsel pays one
  shared scan feeding all groupings in the batch, partial aggregate
  states merge bit-identical to the single pass.  Auto mode records
  which mode the engine cost model actually resolved.

Every mode must produce bit-identical result tables and equal
deterministic metrics totals; the morsel column must never lose to
serial, and at least one full-scale workload must clear 1.5x.

Writes ``BENCH_morsel.json`` at the repository root::

    python benchmarks/bench_morsel.py [--rows N] [--repeats K] [--smoke]

``--smoke`` runs a reduced scale for CI with ``mode="morsel"`` forced
(auto would resolve serial below the cost-model floors): it still
asserts the equivalence flags but skips the speedup floors.
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
from repro.workloads.customers import make_customers  # noqa: E402
from repro.workloads.queries import (  # noqa: E402
    combi_workload,
    single_column_queries,
)
from repro.workloads.tpch import make_lineitem  # noqa: E402

#: (table maker, query maker) per workload.  ``lineitem-singles`` is
#: the shared-scan showcase: sixteen incomparable single-column
#: groupings over one wide base relation, where serial pays sixteen
#: full scans and the morsel batch pays one per morsel.
WORKLOADS = {
    "lineitem-pairs": (
        make_lineitem,
        lambda table: combi_workload(list(table.column_names)[:5], 2),
    ),
    "lineitem-singles": (
        make_lineitem,
        lambda table: single_column_queries(list(table.column_names)),
    ),
    "customers-pairs": (
        make_customers,
        lambda table: combi_workload(list(table.column_names)[:5], 2),
    ),
}

#: Full-scale acceptance floors (skipped under --smoke).
MIN_SPEEDUP_EVERYWHERE = 1.0
MIN_SPEEDUP_BEST = 1.5


def tables_match(a: Table, b: Table) -> bool:
    if a.num_rows != b.num_rows or set(a.column_names) != set(b.column_names):
        return False
    return all(np.array_equal(a[c], b[c]) for c in a.column_names)


def run_mode(session, plan, repeats: int, **execute_kwargs):
    """Best-of-``repeats`` wall time and the last execution result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = monotonic()
        result = session.execute(plan, **execute_kwargs)
        best = min(best, monotonic() - started)
    return best, result


def bench_workload(
    name: str, rows: int, repeats: int, parallelism: int, smoke: bool
) -> dict[str, object]:
    maker, query_maker = WORKLOADS[name]
    table = maker(rows)
    session = Session.for_table(table, statistics="exact")
    queries = query_maker(table)
    plan = session.optimize(queries).plan

    serial_seconds, serial = run_mode(session, plan, repeats, parallelism=1)
    wavefront_seconds, wavefront = run_mode(
        session, plan, repeats, parallelism=parallelism, mode="wavefront"
    )
    # Full scale exercises auto resolution (and records what it chose);
    # smoke forces the morsel path, which auto would skip below the
    # cost-model floors.
    morsel_mode = "morsel" if smoke else "auto"
    morsel_seconds, morsel = run_mode(
        session, plan, repeats, parallelism=parallelism, mode=morsel_mode
    )

    def matches(other):
        results = set(serial.results) == set(other.results) and all(
            tables_match(serial.results[q], other.results[q])
            for q in serial.results
        )
        metrics = serial.metrics.as_dict(
            per_query=True
        ) == other.metrics.as_dict(per_query=True)
        return results, metrics

    results_match_wavefront, metrics_match_wavefront = matches(wavefront)
    results_match_morsel, metrics_match_morsel = matches(morsel)
    return {
        "rows": rows,
        "queries": len(queries),
        "parallelism": parallelism,
        "serial_seconds": serial_seconds,
        "wavefront_seconds": wavefront_seconds,
        "morsel_seconds": morsel_seconds,
        "speedup_wavefront": serial_seconds / max(wavefront_seconds, 1e-12),
        "speedup_parallel": serial_seconds / max(morsel_seconds, 1e-12),
        "mode_requested": morsel_mode,
        "mode_resolved": morsel.metrics.mode,
        "results_match_wavefront": results_match_wavefront,
        "metrics_match_wavefront": metrics_match_wavefront,
        "results_match_morsel": results_match_morsel,
        "metrics_match_morsel": metrics_match_morsel,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=300_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--parallelism", type=int, default=4)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scale for CI; checks correctness flags only",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_morsel.json",
        help="output JSON path (default: BENCH_morsel.json at repo root)",
    )
    args = parser.parse_args(argv)
    rows = 4_000 if args.smoke else args.rows
    repeats = 1 if args.smoke else args.repeats

    payload = {
        "benchmark": "morsel-driven two-phase execution vs serial/wavefront",
        "smoke": args.smoke,
        "workloads": {},
    }
    for name in sorted(WORKLOADS):
        entry = bench_workload(
            name, rows, repeats, args.parallelism, args.smoke
        )
        payload["workloads"][name] = entry
        print(
            f"{name:18s} serial {entry['serial_seconds'] * 1e3:8.1f} ms  "
            f"wavefront {entry['speedup_wavefront']:.2f}x  "
            f"morsel {entry['speedup_parallel']:.2f}x "
            f"(mode={entry['mode_resolved']})  "
            f"results_match={entry['results_match_morsel']} "
            f"metrics_match={entry['metrics_match_morsel']}"
        )
    speedups = [
        entry["speedup_parallel"]
        for entry in payload["workloads"].values()
    ]
    payload["min_speedup_parallel"] = min(speedups)
    payload["max_speedup_parallel"] = max(speedups)

    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")

    failures = []
    for name, entry in payload["workloads"].items():
        flags = (
            entry["results_match_wavefront"],
            entry["metrics_match_wavefront"],
            entry["results_match_morsel"],
            entry["metrics_match_morsel"],
        )
        if not all(flags):
            failures.append(f"{name}: equivalence flags not all true")
        if args.smoke and entry["mode_resolved"] != "morsel":
            failures.append(
                f"{name}: smoke run resolved {entry['mode_resolved']!r}, "
                "expected the forced morsel path"
            )
    if not args.smoke:
        if payload["min_speedup_parallel"] < MIN_SPEEDUP_EVERYWHERE:
            failures.append(
                f"morsel speedup {payload['min_speedup_parallel']:.2f}x "
                f"below the {MIN_SPEEDUP_EVERYWHERE:.1f}x floor"
            )
        if payload["max_speedup_parallel"] < MIN_SPEEDUP_BEST:
            failures.append(
                f"best morsel speedup {payload['max_speedup_parallel']:.2f}x "
                f"below the {MIN_SPEEDUP_BEST:.1f}x floor"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
