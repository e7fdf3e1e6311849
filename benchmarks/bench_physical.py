"""Physical lowering benchmark: hash vs sort vs cost-chosen grouping.

For each built-in workload the optimizer's plan is lowered three ways:

* **chosen** — the real lowering: hash vs sort decided per grouping
  operator from the cost model and column statistics;
* **all-hash** — every grouping operator rewritten to ``HashGroupBy``
  (the engine's actual-radix guard still protects infeasible domains);
* **all-sort** — every grouping operator rewritten to ``SortGroupBy``,
  forcing the composite-code sort regime.

All three variants must verify (PV012+) and execute bit-identically —
the regimes differ only in cost — and the chosen lowering is also run
on the parallel wavefront executor for the serial/parallel equivalence
check.  Timings and the per-plan operator mix are recorded in
``BENCH_physical.json`` at the repository root::

    python benchmarks/bench_physical.py [--rows N] [--repeats K] [--smoke]

``--smoke`` runs a reduced scale for CI: correctness flags are still
asserted; timings are recorded but not gated.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.physrules import check_physical_plan  # noqa: E402
from repro.api import Session  # noqa: E402
from repro.engine.table import Table  # noqa: E402
from repro.obs.clock import monotonic  # noqa: E402
from repro.physical.plan import (  # noqa: E402
    HashGroupBy,
    PhysicalPlan,
    Reaggregate,
    SortGroupBy,
)
from repro.workloads.customers import make_customers  # noqa: E402
from repro.workloads.queries import combi_workload  # noqa: E402
from repro.workloads.sales import make_sales  # noqa: E402
from repro.workloads.tpch import make_lineitem  # noqa: E402

WORKLOAD_BUILDERS = {
    "sales": make_sales,
    "lineitem": make_lineitem,
    "customers": make_customers,
}


def tables_match(a: Table, b: Table) -> bool:
    if a.num_rows != b.num_rows or set(a.column_names) != set(b.column_names):
        return False
    return all(np.array_equal(a[c], b[c]) for c in a.column_names)


def strategy_counts(physical: PhysicalPlan) -> dict[str, int]:
    counts = {"hash_ops": 0, "sort_ops": 0, "reaggregate_ops": 0}
    for op in physical.grouping_ops():
        if isinstance(op, Reaggregate):
            counts["reaggregate_ops"] += 1
        elif isinstance(op, HashGroupBy):
            counts["hash_ops"] += 1
        elif isinstance(op, SortGroupBy):
            counts["sort_ops"] += 1
    return counts


def force_strategy(physical: PhysicalPlan, strategy: str) -> PhysicalPlan:
    """Rewrite every grouping operator to one regime.

    ``Reaggregate`` keeps its class (its ``strategy`` field flips);
    Hash/SortGroupBy swap classes.  Forced-hash still runs through the
    engine's actual-radix guard, so both variants stay executable.
    """
    forced = []
    for op in physical.operators:
        if isinstance(op, Reaggregate):
            forced.append(dataclasses.replace(op, strategy=strategy))
        elif isinstance(op, (HashGroupBy, SortGroupBy)):
            fields = {
                f.name: getattr(op, f.name)
                for f in dataclasses.fields(op)
                if f.name != "input_sorted"
            }
            cls = HashGroupBy if strategy == "hash" else SortGroupBy
            forced.append(cls(**fields))
        else:
            forced.append(op)
    return dataclasses.replace(physical, operators=tuple(forced))


def execute_timed(session: Session, physical: PhysicalPlan):
    from repro.engine.executor import PlanExecutor

    executor = PlanExecutor(
        session.catalog, session.base_table, use_indexes=session.use_indexes
    )
    started = monotonic()
    execution = executor.execute_physical(physical)
    return monotonic() - started, execution


def bench_workload(
    name: str, rows: int, repeats: int, parallelism: int
) -> dict[str, object]:
    maker = WORKLOAD_BUILDERS[name]
    table = maker(rows)
    columns = list(table.column_names)[:5]
    queries = combi_workload(columns, 2)

    session = Session.for_table(maker(rows), statistics="exact")
    plan = session.optimize(queries).plan
    chosen = session.lower(plan)
    variants = {
        "chosen": chosen,
        "all_hash": force_strategy(chosen, "hash"),
        "all_sort": force_strategy(chosen, "sort"),
    }

    verifier_clean = True
    for physical in variants.values():
        verifier_clean = verifier_clean and not [
            d
            for d in check_physical_plan(physical)
            if d.severity.name == "ERROR"
        ]

    executions = {}
    timings = {}
    for variant, physical in variants.items():
        best = float("inf")
        execution = None
        for _ in range(repeats):
            seconds, execution = execute_timed(session, physical)
            best = min(best, seconds)
        executions[variant] = execution
        timings[variant] = best

    reference = executions["chosen"]
    results_match = all(
        set(execution.results) == set(reference.results)
        and all(
            tables_match(execution.results[q], reference.results[q])
            for q in reference.results
        )
        for execution in executions.values()
    )

    parallel_session = Session.for_table(maker(rows), statistics="exact")
    parallel_plan = parallel_session.optimize(queries).plan
    started = monotonic()
    parallel = parallel_session.execute(
        parallel_plan, parallelism=parallelism
    )
    parallel_seconds = monotonic() - started
    results_match = results_match and (
        set(parallel.results) == set(reference.results)
        and all(
            tables_match(parallel.results[q], reference.results[q])
            for q in reference.results
        )
    )

    counts = strategy_counts(chosen)
    return {
        "rows": rows,
        "queries": len(queries),
        **counts,
        "mixed_strategies": counts["hash_ops"] > 0
        and counts["sort_ops"] > 0,
        "chosen_seconds": timings["chosen"],
        "all_hash_seconds": timings["all_hash"],
        "all_sort_seconds": timings["all_sort"],
        "parallel_seconds": parallel_seconds,
        "parallelism": parallelism,
        "results_match": results_match,
        "verifier_clean": verifier_clean,
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
        default=REPO_ROOT / "BENCH_physical.json",
        help="output JSON path (default: BENCH_physical.json at repo root)",
    )
    args = parser.parse_args(argv)
    rows = 6_000 if args.smoke else args.rows
    repeats = 1 if args.smoke else args.repeats

    workloads = {}
    failed = False
    for name in WORKLOAD_BUILDERS:
        entry = bench_workload(name, rows, repeats, args.parallelism)
        workloads[name] = entry
        status = "ok" if entry["results_match"] else "MISMATCH"
        print(
            f"{name:<10} rows={entry['rows']:>8} "
            f"hash={entry['hash_ops']} sort={entry['sort_ops']} "
            f"reagg={entry['reaggregate_ops']} "
            f"chosen={entry['chosen_seconds']:.3f}s "
            f"all_hash={entry['all_hash_seconds']:.3f}s "
            f"all_sort={entry['all_sort_seconds']:.3f}s [{status}]"
        )
        failed = failed or not entry["results_match"]
        failed = failed or not entry["verifier_clean"]
    if not any(w["mixed_strategies"] for w in workloads.values()):
        print("warning: no workload mixed hash and sort lowering")
        failed = True

    payload = {"smoke": args.smoke, "workloads": workloads}
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
