"""A tour of the physical execution strategies the literature offers.

GB-MQO decides *what* to materialize; the datacube literature supplies
the operators that execute sets of groupings.  This example runs the
same workload through four of them and compares scan volume:

* naive — one hash aggregation per query off the base table;
* PipeSort (refs [2,4]) — shared sorts along inclusion chains;
* Partitioned-Cube (ref [16]) — out-of-memory cube by partitioning;
* GB-MQO staging — the paper's materialized intermediates.

Run with::

    python examples/physical_operators_tour.py [rows]
"""

import sys

from repro import api
from repro.engine.metrics import ExecutionMetrics
from repro.engine.partitioned_cube import partitioned_cube
from repro.engine.pipesort import pipesort
from repro.workloads.queries import combi_workload

COLUMNS = ("l_returnflag", "l_linestatus", "l_shipmode")


def main() -> None:
    rows = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000
    table = api.make_lineitem(rows)
    table.build_dictionaries()
    session = api.Session.for_table(table, statistics="sampled")
    # The full cube over three columns: 7 groupings.
    queries = combi_workload(COLUMNS, len(COLUMNS))
    print(
        f"workload: all {len(queries)} groupings of {COLUMNS} "
        f"on {rows:,} rows\n"
    )
    report = []

    naive = session.run_naive(queries)
    report.append(("naive", naive.metrics.work, naive.wall_seconds))

    metrics = ExecutionMetrics()
    import time

    started = time.perf_counter()
    piped = pipesort(table, queries, metrics=metrics)
    pipe_seconds = time.perf_counter() - started
    report.append(
        (f"PipeSort ({piped.sorts_performed} sorts)", metrics.work, pipe_seconds)
    )

    metrics = ExecutionMetrics()
    started = time.perf_counter()
    partitioned_cube(
        table, list(COLUMNS), memory_rows=rows // 4, metrics=metrics
    )
    pc_seconds = time.perf_counter() - started
    report.append(("Partitioned-Cube", metrics.work, pc_seconds))

    outcome = session.run(queries)
    report.append(
        (
            "GB-MQO staging",
            outcome.execution.metrics.work,
            outcome.execution.wall_seconds,
        )
    )
    print(f"{'strategy':28} {'MB moved':>10} {'seconds':>9}")
    print("-" * 50)
    for name, work, seconds in report:
        print(f"{name:28} {work / 1e6:>10.1f} {seconds:>9.3f}")

    print("\nGB-MQO's chosen staging:")
    print(outcome.optimization.plan.render())


if __name__ == "__main__":
    main()
