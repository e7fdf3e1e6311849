"""Figure 11 — impact of the pruning techniques (Section 6.6).

Four pruning configurations — None, M (monotonicity), S (subsumption),
S+M — over SC and TC workloads on lineitem and SALES, in the
binary-tree space.  They prune the loop the paper measured, which costs
every pair it walks (:func:`repro.core.pruning.eager_search`); a fifth
row per workload is the production search, which prices a pair by a
floor under its delta first and runs no pruner ("bound-first").
Columns:

* (a) optimization cost, measured as optimizer calls;
* plan cost under the cost model, over the naive plan's;
* (b) run-time (and work) reduction of the produced plan vs naive.

Paper finding: S+M cuts optimizer calls by up to ~80% on the TC
workloads while the plan still reduces naive runtime by > 65%.
"""

from __future__ import annotations

from repro.core.optimizer import GbMqoOptimizer, OptimizerOptions
from repro.core.pruning import eager_search
from repro.experiments.harness import make_session, time_plan, trace_note
from repro.experiments.report import ExperimentResult
from repro.workloads.queries import single_column_queries, two_column_queries
from repro.workloads.sales import SALES_COLUMNS, make_sales
from repro.workloads.tpch import LINEITEM_SC_COLUMNS, make_lineitem

OPTIONS = OptimizerOptions(binary_tree_only=True)

#: Row label -> ``eager_search`` pruners (the paper's settings), or None
#: for the production search.
SEARCHES = (
    ("eager None", {}),
    ("eager M", {"monotonicity": True}),
    ("eager S", {"subsumption": True}),
    ("eager S+M", {"subsumption": True, "monotonicity": True}),
    ("bound-first", None),
)


def run(
    rows: int = 150_000,
    datasets: tuple[str, ...] = ("tpc-h", "sales"),
    workloads: tuple[str, ...] = ("SC", "TC"),
    repeats: int = 1,
) -> ExperimentResult:
    """Sweep pruning configurations over the dataset/workload grid."""
    result = ExperimentResult(
        experiment_id="Figure 11",
        title="Impact of pruning techniques (binary-tree space)",
        headers=(
            "Dataset",
            "Search",
            "Optimizer calls",
            "Plan cost / naive",
            "Runtime reduction %",
            "Work reduction %",
        ),
    )
    tables = {}
    if "tpc-h" in datasets:
        tables["tpc-h"] = (make_lineitem(rows), LINEITEM_SC_COLUMNS)
    if "sales" in datasets:
        tables["sales"] = (make_sales(rows), SALES_COLUMNS)
    for name, (table, columns) in tables.items():
        for workload in workloads:
            if workload == "SC":
                queries = single_column_queries(columns)
            else:
                queries = two_column_queries(columns)
            dataset = f"{name} ({workload.lower()})"
            for label, pruners in SEARCHES:
                session = make_session(table)
                if pruners is None:
                    optimization = session.optimize(queries, OPTIONS)
                else:
                    optimizer = GbMqoOptimizer(session.coster(), OPTIONS)
                    optimization = eager_search(
                        optimizer, session.base_table, queries, **pruners
                    )
                comparison = time_plan(session, queries, optimization, repeats)
                if label == "eager S+M":
                    result.notes.append(
                        f"{dataset} S+M {trace_note(comparison)}"
                    )
                result.rows.append(
                    (
                        dataset,
                        label,
                        optimization.optimizer_calls,
                        optimization.cost / optimization.naive_cost,
                        100.0 * comparison.runtime_reduction,
                        100.0 * comparison.work_reduction,
                    )
                )
    result.notes.append(
        "paper: S+M cuts optimizer calls up to ~80% on TC while keeping "
        ">65% runtime reduction vs naive"
    )
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
