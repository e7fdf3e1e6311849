"""``kernel_grid``: the hash-vs-sort crossover map, kernels only.

Direct ``group_by`` calls over synthetic tables — groups {16, 4096,
near-unique} × key width {1, 2} × input order {random, sorted}, plus a
Zipf-skewed cell and a string-keyed cell — following the sweep of
Vaghasiya & Jahangiri (*Hash- vs Sort-Based Group-By-Aggregate*).  Only
``repro.engine.aggregation`` / ``dictcache`` run, plus one
``EngineCostModel.grouping_choice`` call per cell: no optimizer,
lowering, verifier, executor or cache.  Every planner-side change
predicts *no change* here.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from repro.costmodel.engine_model import EngineCostModel
from repro.engine.aggregation import AggregateSpec, group_by
from repro.engine.dictcache import encode_column
from repro.engine.metrics import ExecutionMetrics
from repro.engine.table import Table
from repro.obs.clock import monotonic
from repro.stats.cardinality import SampledCardinalityEstimator
from repro.workloads.zipf import zipf_indices

from benchmarks.e2e.measure import Report, peak_rss_mb, rounds, timed
from benchmarks.e2e.oracle import Canonical, Checker, Oracle
from benchmarks.e2e.plan_workloads import (
    SETUP_REPEATS,
    SETUP_SHARE,
    TRACE_REPEATS,
)
from benchmarks.e2e.spans import SpanRecorder

COUNT = [AggregateSpec.count_star("cnt")]
GROUPS = {"g16": 16, "g4096": 4096, "gnu": None}  # None: one per row drawn
STRING_DOMAIN = 4096
ZIPF_EXPONENT = 1.5

#: Cold ``encode_column`` timings reported by name: the cell whose single
#: key column stands for a dense int, a string and a near-unique column.
ENCODE_METRICS = {
    "engine.dictcache.encode_int_s": "g4096_w1_rand",
    "engine.dictcache.encode_str_s": "str",
    "engine.dictcache.encode_nearunique_s": "gnu_w1_rand",
}


@dataclass
class Cell:
    """One grid point: a table, its keys and the regime the model picks."""

    name: str
    table: Table
    keys: list[str]
    strategy: str

    @property
    def query(self) -> frozenset[str]:
        return frozenset(self.keys)


def rows_for(rows_scale: float) -> int:
    return max(int(500_000 * rows_scale), 1_000)


def _choose(table: Table, seed: int) -> str:
    estimator = SampledCardinalityEstimator(table, seed=seed)
    choice = EngineCostModel(estimator).grouping_choice(
        table.column_names, table.num_rows
    )
    return choice.strategy


def build_cells(rows: int, seed: int) -> list[Cell]:
    """Generate the 14 cells from ``seed`` and ask the model per cell."""
    rng = np.random.default_rng(seed)
    columns: dict[str, dict[str, np.ndarray]] = {}
    for label, groups in GROUPS.items():
        domain = groups or rows
        for order in ("rand", "sorted"):
            composite = rng.integers(0, domain, size=rows)
            if order == "sorted":
                composite.sort()
            columns[f"{label}_w1_{order}"] = {"k0": composite}
            # A two-column key over the same composite domain; sorted
            # composites stay lexicographically sorted after the split.
            composite = rng.integers(0, domain, size=rows)
            if order == "sorted":
                composite.sort()
            radix = math.isqrt(domain - 1) + 1
            columns[f"{label}_w2_{order}"] = {
                "k0": composite // radix,
                "k1": composite % radix,
            }
    columns["zipf"] = {
        "k0": zipf_indices(rows, GROUPS["g4096"], ZIPF_EXPONENT, rng)
    }
    strings = np.array([f"s{i:07d}" for i in range(STRING_DOMAIN)])
    # String encodes sort raw values; a quarter of the rows keeps this
    # cell from drowning the other thirteen in ``batch_s``.
    columns["str"] = {
        "k0": strings[rng.integers(0, STRING_DOMAIN, size=max(rows // 4, 1))]
    }
    cells = []
    for name, data in columns.items():
        table = Table.wrap(name, data)
        cells.append(Cell(name, table, list(data), _choose(table, seed)))
    return cells


def encode_keys(cell: Cell) -> None:
    """Cold dictionary encode of the cell's key columns."""
    for key in cell.keys:
        cell.table.set_dictionary(key, *encode_column(cell.table[key]))


def sweep(
    cells: list[Cell], metrics: ExecutionMetrics
) -> tuple[dict[str, Table], float]:
    """Every cell once, cold, with its chosen regime.

    Each cell's dictionaries are dropped and re-encoded inside the
    sweep; returns the results by cell name and the seconds spent in
    the ``group_by`` calls alone (dictionaries warm by then).
    """
    results = {}
    kernel_seconds = 0.0
    for cell in cells:
        cell.table.drop_dictionaries()
        encode_keys(cell)
        started = monotonic()
        results[cell.name] = group_by(
            cell.table, cell.keys, COUNT, metrics=metrics, strategy=cell.strategy
        )
        kernel_seconds += monotonic() - started
    return results, kernel_seconds


def expected_results(cells: list[Cell]) -> dict[str, Canonical]:
    return {
        cell.name: Oracle.for_table(cell.table, cell.keys).counts(cell.keys)
        for cell in cells
    }


def run_end_to_end(
    rows_scale: float, report: Report, checker: Checker, seconds: float
) -> None:
    cells = None
    for _ in rounds(seconds * SETUP_SHARE, SETUP_REPEATS):
        cells = None
        setup_s, cells = timed(
            lambda: build_cells(rows_for(rows_scale), report.seed)
        )
        report.add("setup_s", setup_s)
    total_rows = sum(cell.table.num_rows for cell in cells)

    sweep(cells, ExecutionMetrics())  # untimed warm-up
    results = None
    metrics = ExecutionMetrics()
    for _ in rounds(seconds):
        results = None
        metrics = ExecutionMetrics()
        batch_s, (results, exec_s) = timed(lambda: sweep(cells, metrics))
        report.add("batch_s", batch_s)
        report.add("exec_s", exec_s)
    report.add("rows_per_s", total_rows / report.value("batch_s"))
    report.add("work_bytes", metrics.work)
    # Read before the oracle runs, so its arrays never count.
    report.add("peak_rss_mb", peak_rss_mb())
    oracle_s, expected = timed(lambda: expected_results(cells))
    report.info.update(rows=total_rows, queries=len(cells), oracle_s=oracle_s)
    for cell in cells:
        checker.check(
            f"batch.{cell.name}",
            {cell.query: results[cell.name]},
            {cell.query: expected[cell.name]},
        )


def run_traced(
    rows_scale: float,
    report: Report,
    checker: Checker,
    seconds: float,
    recorder: SpanRecorder,
) -> None:
    with recorder.span("workloads.generate") as span:
        cells = build_cells(rows_for(rows_scale), report.seed)
    report.add("workloads.generate_s", span.duration)
    with recorder.span("bench.oracle"):
        expected = expected_results(cells)
    total_rows = sum(cell.table.num_rows for cell in cells)
    report.info.update(rows=total_rows, queries=len(cells))

    with recorder.span("bench.warmup"):
        sweep(cells, ExecutionMetrics())
    untraced: list[float] = []
    traced: list[float] = []
    encodes: dict[str, list[float]] = {cell.name: [] for cell in cells}
    kernels: dict[tuple[str, str], list[float]] = {}
    metrics = ExecutionMetrics()

    def untraced_sweep() -> None:
        with recorder.span("bench.untraced_sweep") as span:
            sweep(cells, ExecutionMetrics())
        untraced.append(span.duration)

    def traced_sweep() -> None:
        """``sweep`` with a span around every kernel call."""
        with recorder.span("bench.traced_sweep") as span:
            for cell in cells:
                cell.table.drop_dictionaries()
                with recorder.span(f"engine.dictcache.encode.{cell.name}") as encode:
                    encode_keys(cell)
                encodes[cell.name].append(encode.duration)
                with recorder.span(f"engine.aggregation.{cell.name}.{cell.strategy}"):
                    group_by(
                        cell.table,
                        cell.keys,
                        COUNT,
                        metrics=metrics,
                        strategy=cell.strategy,
                    )
        traced.append(span.duration)

    # Each round: the cold sweep untraced and traced — whichever runs
    # second finds the allocator warm, so the order alternates — then
    # both regimes of every cell with warm dictionaries.
    for index in rounds(seconds, TRACE_REPEATS):
        metrics = ExecutionMetrics()
        pair = (untraced_sweep, traced_sweep)
        for run_sweep in pair if index % 2 == 0 else pair[::-1]:
            run_sweep()
        for cell in cells:
            for strategy in ("hash", "sort"):
                with recorder.span(
                    f"engine.aggregation.{cell.name}.{strategy}"
                ) as span:
                    result = group_by(
                        cell.table, cell.keys, COUNT, strategy=strategy
                    )
                kernels.setdefault((cell.name, strategy), []).append(span.duration)
                with recorder.span("bench.check"):
                    checker.check(
                        f"{cell.name}.{strategy}",
                        {cell.query: result},
                        {cell.query: expected[cell.name]},
                    )
    for (name, strategy), samples in kernels.items():
        report.samples[f"engine.aggregation.{name}.{strategy}_s"] = samples
    for metric, cell_name in ENCODE_METRICS.items():
        report.samples[metric] = encodes[cell_name]
    medians = {key: statistics.median(samples) for key, samples in kernels.items()}
    all_hash = sum(medians[cell.name, "hash"] for cell in cells)
    all_sort = sum(medians[cell.name, "sort"] for cell in cells)
    chosen = sum(medians[cell.name, cell.strategy] for cell in cells)
    best = sum(
        min(medians[cell.name, "hash"], medians[cell.name, "sort"])
        for cell in cells
    )
    report.add("costmodel.grouping_regret", chosen / best)
    report.add("engine.exec_all_hash_s", all_hash)
    report.add("engine.exec_all_sort_s", all_sort)
    report.add("engine.bytes_scanned", metrics.bytes_scanned)
    report.add("engine.rows_scanned", metrics.rows_scanned)
    report.add("engine.group_by_ops", metrics.group_by_ops)
    report.add(
        "obs.bench_trace_overhead_frac",
        statistics.median(traced) / statistics.median(untraced) - 1.0,
    )
