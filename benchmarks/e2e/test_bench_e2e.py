"""Tests of the benchmark itself (outside the tier-1 ``testpaths``).

Run with ``python -m pytest benchmarks/e2e -q`` from the repo root.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e import run as runner  # puts src/ on sys.path
from benchmarks.e2e.compare import compare
from benchmarks.e2e.compare import main as compare_main
from benchmarks.e2e.measure import Report
from benchmarks.e2e.oracle import Checker, Oracle
from benchmarks.e2e.spans import SpanRecord, SpanRecorder, self_times

from repro.engine.aggregation import AggregateSpec, group_by
from repro.engine.table import Table
from repro.obs.clock import ManualClock
from repro.workloads.sales import make_sales

REPO_ROOT = Path(__file__).resolve().parents[2]
DECLARATION = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_benchmark(*args: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
        check=False,
    )


# -- the declaration --------------------------------------------------------------


def test_declaration_meets_the_contract() -> None:
    assert set(DECLARATION) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert DECLARATION["paths"] == ["benchmarks/e2e"]
    assert 1 <= DECLARATION["run_seconds"] <= 60
    assert 2 <= len(DECLARATION["workloads"]) <= 8
    assert 1 <= len(DECLARATION["end_to_end"]) <= 16
    assert 1 <= len(DECLARATION["per_layer"]) <= 128
    names = [
        entry["name"]
        for kind in ("workloads", "end_to_end", "per_layer")
        for entry in DECLARATION[kind]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in DECLARATION["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [w["name"] for w in DECLARATION["workloads"]] == list(runner.WORKLOADS)
    for metric in DECLARATION["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARATION["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DECLARATION["end_to_end"] + DECLARATION["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in DECLARATION["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARATION["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", runner.WORKLOADS)
def test_smoke_run_emits_every_declared_name_and_no_other(
    workload: str, trace: int
) -> None:
    completed = run_benchmark("--workload", workload, "--smoke", "--trace", str(trace))
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {
        entry["name"]: entry["unit"]
        for entry in DECLARATION["per_layer" if trace else "end_to_end"]
    }
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == declared[name]
        if not trace:
            assert metric["value"] > 0, name


def test_without_the_program_the_benchmark_exits_nonzero(tmp_path: Path) -> None:
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        REPO_ROOT / "benchmarks" / "e2e",
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    completed = run_benchmark(
        "--workload", "kernel_grid", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )  # fmt: skip
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_end_to_end_timings_report_the_first_decile_and_the_rest_the_median() -> None:
    report = Report(seed=0, trace=False)
    names = ("setup_s", "batch_s", "exec_s", "core.optimize_cold_s")
    for name in names:
        report.samples[name] = [float(i) for i in range(21, 0, -1)]
    assert [report.value(name) for name in names] == [3.0, 3.0, 3.0, 11.0]
    report.samples["batch_s"] = [4.0, 2.0, 1.0]  # few rounds: between the fastest two
    assert report.value("batch_s") == pytest.approx(1.2)


# -- spans ------------------------------------------------------------------------


def test_self_time_is_duration_minus_what_children_cover() -> None:
    def span(span_id: int, parent: int | None, start: float, end: float) -> SpanRecord:
        return SpanRecord(f"s{span_id}", span_id, parent, "run", start, end)

    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 0, 3.0, 6.0),  # overlaps span 1: the union [1, 6] counts once
        span(3, 1, 2.0, 3.0),
        span(4, 0, 9.0, 12.0),  # clipped to its parent's interval
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}


def test_recorder_self_times_add_up_to_the_root() -> None:
    clock = ManualClock()
    recorder = SpanRecorder("run", clock=clock)
    with recorder.span("root"):
        clock.advance(1.0)
        with recorder.span("layer"):
            clock.advance(2.0)
            with recorder.span("inner"):
                clock.advance(0.5)
        with recorder.span("layer"):
            clock.advance(0.25)
        clock.advance(0.25)
    by_id = self_times(recorder.spans)
    assert sum(by_id.values()) == pytest.approx(recorder.spans[0].duration)
    assert by_id[0] == pytest.approx(1.25)
    assert [span.parent_id for span in recorder.spans] == [None, 0, 1, 0]
    assert {span.run_id for span in recorder.spans} == {"run"}


# -- oracle -----------------------------------------------------------------------


def grouped(table: Table, keys: list[str]) -> Table:
    return group_by(table, keys, [AggregateSpec.count_star("cnt")])


def test_oracle_accepts_the_engine_and_catches_a_wrong_count() -> None:
    table = make_sales(2_000, seed=3)
    queries = [frozenset(["region"]), frozenset(["channel", "state"])]
    expected = Oracle.for_table(table, table.column_names).expected(queries)
    results = {query: grouped(table, sorted(query)) for query in queries}
    checker = Checker()
    assert checker.check("good", results, expected) == 0

    region = results[queries[0]]
    counts = region["cnt"].copy()
    counts[0] += 1
    tampered = Table.wrap("t", {"region": region["region"], "cnt": counts})
    assert checker.check("wrong", {**results, queries[0]: tampered}, expected) == 1
    assert checker.check("missing", {queries[0]: region}, expected) == 1
    assert (checker.attempted, checker.failed) == (6, 2)


def test_oracle_catches_a_result_served_from_a_stale_table() -> None:
    old, new = make_sales(2_000, seed=3), make_sales(2_000, seed=4)
    query = frozenset(["store_id"])
    expected = Oracle.for_table(new, ["store_id"]).expected([query])
    checker = Checker()
    assert checker.check("stale", {query: grouped(old, ["store_id"])}, expected) == 1
    assert checker.check("fresh", {query: grouped(new, ["store_id"])}, expected) == 0


def test_oracle_ignores_row_order() -> None:
    table = make_sales(500, seed=5)
    query = frozenset(["state", "channel"])
    expected = Oracle.for_table(table, sorted(query)).expected([query])
    result = grouped(table, ["channel", "state"])
    shuffled = result.take(np.random.default_rng(0).permutation(result.num_rows))
    assert Checker().check("shuffled", {query: shuffled}, expected) == 0


# -- compare ----------------------------------------------------------------------


def result_set(batch_s: float = 1.0, q3: float = 1.01) -> dict[str, object]:
    def metric(value: float, unit: str, q1: float, q3: float) -> dict[str, object]:
        return {"value": value, "unit": unit, "q1": q1, "q3": q3, "n": 9}

    end_to_end = {
        "setup_s": metric(0.5, "s", 0.49, 0.51),
        "batch_s": metric(batch_s, "s", batch_s * 0.99, batch_s * q3),
        "rows_per_s": metric(1e6 / batch_s, "rows/s", 1e6 / batch_s, 1e6 / batch_s),
    }
    per_layer = {"costmodel.calls": metric(100, "count", 100, 100)}
    return {
        "workloads": {
            "sales_tc": {
                "end_to_end": {"metrics": end_to_end},
                "per_layer": {"metrics": per_layer},
            }
        }
    }


def test_compare_passes_identical_sets_and_flags_a_2x_slowdown(
    tmp_path: Path,
) -> None:
    baseline = result_set()
    assert {row.verdict for row in compare(baseline, copy.deepcopy(baseline))} == {"ok"}

    verdicts = {row.metric: row.verdict for row in compare(baseline, result_set(2.0))}
    assert verdicts == {
        "setup_s": "ok",
        "batch_s": "REGRESSION",
        "rows_per_s": "REGRESSION",
    }
    faster = {row.metric: row.verdict for row in compare(baseline, result_set(0.5))}
    assert set(faster.values()) == {"ok"}

    paths = {}
    for name, payload in (("a", baseline), ("b", result_set(2.0))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload), encoding="utf-8")
    assert compare_main([str(paths["a"]), str(paths["a"])]) == 0
    assert compare_main([str(paths["a"]), str(paths["b"])]) == 2


def test_compare_marks_a_metric_unresolved_when_its_spread_exceeds_the_bound() -> None:
    noisy = result_set(1.0, q3=1.5)
    verdicts = {row.metric: row.verdict for row in compare(result_set(), noisy)}
    assert verdicts["batch_s"] == "unresolved"
    assert verdicts["setup_s"] == "ok"
