"""Entry point of the end-to-end benchmark.

One workload per process (the driver's contract)::

    python3 benchmarks/e2e/run.py --workload sales_tc --seed 0 \
        --seconds 15 --trace 0

prints every end-to-end metric by name with its unit (``--trace 1``:
every per-layer metric) and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--all`` runs the four workloads one after another, each in a fresh
subprocess so ``peak_rss_mb`` and warm caches never leak between them,
untraced then traced, and writes both to ``--out``.  ``--check-repeat``
runs two such sets and compares them with :mod:`compare`.
``python -m benchmarks.e2e`` is the same program.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

for _entry in (REPO_ROOT / "src", REPO_ROOT):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

WORKLOADS = ("lineitem_sc", "sales_tc", "sales_session_cache", "kernel_grid")

#: ``--smoke``: rows scaled down and a token measuring time, for tests.
SMOKE_ROWS_SCALE = 0.01
SMOKE_SECONDS = 0.05

#: ``--paper-scale``: lineitem at TPC-H SF1's row count.
PAPER_ROWS = 6_000_000

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_REGRESSION = 2
EXIT_NO_PROGRAM = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=WORKLOADS)
    what.add_argument(
        "--all", action="store_true", help="every workload, untraced then traced"
    )
    what.add_argument(
        "--check-repeat",
        action="store_true",
        help="run --all twice and compare the two sets",
    )
    what.add_argument(
        "--paper-scale",
        action="store_true",
        help=f"lineitem_sc at {PAPER_ROWS:,} rows, untraced then traced (ungated)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measuring time per run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows-scale", type=float, default=1.0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny tables, token measuring time"
    )
    parser.add_argument("--out", type=Path, help="write the numbers as JSON")
    return parser


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, rows_scale: float
) -> dict[str, object]:
    """Run one workload in this process; return its JSON-ready record."""
    from repro.obs.clock import monotonic

    from benchmarks.e2e import kernel_grid, plan_workloads, session_cache
    from benchmarks.e2e.measure import Report, keep_freed_memory
    from benchmarks.e2e.oracle import Checker
    from benchmarks.e2e.spans import SpanRecorder, self_time_by_name

    report = Report(seed, trace)
    report.info["allocator_keeps_freed_memory"] = keep_freed_memory()
    checker = Checker()
    if name in ("lineitem_sc", "sales_tc"):
        module = plan_workloads
        subject = getattr(plan_workloads, name)(rows_scale)
    else:
        module = session_cache if name == "sales_session_cache" else kernel_grid
        subject = rows_scale
    started = monotonic()
    if trace:
        recorder = SpanRecorder(f"{name}-seed{seed}", clock=monotonic)
        with recorder.span("run"):
            module.run_traced(subject, report, checker, seconds, recorder)
        recorder.write_jsonl(OUT_DIR / f"trace-{name}.jsonl")
        self_seconds = self_time_by_name(recorder.spans)
        report.info["spans"] = len(recorder.spans)
        report.info["span_self_time_sum_s"] = sum(self_seconds.values())
        report.info["self_time_s"] = dict(
            sorted(self_seconds.items(), key=lambda item: -item[1])
        )
    else:
        module.run_end_to_end(subject, report, checker, seconds)
    report.info["wall_s"] = monotonic() - started
    report.info["nproc"] = os.cpu_count()
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "rows_scale": rows_scale,
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "info": report.info,
        "metrics": report.metrics(),
    }


def print_record(record: dict[str, object]) -> None:
    """Human-readable metrics, then the contract's one-line JSON."""
    info = dict(record["info"])
    self_time = info.pop("self_time_s", None)
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"seconds={record['seconds']} rows_scale={record['rows_scale']}"
    )
    print("# " + " ".join(f"{key}={value}" for key, value in info.items()))
    # "value" is what the result line carries: the median, or for the
    # timings in measure.FIRST_DECILE the first decile of the rounds.
    print(
        f"{'metric':<46}{'value':>16} {'unit':<8}"
        f"{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}"
    )
    for name, metric in record["metrics"].items():
        print(
            f"{name:<46}{metric['value']:>16.6g} {metric['unit']:<8}"
            f"{metric['median']:>14.6g}{metric['q1']:>14.6g}"
            f"{metric['q3']:>14.6g}{metric['n']:>4}"
        )
    if self_time:
        print("# benchmark-owned spans, self time (s) and share of the run:")
        total = sum(self_time.values())
        for name, seconds in self_time.items():
            if seconds / total >= 0.005:
                print(f"#   {name:<44}{seconds:>10.4f}{seconds / total:>8.1%}")
    print(
        f"# checked {record['attempted']} query results against the oracle, "
        f"{record['failed']} failed"
    )
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in record["metrics"].items()
                },
            }
        ),
        flush=True,
    )


def run_in_subprocess(
    name: str, seed: int, seconds: float, trace: int, rows_scale: float, tag: str
) -> dict[str, object]:
    """One workload in a fresh interpreter; its record, read back."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{tag}-{name}-trace{trace}.json"
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--rows-scale", str(rows_scale),
        "--out", str(out),
    ]  # fmt: skip
    completed = subprocess.run(command, check=False)
    if not out.exists():
        raise SystemExit(
            f"{name} (trace {trace}) exited {completed.returncode} with no result"
        )
    record = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return record


def run_set(
    names: tuple[str, ...], seed: int, seconds: float, rows_scale: float, tag: str
) -> dict[str, object]:
    """Every workload of ``names``, untraced then traced."""
    workloads = {}
    for name in names:
        workloads[name] = {
            kind: run_in_subprocess(name, seed, seconds, trace, rows_scale, tag)
            for trace, kind in enumerate(("end_to_end", "per_layer"))
        }
    return {"seed": seed, "nproc": os.cpu_count(), "workloads": workloads}


def set_failed(result: dict[str, object]) -> bool:
    return any(
        not record["correct"]
        for kinds in result["workloads"].values()
        for record in kinds.values()
    )


def write_json(path: Path, payload: dict[str, object]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        import repro  # noqa: F401 - the program under test

        from benchmarks.e2e.measure import load_declaration
    except ImportError as exc:
        print(
            f"benchmarks.e2e: the program is not here ({exc}); expected "
            f"{REPO_ROOT / 'src' / 'repro'}",
            file=sys.stderr,
        )
        return EXIT_NO_PROGRAM
    seconds = args.seconds
    if seconds is None:
        seconds = float(load_declaration()["run_seconds"])
    rows_scale = args.rows_scale
    if args.smoke:
        seconds, rows_scale = SMOKE_SECONDS, rows_scale * SMOKE_ROWS_SCALE

    if args.workload:
        record = run_workload(
            args.workload, args.seed, seconds, bool(args.trace), rows_scale
        )
        print_record(record)
        if args.out:
            write_json(args.out, record)
        return EXIT_OK if record["correct"] else EXIT_FAILED

    if args.check_repeat:
        from benchmarks.e2e.compare import changed_counts, compare, render

        first, second = (
            run_set(WORKLOADS, args.seed, seconds, rows_scale, tag)
            for tag in ("repeat-a", "repeat-b")
        )
        write_json(OUT_DIR / "repeat-a.json", first)
        write_json(OUT_DIR / "repeat-b.json", second)
        rows = compare(first, second)
        print(render(rows))
        for workload, name, before, after in changed_counts(first, second):
            print(f"changed  {workload}  {name}: {before:g} -> {after:g}")
        bad = set_failed(first) or set_failed(second)
        bad = bad or any(row.verdict != "ok" for row in rows)
        return EXIT_REGRESSION if bad else EXIT_OK

    if args.paper_scale:
        from benchmarks.e2e.plan_workloads import LINEITEM_ROWS

        names: tuple[str, ...] = ("lineitem_sc",)
        rows_scale = PAPER_ROWS / LINEITEM_ROWS
    else:
        names = WORKLOADS
    result = run_set(names, args.seed, seconds, rows_scale, "all")
    if args.out:
        write_json(args.out, result)
    return EXIT_FAILED if set_failed(result) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
