"""Compare two result sets of the benchmark, metric by metric.

``python benchmarks/e2e/compare.py A.json B.json`` takes two files
written by ``run.py --all --out`` (A the parent, B the change) and
prints one row per workload × end-to-end metric:

* ``ok`` — B's reported value (a run's median; the first decile for
  ``setup_s``, ``batch_s`` and ``exec_s``) is no worse than A's by more than the
  metric's bound from ``BENCHMARK.json``;
* ``REGRESSION`` — it is worse by more than the bound;
* ``unresolved`` — the interquartile spread of either run's samples,
  as a share of its reported value, exceeds the bound, so the
  difference cannot be told from noise (raise the measuring time, not
  the bound).
  ``setup_s`` is exempt, as it is in the driver's own spread rule: it
  may have as few as five samples a run, the first of them cold.

Per-layer counts are compared too: a count that differs between A and B
is listed as ``changed`` (informational; counts have no bound).  Exit
status follows the repo's contract: 0 when every row is ``ok``, 2
otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: End-to-end metrics whose spread never makes them ``unresolved``.
SPREAD_EXEMPT = ("setup_s",)

#: Per-layer units whose values are exact counts.
COUNT_UNITS = ("count", "bytes", "rows")


@dataclass(frozen=True)
class Row:
    """One workload × metric comparison."""

    workload: str
    metric: str
    unit: str
    before: float
    after: float
    worsening: float
    bound: float
    spread: float
    verdict: str


def worsening(before: float, after: float, better: str) -> float:
    """Relative change of ``after`` against ``before``, positive = worse."""
    if before == 0:
        return 0.0 if after == 0 else float("inf")
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def spread(metric: dict[str, float]) -> float:
    """Interquartile range of a run's samples as a share of its value."""
    if not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def compare(
    first: dict[str, object],
    second: dict[str, object],
    declaration: dict[str, object] | None = None,
) -> list[Row]:
    """Rows for every workload × end-to-end metric present in both sets."""
    if declaration is None:
        declaration = json.loads(
            (REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
        )
    rows = []
    for workload, kinds in first["workloads"].items():
        if workload not in second["workloads"]:
            continue
        before = kinds["end_to_end"]["metrics"]
        after = second["workloads"][workload]["end_to_end"]["metrics"]
        for entry in declaration["end_to_end"]:
            name = entry["name"]
            if name not in before or name not in after:
                continue
            worse = worsening(
                before[name]["value"], after[name]["value"], entry["better"]
            )
            noise = max(spread(before[name]), spread(after[name]))
            if noise > entry["bound"] and name not in SPREAD_EXEMPT:
                verdict = "unresolved"
            elif worse > entry["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            rows.append(
                Row(
                    workload,
                    name,
                    entry["unit"],
                    before[name]["value"],
                    after[name]["value"],
                    worse,
                    entry["bound"],
                    noise,
                    verdict,
                )
            )
    return rows


def changed_counts(
    first: dict[str, object],
    second: dict[str, object],
) -> list[tuple[str, str, float, float]]:
    """Per-layer counts that differ: (workload, metric, before, after)."""
    changed = []
    for workload, kinds in first["workloads"].items():
        other = second["workloads"].get(workload)
        if other is None:
            continue
        after = other["per_layer"]["metrics"]
        for name, metric in kinds["per_layer"]["metrics"].items():
            if metric["unit"] not in COUNT_UNITS or name not in after:
                continue
            if metric["value"] != after[name]["value"]:
                changed.append(
                    (workload, name, metric["value"], after[name]["value"])
                )
    return changed


def render(rows: list[Row]) -> str:
    lines = [
        f"{'workload':<22}{'metric':<14}{'before':>14}{'after':>14} "
        f"{'unit':<8}{'worse by':>10}{'bound':>8}{'spread':>8}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row.workload:<22}{row.metric:<14}{row.before:>14.6g}"
            f"{row.after:>14.6g} {row.unit:<8}{row.worsening:>+10.1%}"
            f"{row.bound:>8.0%}{row.spread:>8.1%}  {row.verdict}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    first, second = (
        json.loads(path.read_text(encoding="utf-8"))
        for path in (args.before, args.after)
    )
    rows = compare(first, second)
    print(render(rows))
    for workload, name, before, after in changed_counts(first, second):
        print(f"changed  {workload}  {name}: {before:g} -> {after:g}")
    return 0 if all(row.verdict == "ok" for row in rows) else 2


if __name__ == "__main__":
    sys.exit(main())
