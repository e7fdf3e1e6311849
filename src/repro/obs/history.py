"""Plan history: persisted estimated-vs-actual records and calibration.

EXPLAIN ANALYZE (:mod:`repro.obs.analyze`) lines up the optimizer's
estimates with the engine's actuals for *one* run.  The related-work
thesis ("The Case for Deep Query Optimisation"; the hash-vs-sort regime
study) is that estimation error must be watched *across* runs — regime
choices drift with data shape, and a cost model that is 10x wrong on
one operator type will keep being 10x wrong until someone looks.  This
module is the looking:

* :func:`plan_fingerprint` — a stable content hash of a logical plan's
  structure (relation, node column sets/kinds, edges, materialization),
  so records for the same plan shape line up across processes;
* :class:`PlanHistoryStore` — an append-only JSONL file; every
  ``explain_analyze`` run appends one record carrying the fingerprint
  and the per-node estimated vs actual rows/cost/time, q-error,
  operator kind, and execution regime (hash/sort);
* :class:`CalibrationReport` — the across-runs rollup: q-error
  distribution per (operator kind, regime) plus the estimate bias
  direction, surfacing where
  :class:`~repro.costmodel.engine_model.EngineCostModel` is
  systematically wrong (*over* — estimates high, *under* — low).

Records carry a monotonically increasing per-store sequence number, not
a wall-clock timestamp (timings in this repo are monotonic by the CL207
lint; callers who want real timestamps can put one in ``meta``).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, TextIO

from repro.core.plan import LogicalPlan, SubPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.analyze import PlanAnalysis

#: Format tag written into every record, bumped on breaking changes.
HISTORY_FORMAT_VERSION = 1


def plan_fingerprint(plan: LogicalPlan) -> str:
    """Stable hex digest of a logical plan's structure.

    Two plans fingerprint equal iff they have the same relation and the
    same tree of (column set, node kind, materialized, required) nodes;
    insertion order of siblings does not matter.
    """

    def canonical(subplan: SubPlan) -> object:
        return [
            sorted(subplan.node.columns),
            subplan.node.kind.name,
            bool(subplan.is_materialized),
            bool(subplan.required or subplan.direct_answers),
            sorted(
                (canonical(child) for child in subplan.children),
                key=json.dumps,
            ),
        ]

    payload = {
        "relation": plan.relation,
        "subplans": sorted(
            (canonical(subplan) for subplan in plan.subplans),
            key=json.dumps,
        ),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    )
    return digest.hexdigest()[:16]


@dataclass
class QErrorStats:
    """Accumulated q-error distribution for one calibration group."""

    count: int = 0
    log_sum: float = 0.0
    maximum: float = 1.0
    over: int = 0
    under: int = 0
    values: list[float] = field(default_factory=list)

    def add(self, q_error: float, est_rows: float, actual_rows: float) -> None:
        self.count += 1
        self.log_sum += math.log(max(q_error, 1.0))
        self.maximum = max(self.maximum, q_error)
        self.values.append(q_error)
        if q_error > 1.0 + 1e-9:
            if est_rows > actual_rows:
                self.over += 1
            else:
                self.under += 1

    @property
    def geometric_mean(self) -> float:
        if self.count == 0:
            return 1.0
        return math.exp(self.log_sum / self.count)

    def quantile(self, q: float) -> float:
        if not self.values:
            return 1.0
        ordered = sorted(self.values)
        index = min(int(q * len(ordered)), len(ordered) - 1)
        return ordered[index]

    @property
    def bias(self) -> str:
        """'over' / 'under' when >2/3 of errors lean one way, else 'mixed'."""
        wrong = self.over + self.under
        if wrong == 0:
            return "exact"
        if self.over / wrong > 2 / 3:
            return "over"
        if self.under / wrong > 2 / 3:
            return "under"
        return "mixed"

    def as_dict(self) -> dict[str, object]:
        return {
            "count": self.count,
            "geometric_mean": self.geometric_mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "max": self.maximum,
            "over": self.over,
            "under": self.under,
            "bias": self.bias,
        }


@dataclass
class CalibrationReport:
    """Q-error rollup per (operator kind, regime) across history records."""

    groups: dict[tuple[str, str], QErrorStats]
    runs: int
    fingerprints: int

    def as_dict(self) -> dict[str, object]:
        return {
            "runs": self.runs,
            "fingerprints": self.fingerprints,
            "groups": [
                {
                    "operator": operator,
                    "regime": regime,
                    **self.groups[(operator, regime)].as_dict(),
                }
                for operator, regime in sorted(self.groups)
            ],
        }

    def render(self) -> str:
        lines = [
            f"calibration over {self.runs} runs, "
            f"{self.fingerprints} distinct plans",
            f"{'operator':<16} {'regime':<8} {'n':>5} {'q-err gmean':>11} "
            f"{'p50':>7} {'p95':>7} {'max':>9} {'bias':<6}",
        ]
        for operator, regime in sorted(self.groups):
            stats = self.groups[(operator, regime)]
            lines.append(
                f"{operator:<16} {regime:<8} {stats.count:>5} "
                f"{stats.geometric_mean:>11.2f} {stats.quantile(0.5):>7.2f} "
                f"{stats.quantile(0.95):>7.2f} {stats.maximum:>9.2f} "
                f"{stats.bias:<6}"
            )
        return "\n".join(lines)


class PlanHistoryStore:
    """Append-only store of estimated-vs-actual run records.

    Args:
        path: the JSONL file, created (with parents) on first append.

    The store keeps one lazily-opened append handle for its lifetime
    (every record is flushed as it is written, so concurrent readers
    always see complete lines); :meth:`close` releases it.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: TextIO | None = None
        self._seq = self._last_seq() + 1

    def _last_seq(self) -> int:
        if not self.path.exists():
            return -1
        last = -1
        for record in self.records():
            last = max(last, int(record.get("seq", -1)))
        return last

    # -- writing -----------------------------------------------------------------

    def append_analysis(
        self,
        analysis: "PlanAnalysis",
        plan: LogicalPlan,
        parallelism: int = 1,
        meta: dict[str, object] | None = None,
    ) -> dict[str, object]:
        """Record one EXPLAIN ANALYZE run; returns the appended record."""
        record: dict[str, object] = {
            "version": HISTORY_FORMAT_VERSION,
            "seq": self._seq,
            "fingerprint": plan_fingerprint(plan),
            "relation": analysis.relation,
            "base_rows": analysis.base_rows,
            "parallelism": parallelism,
            "total_est_cost": analysis.total_est_cost,
            "total_work": analysis.total_work,
            "wall_seconds": analysis.wall_seconds,
            "mean_q_error": analysis.mean_q_error,
            "max_q_error": analysis.max_q_error,
            "nodes": [
                {
                    "label": node.label,
                    "operator": node.operator,
                    "regime": node.regime,
                    "est_rows": node.est_rows,
                    "est_cost": node.est_cost,
                    "actual_rows": node.actual_rows,
                    "actual_seconds": node.actual_seconds,
                    "q_error": node.q_error,
                    "materialized": node.materialized,
                }
                for node in analysis.nodes
            ],
        }
        if meta:
            record["meta"] = dict(meta)
        self._append(record)
        return record

    def _append(self, record: dict[str, object]) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self._seq += 1

    def flush(self) -> None:
        """Flush any buffered appended records to disk."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        """Release the append handle; further appends reopen it."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reading -----------------------------------------------------------------

    def records(self) -> Iterable[dict[str, object]]:
        """Every record in append order (empty if the file is absent)."""
        if not self.path.exists():
            return
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield json.loads(line)

    def runs_for(self, fingerprint: str) -> list[dict[str, object]]:
        """All records of one plan shape, in append order."""
        return [
            record
            for record in self.records()
            if record.get("fingerprint") == fingerprint
        ]

    def calibration(
        self, relation: str | None = None
    ) -> CalibrationReport:
        """Roll up q-errors per (operator kind, regime) across records.

        Args:
            relation: restrict to runs over one base relation.
        """
        groups: dict[tuple[str, str], QErrorStats] = {}
        runs = 0
        fingerprints: set[str] = set()
        for record in self.records():
            if relation is not None and record.get("relation") != relation:
                continue
            runs += 1
            fingerprints.add(str(record.get("fingerprint", "")))
            for node in record.get("nodes", ()):  # type: ignore[union-attr]
                operator = str(node.get("operator") or "unknown")
                regime = str(node.get("regime") or "-")
                stats = groups.setdefault(
                    (operator, regime), QErrorStats()
                )
                stats.add(
                    float(node.get("q_error", 1.0)),
                    float(node.get("est_rows", 0.0)),
                    float(node.get("actual_rows", 0.0)),
                )
        return CalibrationReport(
            groups=groups, runs=runs, fingerprints=len(fingerprints)
        )
