"""Physical-plan invariant rules (verifier Layer 1b, PV012+).

The logical rule catalog (:mod:`repro.analysis.planrules`) checks the
optimizer's output; these rules check the *lowering's* output — the
:class:`~repro.physical.plan.PhysicalPlan` the executor is about to
interpret.  They enforce the data-flow contract between pipelines:

* PV012 — the operator graph is a well-formed DAG (ids are positions,
  every edge points backwards, pipelines reference real operators —
  only ``DropTemp`` in a drop pipeline, none in a compute pipeline —
  partition counts are positive) and the waves schedule every pipeline
  exactly once, computes as computes and drops as drops;
* PV013 — data crossing a pipeline boundary goes through a
  ``Materialize`` that runs in a strictly earlier wave than its
  consumer;
* PV014 — every materialized temp is dropped exactly once, after its
  last consumer, and nothing drops a temp that was never materialized;
* PV015 — per-operator transient-memory estimates respect the plan's
  memory budget (a warning: the lowering should have demoted the
  operator to sorting or partitioned execution).

PV013 and PV014 order pipelines by the wave that runs them — a wave's
drops after its computes — because the executor runs a wave's computes
side by side: list position says nothing about that.

Rules PV016+ are the dataflow catalog (:mod:`repro.analysis.dataflow`):
they consume the abstract interpreter's per-operator states (available
columns, grouping lattice, cardinality intervals, sortedness,
dictionary freshness) instead of re-walking the operator graph.  Every
rule — structural or dataflow — receives the same
:class:`~repro.analysis.dataflow.DataflowAnalysis` object, computed
once per verification run.

The rules live in their own registry (:data:`PHYSICAL_RULES`) — the
logical verifier validates requested ids against ``PLAN_RULES`` and
must not see physical ids.  :func:`check_physical_plan` is the
executor's gate: it raises the same
:class:`~repro.analysis.verifier.PlanVerificationError` the logical
gate uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticCollector,
    Severity,
)
from repro.analysis.verifier import PlanVerificationError
from repro.physical.plan import (
    CacheRead,
    DropTemp,
    GroupingOperator,
    Materialize,
    PhysicalPlan,
    Reaggregate,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.dataflow import AnalysisContext, DataflowAnalysis

PhysicalCheckFn = Callable[["DataflowAnalysis", DiagnosticCollector], None]


@dataclass(frozen=True)
class PhysicalRule:
    """One physical-plan rule: id, invariant, and checker.

    Args:
        rule_id: stable identifier (``PV012``...).
        name: short kebab-case name.
        invariant: the property being enforced, in one sentence.
        severity: severity of findings this rule emits.
        check: the rule body; receives the shared dataflow analysis.
        requires: :class:`~repro.analysis.dataflow.AnalysisContext`
            fields that must be present for the rule to run (the rule
            is skipped, not failed, when they are absent — mirroring
            the logical verifier's context rules).
    """

    rule_id: str
    name: str
    invariant: str
    severity: Severity
    check: PhysicalCheckFn
    requires: tuple[str, ...] = ()


#: Ordered registry of every physical rule, keyed by rule id.
PHYSICAL_RULES: dict[str, PhysicalRule] = {}


def physical_rule(
    rule_id: str,
    name: str,
    invariant: str,
    severity: Severity = Severity.ERROR,
    requires: tuple[str, ...] = (),
) -> Callable[[PhysicalCheckFn], PhysicalCheckFn]:
    """Register a checker function as a physical-plan rule."""

    def register(check: PhysicalCheckFn) -> PhysicalCheckFn:
        if rule_id in PHYSICAL_RULES:
            raise ValueError(f"duplicate physical rule id {rule_id}")
        PHYSICAL_RULES[rule_id] = PhysicalRule(
            rule_id, name, invariant, severity, check, requires
        )
        return check

    return register


def _rank_of(plan: PhysicalPlan) -> dict[int, int]:
    """op id -> when it runs: ``2w`` for wave ``w``'s computes, ``2w + 1``
    for its drops.  Equal ranks run side by side; operators of a
    pipeline no wave schedules have none (PV012 reports them)."""
    slot: dict[int, int] = {}
    for position, wave in enumerate(plan.waves):
        for index in wave.pipelines:
            slot.setdefault(index, 2 * position)
        for index in wave.drops:
            slot.setdefault(index, 2 * position + 1)
    rank: dict[int, int] = {}
    for index, pipeline in enumerate(plan.pipelines):
        if index in slot:
            for op_id in pipeline.ops:
                rank.setdefault(op_id, slot[index])
    return rank


@physical_rule(
    "PV012",
    "physical-dag",
    "Operator ids are positions, every data edge points backwards, "
    "pipelines reference real operators exactly once and only of their "
    "kind, partition counts are positive, and each pipeline sits in "
    "exactly one wave slot of its kind.",
)
def check_physical_dag(
    analysis: DataflowAnalysis, out: DiagnosticCollector
) -> None:
    plan = analysis.plan
    n = len(plan.operators)
    for op in plan.operators:
        where = f"op {op.op_id} ({op.describe()})"
        for source in op.inputs():
            if not 0 <= source < n:
                out.emit(
                    "PV012",
                    Severity.ERROR,
                    where,
                    f"references unknown operator id {source}",
                )
            elif source >= op.op_id:
                out.emit(
                    "PV012",
                    Severity.ERROR,
                    where,
                    f"input edge {source} does not point backwards "
                    "(the operator graph must be acyclic)",
                )
        if isinstance(op, GroupingOperator) and op.partitions < 1:
            out.emit(
                "PV012",
                Severity.ERROR,
                where,
                f"partition count {op.partitions} must be >= 1",
            )
    seen: set[int] = set()
    for index, pipeline in enumerate(plan.pipelines):
        where = f"pipeline {index} ({pipeline.label})"
        if not pipeline.ops:
            out.emit("PV012", Severity.ERROR, where, "pipeline has no operators")
        for op_id in pipeline.ops:
            if not 0 <= op_id < n:
                out.emit(
                    "PV012",
                    Severity.ERROR,
                    where,
                    f"references unknown operator id {op_id}",
                )
            elif op_id in seen:
                out.emit(
                    "PV012",
                    Severity.ERROR,
                    where,
                    f"operator {op_id} appears in more than one pipeline",
                )
            elif isinstance(plan.operators[op_id], DropTemp) == (
                pipeline.is_compute
            ):
                out.emit(
                    "PV012",
                    Severity.ERROR,
                    where,
                    f"{pipeline.kind} pipeline holds "
                    f"{plan.operators[op_id].describe()}: drop pipelines "
                    "hold only DropTemp, compute pipelines none",
                )
            seen.add(op_id)
    for op in plan.operators:
        if op.op_id not in seen:
            out.emit(
                "PV012",
                Severity.ERROR,
                f"op {op.op_id} ({op.describe()})",
                "operator belongs to no pipeline",
            )
    slots = [0] * len(plan.pipelines)
    for wave in plan.waves:
        for indices, compute in ((wave.pipelines, True), (wave.drops, False)):
            for index in indices:
                if not 0 <= index < len(plan.pipelines):
                    out.emit(
                        "PV012",
                        Severity.ERROR,
                        f"wave {wave.index}",
                        f"schedules unknown pipeline {index}",
                    )
                    continue
                slots[index] += 1
                pipeline = plan.pipelines[index]
                if pipeline.is_compute != compute:
                    out.emit(
                        "PV012",
                        Severity.ERROR,
                        f"wave {wave.index}",
                        f"schedules {pipeline.kind} pipeline {index} "
                        f"({pipeline.label}) as a "
                        + ("compute" if compute else "drop"),
                    )
    for index, count in enumerate(slots):
        if count != 1:
            out.emit(
                "PV012",
                Severity.ERROR,
                f"pipeline {index} ({plan.pipelines[index].label})",
                f"sits in {count} wave slots, not exactly one",
            )


@physical_rule(
    "PV013",
    "materialize-before-reuse",
    "Every cross-pipeline input is a Materialize operator running in a "
    "strictly earlier wave than its consumer.",
)
def check_materialize_before_reuse(
    analysis: DataflowAnalysis, out: DiagnosticCollector
) -> None:
    plan = analysis.plan
    rank = _rank_of(plan)
    for op in plan.operators:
        if not isinstance(op, Reaggregate):
            continue
        where = f"op {op.op_id} ({op.describe()})"
        source = plan.operators[op.source] if 0 <= op.source < len(
            plan.operators
        ) else None
        if isinstance(source, CacheRead):
            # A cache-fed Reaggregate reads its parent from the pipeline
            # environment, not the catalog: same-pipeline is the point.
            continue
        if not isinstance(source, Materialize):
            out.emit(
                "PV013",
                Severity.ERROR,
                where,
                "cross-pipeline input is not a Materialize operator",
                hint="Reaggregate reads its parent through the catalog; "
                "its source must be the parent's Materialize.",
            )
            continue
        producer = rank.get(source.op_id)
        consumer = rank.get(op.op_id)
        if producer is None or consumer is None:
            continue  # PV012 reports orphans
        if producer >= consumer:
            out.emit(
                "PV013",
                Severity.ERROR,
                where,
                f"consumes {source.describe()} from wave "
                f"{producer // 2}, which does not run before wave "
                f"{consumer // 2}",
            )


@physical_rule(
    "PV014",
    "drop-after-last-use",
    "Every materialized temp is dropped exactly once, after its last "
    "consumer, and no DropTemp releases a temp that was never "
    "materialized.",
)
def check_drop_after_last_use(
    analysis: DataflowAnalysis, out: DiagnosticCollector
) -> None:
    plan = analysis.plan
    rank = _rank_of(plan)
    materialized: dict[str, int] = {}
    drops: dict[str, list[int]] = {}
    last_use: dict[str, int] = {}
    for op in plan.operators:
        when = rank.get(op.op_id)
        if when is None:
            continue
        if isinstance(op, Materialize):
            materialized[op.output] = when
        elif isinstance(op, DropTemp):
            drops.setdefault(op.temp, []).append(when)
        elif isinstance(op, Reaggregate):
            source = plan.operators[op.source] if 0 <= op.source < len(
                plan.operators
            ) else None
            if isinstance(source, Materialize):
                last_use[source.output] = max(
                    last_use.get(source.output, -1), when
                )
    for temp, producer in materialized.items():
        temp_drops = drops.get(temp, [])
        if len(temp_drops) != 1:
            out.emit(
                "PV014",
                Severity.ERROR,
                f"temp {temp}",
                f"materialized once but dropped {len(temp_drops)} times",
                hint="each Materialize needs exactly one matching DropTemp.",
            )
            continue
        drop_at = temp_drops[0]
        cutoff = max(last_use.get(temp, producer), producer)
        if drop_at <= cutoff:
            out.emit(
                "PV014",
                Severity.ERROR,
                f"temp {temp}",
                f"dropped in wave {drop_at // 2} but still used in "
                f"wave {cutoff // 2}",
            )
    for temp in drops:
        if temp not in materialized:
            out.emit(
                "PV014",
                Severity.ERROR,
                f"temp {temp}",
                "dropped but never materialized",
            )


@physical_rule(
    "PV015",
    "memory-budget",
    "No operator's transient-memory estimate exceeds the plan-wide "
    "memory budget.",
    severity=Severity.WARNING,
)
def check_memory_budget(
    analysis: DataflowAnalysis, out: DiagnosticCollector
) -> None:
    plan = analysis.plan
    budget = plan.memory_budget_bytes
    if budget is None:
        return
    for op in plan.operators:
        if op.est_mem_bytes > budget:
            out.emit(
                "PV015",
                Severity.WARNING,
                f"op {op.op_id} ({op.describe()})",
                f"estimated transient memory {op.est_mem_bytes:.0f}B "
                f"exceeds the plan budget {budget:.0f}B",
                hint="the lowering should demote the operator to the "
                "sort regime or partitioned execution.",
            )


def verify_physical_plan(
    plan: PhysicalPlan,
    rules: Iterable[str] | None = None,
    context: AnalysisContext | None = None,
) -> list[Diagnostic]:
    """Run the physical rule catalog over a lowered plan.

    Args:
        plan: the physical plan to verify.
        rules: restrict to these rule ids (default: all).
        context: optional :class:`~repro.analysis.dataflow.
            AnalysisContext` (catalog / base table / estimator).
            Rules whose ``requires`` fields are absent are skipped.

    Returns:
        Every diagnostic, errors and warnings, in rule order.
    """
    # Imported lazily both to avoid an import cycle (dataflow registers
    # its rules through this module) and to make sure the PV016+ rules
    # are in the registry before ids are validated.
    from repro.analysis.dataflow import AnalysisContext, DataflowAnalysis

    selected = set(rules) if rules is not None else None
    if selected is not None:
        unknown = selected - PHYSICAL_RULES.keys()
        if unknown:
            raise ValueError(
                f"unknown physical rule id(s): {', '.join(sorted(unknown))}"
            )
    if context is None:
        context = AnalysisContext()
    analysis = DataflowAnalysis(plan, context)
    collector = DiagnosticCollector()
    for rule_id, rule in PHYSICAL_RULES.items():
        if selected is not None and rule_id not in selected:
            continue
        if any(
            getattr(context, field, None) is None for field in rule.requires
        ):
            continue
        rule.check(analysis, collector)
    return collector.diagnostics


def check_physical_plan(
    plan: PhysicalPlan,
    rules: Iterable[str] | None = None,
    context: AnalysisContext | None = None,
) -> list[Diagnostic]:
    """Verify and raise on errors; returns the (warning-only) findings.

    Raises:
        PlanVerificationError: when any error-severity rule fires.
    """
    diagnostics = verify_physical_plan(plan, rules, context)
    if any(d.severity is Severity.ERROR for d in diagnostics):
        raise PlanVerificationError(diagnostics)
    return diagnostics
