"""Plan verifier driver: run the rule catalog over a logical plan.

Entry points:

* :func:`verify_plan` — diagnostics for a
  :class:`~repro.core.plan.LogicalPlan`;
* :func:`check_plan` — raise :class:`PlanVerificationError` when any
  error-severity diagnostic fires (``LogicalPlan.validate()`` and the
  optimizer's debug post-condition).

Context-dependent rules (cost monotonicity, storage bounds, CUBE width)
run only when a :class:`VerifyContext` supplies what they need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticCollector,
    Severity,
)
from repro.analysis.planrules import PLAN_RULES
from repro.core.plan import LogicalPlan, PlanError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.costmodel.base import PlanCoster
    from repro.stats.cardinality import CardinalityEstimator


@dataclass(frozen=True)
class VerifyContext:
    """External context the conditional rules draw on.

    Args:
        coster: a :class:`~repro.costmodel.base.PlanCoster`; enables
            the cost-monotonicity rule.
        estimator: cardinality source; with ``max_storage_bytes`` it
            enables the storage-bound rule.
        max_storage_bytes: Section 4.4.2 storage budget.
        cube_max_columns: CUBE width cap; None disables the rule.
        epsilon: numeric slack for cost comparisons.
    """

    coster: "PlanCoster | None" = None
    estimator: "CardinalityEstimator | None" = None
    max_storage_bytes: float | None = None
    cube_max_columns: int | None = None
    epsilon: float = 1e-9


#: The context-free rule set: structural invariants checkable from the
#: plan alone.  This is what ``LogicalPlan.validate()`` runs.
STRUCTURAL_RULES: tuple[str, ...] = (
    "PV003",
    "PV004",
    "PV005",
    "PV006",
    "PV007",
    "PV008",
)


class PlanVerificationError(PlanError):
    """A verified plan violated at least one error-severity rule.

    Args:
        diagnostics: every finding of the run (errors and warnings).
    """

    def __init__(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics = diagnostics
        errors = [d for d in diagnostics if d.severity is Severity.ERROR]
        # Debug gates escalate warning-only runs; summarize what fired.
        shown = errors or diagnostics
        summary = "; ".join(d.format() for d in shown[:3])
        if len(shown) > 3:
            summary += f"; ... {len(shown) - 3} more"
        super().__init__(f"plan verification failed: {summary}")


def verify_plan(
    plan: LogicalPlan,
    context: VerifyContext | None = None,
    rules: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Run the rule catalog over a plan.

    Args:
        plan: the plan to verify.
        context: optional external context for conditional rules.
        rules: restrict to these rule ids (default: all).

    Returns:
        Every diagnostic, errors and warnings, in rule order.
    """
    context = context or VerifyContext()
    collector = DiagnosticCollector()
    selected = set(rules) if rules is not None else None
    if selected is not None:
        unknown = selected - PLAN_RULES.keys()
        if unknown:
            raise ValueError(
                f"unknown plan rule id(s): {', '.join(sorted(unknown))}"
            )
    for rule_id, rule in PLAN_RULES.items():
        if selected is not None and rule_id not in selected:
            continue
        if any(getattr(context, need) is None for need in rule.requires):
            continue
        rule.check(plan, context, collector)
    return collector.diagnostics


def check_plan(
    plan: LogicalPlan,
    context: VerifyContext | None = None,
    rules: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Verify and raise on errors; returns the (warning-only) findings.

    Raises:
        PlanVerificationError: when any error-severity rule fires.
    """
    diagnostics = verify_plan(plan, context, rules)
    if any(d.severity is Severity.ERROR for d in diagnostics):
        raise PlanVerificationError(diagnostics)
    return diagnostics
