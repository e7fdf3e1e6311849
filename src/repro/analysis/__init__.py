"""Static analysis for GB-MQO: plan verification and codebase linting.

Two layers, one diagnostic vocabulary:

* **Plan verifier** (:mod:`repro.analysis.verifier`) — a rule-based
  checker over the :class:`~repro.core.plan.LogicalPlan` trees the
  optimizer builds.  Each rule enforces one structural invariant
  the paper states that a buildable plan can still break
  (required-query coverage, answer uniqueness, CUBE/ROLLUP leaves,
  storage bounds, ...) and emits
  structured :class:`~repro.analysis.diagnostics.Diagnostic` records.
* **Codebase linter** (:mod:`repro.analysis.linter`) — custom
  ``ast``-module lints over the ``repro`` sources themselves (frozen
  dataclass mutation, missing future-annotations imports, object-dtype
  arrays in engine hot paths, quadratic list membership, bare except,
  un-parameterized generics in ``core``).

The plan verifier runs on every ``LogicalPlan.validate()``; the linter
is exposed through the CLI (``repro lint-code``).  Both are gated in
``tests/analysis``.
"""

from repro.analysis.dataflow import (
    AbstractState,
    AnalysisContext,
    DataflowAnalysis,
    Interval,
)
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.linter import CODE_RULES, lint_paths, lint_source
from repro.analysis.physrules import (
    PHYSICAL_RULES,
    PhysicalRule,
    check_physical_plan,
    verify_physical_plan,
)
from repro.analysis.planrules import PLAN_RULES, PlanRule
from repro.analysis.verifier import (
    STRUCTURAL_RULES,
    PlanVerificationError,
    VerifyContext,
    check_plan,
    verify_plan,
)

__all__ = [
    "AbstractState",
    "AnalysisContext",
    "CODE_RULES",
    "DataflowAnalysis",
    "Diagnostic",
    "Interval",
    "PHYSICAL_RULES",
    "PLAN_RULES",
    "PhysicalRule",
    "PlanRule",
    "PlanVerificationError",
    "STRUCTURAL_RULES",
    "Severity",
    "VerifyContext",
    "check_physical_plan",
    "check_plan",
    "lint_paths",
    "lint_source",
    "verify_physical_plan",
    "verify_plan",
]
