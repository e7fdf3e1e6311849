"""Data-quality profiling: the paper's motivating application, as an API.

Section 1's scenario — "understanding the distributions of values of
each column ... the percentage of missing (NULL) values in a column,
the maximum and minimum values ... the analyst may expect that
(LastName, FirstName, M.I., Zip) is a key" — packaged as one call.
All required Group By queries (per-column distributions plus any
composite key checks) are optimized together by GB-MQO and executed in
one plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.api import Session
from repro.core.optimizer import OptimizationResult, OptimizerOptions
from repro.engine.table import Table
from repro.stats.column_stats import exact_column_stats


def _decoded(value: object) -> object:
    """A value as the report shows it: a string column's bytes as ``str``."""
    return value.decode() if isinstance(value, bytes) else value


@dataclass(frozen=True)
class ColumnProfile:
    """Distribution summary of one column."""

    column: str
    n_distinct: int
    null_fraction: float
    min_value: object
    max_value: object
    top_values: tuple[tuple[object, int], ...]
    density: float

    @property
    def is_key_like(self) -> bool:
        """Nearly one distinct value per row."""
        return self.density > 0.95

    def flags(self) -> list[str]:
        """Human-readable quality flags."""
        found = []
        if self.null_fraction > 0.02:
            found.append(f"{self.null_fraction:.1%} NULLs")
        if self.is_key_like:
            found.append("almost a key")
        if self.top_values and self.n_distinct > 1:
            top_share = self.top_values[0][1]
            if self.density < 0.5 and top_share > 0:
                pass  # share flagging handled by callers with row counts
        return found


@dataclass(frozen=True)
class KeyCheck:
    """Outcome of an is-this-a-key check on a column set."""

    columns: tuple[str, ...]
    n_groups: int
    n_rows: int
    duplicate_groups: int

    @property
    def is_key(self) -> bool:
        return self.duplicate_groups == 0

    def describe(self) -> str:
        label = ", ".join(self.columns)
        if self.is_key:
            return f"({label}) is a key ({self.n_groups:,} groups)"
        return (
            f"({label}) is NOT a key: {self.duplicate_groups:,} duplicated "
            f"combinations over {self.n_rows:,} rows"
        )


@dataclass
class ProfileReport:
    """Everything :func:`profile_table` found."""

    table_name: str
    n_rows: int
    columns: list[ColumnProfile] = field(default_factory=list)
    key_checks: list[KeyCheck] = field(default_factory=list)
    optimization: OptimizationResult | None = None
    seconds: float = 0.0

    def column(self, name: str) -> ColumnProfile:
        for profile in self.columns:
            if profile.column == name:
                return profile
        raise KeyError(name)

    def render(self) -> str:
        lines = [
            f"profile of {self.table_name}: {self.n_rows:,} rows, "
            f"{len(self.columns)} columns ({self.seconds:.3f}s)",
            f"{'column':20} {'distinct':>10} {'null %':>7}  "
            f"{'top value':>14}  flags",
            "-" * 70,
        ]
        for profile in self.columns:
            top = (
                f"{profile.top_values[0][0]!r:>14.14}"
                if profile.top_values
                else " " * 14
            )
            lines.append(
                f"{profile.column:20} {profile.n_distinct:>10,} "
                f"{100 * profile.null_fraction:>6.2f}%  {top}  "
                f"{', '.join(profile.flags())}"
            )
        for check in self.key_checks:
            lines.append(check.describe())
        return "\n".join(lines)


def profile_table(
    table: Table,
    columns: Sequence[str] | None = None,
    key_candidates: Sequence[Sequence[str]] = (),
    top_k: int = 3,
    statistics: str = "sampled",
    options: OptimizerOptions | None = None,
    session: Session | None = None,
) -> ProfileReport:
    """Profile a table with one optimized multi-Group-By workload.

    Args:
        table: the relation to profile.
        columns: columns to profile (all by default).
        key_candidates: column sets to run key checks on.
        top_k: how many most-common values to report per column.
        statistics: estimator mode for the session ('sampled'/'exact').
        options: optimizer knobs.
        session: reuse an existing session bound to ``table``.

    Returns:
        A :class:`ProfileReport`; ``render()`` gives the text form.
    """
    if session is None:
        table.build_dictionaries()
        session = Session.for_table(table, statistics=statistics)
    profiled = list(columns) if columns else list(table.column_names)
    queries = [frozenset([c]) for c in profiled]
    checks = [tuple(candidate) for candidate in key_candidates]
    queries.extend(frozenset(candidate) for candidate in checks)

    optimization = session.optimize(queries, options)
    execution = session.execute(optimization.plan)

    report = ProfileReport(
        table_name=table.name,
        n_rows=table.num_rows,
        optimization=optimization,
        seconds=execution.wall_seconds,
    )
    for column in profiled:
        groups = execution.results[frozenset([column])]
        stats = exact_column_stats(table, column, with_histogram=False)
        order = np.argsort(groups["cnt"])[::-1][:top_k]
        top_values = tuple(
            (_decoded(groups[column][i].item()), int(groups["cnt"][i]))
            for i in order
        )
        report.columns.append(
            ColumnProfile(
                column=column,
                n_distinct=groups.num_rows,
                null_fraction=stats.null_fraction,
                min_value=_decoded(stats.min_value),
                max_value=_decoded(stats.max_value),
                top_values=top_values,
                density=groups.num_rows / max(table.num_rows, 1),
            )
        )
    for candidate in checks:
        groups = execution.results[frozenset(candidate)]
        duplicates = int(np.sum(groups["cnt"] > 1))
        report.key_checks.append(
            KeyCheck(
                columns=tuple(candidate),
                n_groups=groups.num_rows,
                n_rows=table.num_rows,
                duplicate_groups=duplicates,
            )
        )
    return report
