"""The physical plan model: typed operators, pipelines, and waves.

A :class:`PhysicalPlan` is the executable form of a logical GB-MQO
plan: a DAG of :class:`PhysicalOperator` nodes grouped into
*pipelines*.  Operators inside one pipeline pass their result directly
to the next operator (one worker executes a pipeline start to finish);
data crossing pipeline boundaries always goes through a
:class:`Materialize` into the catalog and is released by a matching
:class:`DropTemp` — the invariant the physical verifier rules (PV012+)
enforce.

Operators reference their input by operator id (``source``), ids are
positions in :attr:`PhysicalPlan.operators`, and every edge points
backwards (``source < op_id``), so a well-formed plan is acyclic by
construction.  :attr:`PhysicalPlan.waves` is the schedule the executor
runs in every mode: the depth ranks of a parallel plan's pipelines, or
one wave per compute pipeline in a serial plan's linear order.

Every operator carries the lowering pass's estimates — output rows,
operator cost, transient memory — which EXPLAIN renders and the
memory-budget check consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Iterator

from repro.core.plan import PlanError
from repro.engine.aggregation import AggregateSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.dataflow import AnalysisContext
    from repro.analysis.diagnostics import Diagnostic


class PhysicalPlanError(PlanError):
    """A physical plan was malformed or referenced unknown operators."""


@dataclass(frozen=True, kw_only=True)
class PhysicalOperator:
    """Base of every physical operator.

    Args:
        op_id: position of this operator in the owning plan.
        est_rows: estimated output rows (0 when no estimator was given).
        est_cost: estimated operator cost in cost-model units.
        est_mem_bytes: estimated transient memory of the operator.
    """

    op_id: int
    est_rows: float = 0.0
    est_cost: float = 0.0
    est_mem_bytes: float = 0.0

    #: Stable operator name; also the suffix of the operator's span
    #: (``execute.<op_name>``).
    op_name: ClassVar[str] = "op"

    def inputs(self) -> tuple[int, ...]:
        """Operator ids this operator reads from (inside its pipeline)."""
        return ()

    def describe(self) -> str:
        return self.op_name


@dataclass(frozen=True, kw_only=True)
class Scan(PhysicalOperator):
    """Access path: read a named table from the catalog.

    Pure source resolution — the downstream grouping operator meters
    the read, matching row-store scan semantics.
    """

    table: str

    op_name: ClassVar[str] = "scan"

    def describe(self) -> str:
        return f"Scan {self.table}"


@dataclass(frozen=True, kw_only=True)
class IndexScan(PhysicalOperator):
    """Access path: read a covering non-clustered index projection.

    ``sorted_prefix`` marks that the requested keys are a prefix of the
    index key, so the downstream grouping uses ordered boundary
    detection instead of hashing or sorting.
    """

    table: str
    index: str
    sorted_prefix: bool = False

    op_name: ClassVar[str] = "index_scan"

    def describe(self) -> str:
        suffix = " [sorted prefix]" if self.sorted_prefix else ""
        return f"IndexScan {self.index} on {self.table}{suffix}"


@dataclass(frozen=True, kw_only=True)
class GroupingOperator(PhysicalOperator):
    """Common shape of the grouping operators.

    Args:
        source: op id of the access path (or Materialize) feeding this.
        keys: grouping columns, sorted.
        output: name of the result table.
        query: the required query this grouping answers directly, as a
            sorted column tuple — None for purely intermediate results.
        aggregates: the aggregates its result carries — the workload's
            list, or the union of what its subtree's queries need
            (Section 7.2); a ``Reaggregate`` combines them
            distributively from its input's partials.
        partitions: >1 executes the grouping per value-range partition
            of the first key and concatenates — the out-of-memory
            fallback when the estimate exceeds the plan budget.
        morsels: >1 executes the grouping two-phase over that many
            row-range morsels of the input (partial aggregate states
            per morsel, merged into final groups), sharing each
            morsel's row-store pass with every other morselized
            grouping of the same source in its wave.  Results are
            bit-identical to the single-pass regimes.
    """

    source: int
    keys: tuple[str, ...]
    output: str
    query: tuple[str, ...] | None = None
    aggregates: tuple[AggregateSpec, ...] = (AggregateSpec.count_star(),)
    partitions: int = 1
    morsels: int = 1

    def inputs(self) -> tuple[int, ...]:
        return (self.source,)

    def _suffix(self) -> str:
        parts = ""
        if self.partitions > 1:
            parts += f" x{self.partitions} partitions"
        if self.morsels > 1:
            parts += f" [{self.morsels} morsels]"
        if self.query is not None:
            parts += " [answers query]"
        return parts


@dataclass(frozen=True, kw_only=True)
class HashGroupBy(GroupingOperator):
    """Group via the bincount (hash) regime, guarded by actual radix."""

    op_name: ClassVar[str] = "hash_group_by"

    def describe(self) -> str:
        return (
            f"HashGroupBy ({','.join(self.keys)}) -> {self.output}"
            + self._suffix()
        )


@dataclass(frozen=True, kw_only=True)
class SortGroupBy(GroupingOperator):
    """Group via the sort regime (or ordered input boundary detection)."""

    input_sorted: bool = False

    op_name: ClassVar[str] = "sort_group_by"

    def describe(self) -> str:
        sorted_note = " [input sorted]" if self.input_sorted else ""
        return (
            f"SortGroupBy ({','.join(self.keys)}) -> {self.output}"
            + sorted_note
            + self._suffix()
        )


@dataclass(frozen=True, kw_only=True)
class Reaggregate(GroupingOperator):
    """Group a materialized intermediate with re-aggregation specs.

    ``source`` must be the :class:`Materialize` operator whose temp this
    reads (resolved through the catalog at run time — the input lives in
    an earlier pipeline, possibly executed by another worker).
    """

    strategy: str = "hash"

    op_name: ClassVar[str] = "reaggregate"

    def describe(self) -> str:
        return (
            f"Reaggregate ({','.join(self.keys)}) -> {self.output} "
            f"[{self.strategy}]" + self._suffix()
        )


@dataclass(frozen=True, kw_only=True)
class CubeExpand(PhysicalOperator):
    """Answer every covered CUBE grouping from the top grouping's result.

    ``queries`` are the covered groupings (excluding the top), each a
    sorted column tuple, in deterministic execution order.
    """

    source: int
    queries: tuple[tuple[str, ...], ...]

    op_name: ClassVar[str] = "cube_expand"

    def inputs(self) -> tuple[int, ...]:
        return (self.source,)

    def describe(self) -> str:
        return f"CubeExpand {len(self.queries)} covered groupings"


@dataclass(frozen=True, kw_only=True)
class RollupExpand(PhysicalOperator):
    """Answer ROLLUP prefixes successively from the top grouping.

    ``order`` is the rollup column order; ``answers`` the proper
    prefixes (sorted column tuples) that are required queries.
    """

    source: int
    order: tuple[str, ...]
    answers: tuple[tuple[str, ...], ...]

    op_name: ClassVar[str] = "rollup_expand"

    def inputs(self) -> tuple[int, ...]:
        return (self.source,)

    def describe(self) -> str:
        return f"RollupExpand {' > '.join(self.order)}"


@dataclass(frozen=True, kw_only=True)
class CacheRead(PhysicalOperator):
    """Serve a grouping result from the semantic result cache.

    Substituted by the cache-aware lowering when the
    :class:`~repro.cache.ResultCache` holds an entry that can answer a
    grouping — exactly (the entry's keys equal the grouping; the read
    stands alone) or by derivation (the entry's keys are a strict
    superset; a :class:`Reaggregate` consumes the read).  The PV025
    rule enforces both the superset condition and version freshness:
    ``version`` pins the source table state the entry was computed
    against, and a mismatch with the live catalog is a hard error.

    Args:
        table: source base relation the cached result was computed from.
        keys: grouping key set of the cached entry, sorted.
        fingerprint: the entry's grouping fingerprint (serve handle).
        version: catalog version of ``table`` at population time.
        output: name the served table is exposed under.
        derived: True when a downstream Reaggregate consumes this read
            (hit accounting: derived_hits vs hits).
        query: the required query this read answers directly, as a
            sorted column tuple — None when it feeds a Reaggregate.
        aggregates: the entry's aggregates — what a cold recomputation
            computes if the entry was evicted before the read.
    """

    table: str
    keys: tuple[str, ...]
    fingerprint: str
    version: int
    output: str
    derived: bool = False
    query: tuple[str, ...] | None = None
    aggregates: tuple[AggregateSpec, ...] = (AggregateSpec.count_star(),)

    op_name: ClassVar[str] = "cache_read"

    def describe(self) -> str:
        kind = "derivable" if self.derived else "exact"
        suffix = " [answers query]" if self.query is not None else ""
        return (
            f"CacheRead ({','.join(self.keys)}) -> {self.output} "
            f"[{kind} v{self.version}]" + suffix
        )


@dataclass(frozen=True, kw_only=True)
class Materialize(PhysicalOperator):
    """Spool a pipeline's grouping result into the catalog as a temp."""

    source: int
    output: str

    op_name: ClassVar[str] = "materialize"

    def inputs(self) -> tuple[int, ...]:
        return (self.source,)

    def describe(self) -> str:
        return f"Materialize {self.output}"


@dataclass(frozen=True, kw_only=True)
class DropTemp(PhysicalOperator):
    """Release a materialized temp once its last consumer has run."""

    temp: str

    op_name: ClassVar[str] = "drop_temp"

    def describe(self) -> str:
        return f"DropTemp {self.temp}"


@dataclass(frozen=True)
class PhysicalPipeline:
    """A maximal chain of operators one worker runs start to finish.

    Args:
        ops: operator ids, in execution order.
        label: the logical node this pipeline computes (span ``node``
            attribute and per-query byte-attribution key).
        kind: logical kind — ``group_by``/``cube``/``rollup`` for
            compute pipelines, ``drop`` for temp releases, ``batch``
            for shared-scan batches.
        source: description of the input relation (``R`` or a parent
            node), for spans and rendering.
        materialized: whether the pipeline spools its result.
        attribute: record the pipeline's byte delta under ``label`` in
            ``ExecutionMetrics.per_query_bytes``.
        depth: distance from the base relation (rendering indent).
    """

    ops: tuple[int, ...]
    label: str
    kind: str
    source: str = "R"
    materialized: bool = False
    attribute: bool = True
    depth: int = 0

    @property
    def is_compute(self) -> bool:
        return self.kind != "drop"


@dataclass(frozen=True)
class PhysicalWave:
    """One rank of the schedule: pipelines that may run side by side.

    ``pipelines``/``drops`` are indices into the owning plan's pipeline
    tuple; drops run after every compute pipeline of the wave finishes.
    """

    index: int
    pipelines: tuple[int, ...]
    drops: tuple[int, ...] = ()


def linear_waves(
    pipelines: tuple[PhysicalPipeline, ...],
) -> tuple[PhysicalWave, ...]:
    """A linear schedule as waves: one wave per compute pipeline, in
    order, each drop in the wave it follows (a leading drop gets a wave
    of its own)."""
    waves: list[PhysicalWave] = []
    for index, pipeline in enumerate(pipelines):
        if pipeline.is_compute or not waves:
            computes = (index,) if pipeline.is_compute else ()
            waves.append(PhysicalWave(len(waves), computes))
        else:
            last = waves[-1]
            waves[-1] = PhysicalWave(
                last.index, last.pipelines, last.drops + (index,)
            )
    return tuple(waves)


#: Execution modes a lowered plan can carry; a caller may also ask
#: the lowering for ``"auto"``, which resolves to serial or wavefront.
#: Every mode runs the plan's waves in order.  ``serial`` waves hold
#: one pipeline each, in the lowered linear schedule; ``wavefront``
#: waves are the plan's depth ranks, run across a thread pool
#: (node-level parallelism); ``morsel`` runs the same waves but pays a
#: wave's shared input pass as a batch of row-range morsels that also
#: compute its morselized groupings (operator-internal parallelism); it
#: runs only when forced.  All three produce bit-identical tables and
#: metrics totals.
EXECUTION_MODES = ("serial", "wavefront", "morsel")


@dataclass(frozen=True)
class PhysicalPlan:
    """A lowered, executable plan over one base relation.

    Args:
        relation: the base relation R.
        operators: every operator; ids equal positions.
        pipelines: compute and drop pipelines, in lowering order.
        waves: the schedule over the same pipelines; empty (the
            default) means :func:`linear_waves` of ``pipelines``.
        memory_budget_bytes: plan-wide transient-memory budget the
            lowering honored, or None for unbounded.
        mode: one of :data:`EXECUTION_MODES`.
        mode_reason: why the plan runs in ``mode`` — the lowering's
            ``auto`` decision (:class:`~repro.costmodel.engine_model.
            ModeChoice` ``reason``), or ``"forced"``.
    """

    relation: str
    operators: tuple[PhysicalOperator, ...]
    pipelines: tuple[PhysicalPipeline, ...]
    waves: tuple[PhysicalWave, ...] = ()
    memory_budget_bytes: float | None = None
    mode: str = "serial"
    mode_reason: str = "forced"

    def __post_init__(self) -> None:
        if self.mode not in EXECUTION_MODES:
            raise PhysicalPlanError(
                f"unknown execution mode {self.mode!r}; "
                f"expected one of {EXECUTION_MODES}"
            )
        if not self.waves:
            object.__setattr__(self, "waves", linear_waves(self.pipelines))
        for position, op in enumerate(self.operators):
            if op.op_id != position:
                raise PhysicalPlanError(
                    f"operator at position {position} carries id {op.op_id}"
                )

    def op(self, op_id: int) -> PhysicalOperator:
        if not 0 <= op_id < len(self.operators):
            raise PhysicalPlanError(f"unknown operator id {op_id}")
        return self.operators[op_id]

    def compute_pipelines(self) -> tuple[PhysicalPipeline, ...]:
        return tuple(p for p in self.pipelines if p.is_compute)

    def iter_ops(self) -> Iterator[PhysicalOperator]:
        return iter(self.operators)

    def grouping_ops(self) -> tuple[GroupingOperator, ...]:
        return tuple(
            op for op in self.operators if isinstance(op, GroupingOperator)
        )

    def check(
        self, context: AnalysisContext | None = None
    ) -> list[Diagnostic]:
        """Gate: run the physical + dataflow rule catalog over the plan.

        Raises :class:`repro.analysis.verifier.PlanVerificationError`
        on any error-severity finding and returns the remaining
        (warning-only) diagnostics.  Passing an
        :class:`~repro.analysis.dataflow.AnalysisContext` with a
        catalog / estimator additionally runs the context-gated rules
        (schema soundness, cardinality-interval containment).
        """
        # Imported here: repro.analysis depends on repro.physical.
        from repro.analysis.physrules import check_physical_plan

        return check_physical_plan(self, context=context)

    def render(self) -> str:
        """Human-readable operator tree with per-operator estimates."""
        mode = f"{self.mode} ({len(self.waves)} waves)"
        budget = (
            f" budget={_fmt(self.memory_budget_bytes)}B"
            if self.memory_budget_bytes is not None
            else ""
        )
        lines = [
            f"physical plan: {self.relation}  "
            f"ops={len(self.operators)} pipelines={len(self.pipelines)} "
            f"mode={mode}{budget}",
            f"mode reason: {self.mode_reason}",
        ]
        for pipeline in self.pipelines:
            indent = "    " * pipeline.depth
            if pipeline.kind == "drop":
                op = self.op(pipeline.ops[0])
                lines.append(f"{indent}{op.describe()}")
                continue
            lines.append(
                f"{indent}{pipeline.label} FROM {pipeline.source} "
                f"[{pipeline.kind}]"
            )
            for i, op_id in enumerate(pipeline.ops):
                op = self.op(op_id)
                branch = "└─" if i == len(pipeline.ops) - 1 else "├─"
                lines.append(
                    f"{indent}{branch} {op.describe()}{_estimates(op)}"
                )
        return "\n".join(lines)


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.3g}"


def _estimates(op: PhysicalOperator) -> str:
    parts = []
    if op.est_rows:
        parts.append(f"rows≈{_fmt(op.est_rows)}")
    if op.est_cost:
        parts.append(f"cost≈{_fmt(op.est_cost)}")
    if op.est_mem_bytes:
        parts.append(f"mem≈{_fmt(op.est_mem_bytes)}B")
    return "  (" + ", ".join(parts) + ")" if parts else ""
