"""The query-optimizer cost model (Section 3.2.2).

Stands in for the commercial optimizer the paper calls into: it costs a
Group By over a real *or hypothetical* table from byte-level scan work,
per-row CPU for grouping, and the cost of materializing the result.  It
captures the effects of the current physical design — a covering index
makes a Group By cheap, both because the engine actually scans the
narrower sorted projection and because ordered aggregation skips hashing
— which is what drives the plan adaptation in Section 6.9 / Figure 14.

Cost constants are calibrated to the engine's physical operators, not to
wall-clock seconds; only relative costs matter for plan choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.plan import NodeKind, PlanNode
from repro.engine.catalog import Catalog
from repro.engine.morsel import morsel_count
from repro.stats.cardinality import CardinalityEstimator, rows_lower_bound_of
from repro.stats.whatif import WhatIfRegistry

#: The column sets a bound may lean on; ``None`` asks for the exact cost.
Known = tuple[frozenset[str], ...] | None

#: Cost per byte read from a stored table.
READ_BYTE = 1.0
#: Cost per byte written when materializing a temporary table.
WRITE_BYTE = 2.0
#: CPU cost per row per key column for hash grouping over a
#: dictionary-encoded stored table (calibrated to the engine's
#: bincount aggregation: a few ns/row ~ tens of byte-equivalents).
HASH_CPU = 24.0
#: CPU cost per row per key column for ordered (index) aggregation.
SORTED_CPU = 3.0
#: Extra CPU per row when the composite key domain is too large for the
#: cheap hash regime and the engine sorts the composite codes instead
#: (calibrated to np.sort on int64: ~35 ns/row).
SORT_GROUP_CPU = 300.0
#: The engine's hash-regime domain limit (mirrors
#: repro.engine.aggregation.BINCOUNT_LIMIT).
HASH_DOMAIN_LIMIT = float(1 << 22)
#: CPU cost per row per key column for dictionary-encoding a freshly
#: materialized temporary table (calibrated to the engine's integer
#: re-rank: ~35 ns/row).  Together with the write cost this is what
#: makes materializing a near-table-sized intermediate unattractive.
ENCODE_CPU = 300.0
#: CPU cost per composite-domain slot the hash (bincount) regime pays up
#: front: allocating and scanning the radix-sized count/lookup tables.
#: This is what makes hashing lose to sorting on small inputs with a
#: large key domain — the regime-dependent tradeoff the physical planner
#: exploits when lowering to HashGroupBy vs SortGroupBy.
BINCOUNT_INIT_CPU = 2.0
#: Bytes of transient state per composite-domain slot in the hash
#: regime (the int64 count table plus the int64 rank-lookup table).
HASH_SLOT_BYTES = 16.0
#: Bytes of transient state per input row in the sort regime (the int64
#: composite-code array plus its sorted copy).
SORT_ROW_BYTES = 16.0
#: Minimum base-relation rows before morsel execution is worth its
#: scheduling overhead; auto mode falls back to serial below it (the
#: fix for wavefront's small-workload ``speedup_parallel < 1`` losses).
MORSEL_MIN_ROWS = 32_768
#: Minimum groupings sharing a scan before morsel batching pays off —
#: with a single grouping there is no scan sharing to win.
MORSEL_MIN_GROUPINGS = 2
#: Extra CPU per row per grouping the two-phase partial/merge pass
#: costs over the single-pass kernels (per-morsel boundary detection
#: plus the final merge by key code).
MORSEL_PARTIAL_CPU = 8.0
#: Fixed scheduling cost per morsel dispatched to the worker pool.
MORSEL_DISPATCH_COST = 50_000.0


@dataclass(frozen=True)
class GroupingChoice:
    """The costed hash-vs-sort decision for one physical grouping.

    Attributes:
        strategy: ``'hash'`` or ``'sort'`` — the cheaper feasible regime.
        hash_cost: estimated CPU of the bincount regime (``inf`` when the
            estimated composite domain exceeds the engine's hash limit).
        sort_cost: estimated CPU of the sort regime (always feasible).
        domain: estimated composite key domain (product of per-column
            cardinalities).
        mem_bytes: transient memory estimate of the chosen regime.
    """

    strategy: str
    hash_cost: float
    sort_cost: float
    domain: float
    mem_bytes: float


@dataclass(frozen=True)
class ModeChoice:
    """The costed execution-mode decision for one plan run.

    Attributes:
        mode: ``'serial'`` or ``'morsel'`` — auto mode never picks
            ``'wavefront'``: node-level threads contend on the memory
            bus and the GIL, so its modeled cost equals serial's.
        morsels: morsel count the morsel mode would use.
        serial_cost / wavefront_cost / morsel_cost: modeled costs.
        reason: one-line explanation of the decision (EXPLAIN output).
    """

    mode: str
    morsels: int
    serial_cost: float
    wavefront_cost: float
    morsel_cost: float
    reason: str


def default_execution_mode(
    base_rows: int, n_groupings: int, parallelism: int
) -> str:
    """Threshold-only auto mode choice when no cost model is bound.

    Mirrors :meth:`EngineCostModel.execution_mode_choice`'s floors:
    parallel execution must clear both a minimum input size and a
    minimum number of scan-sharing groupings, otherwise serial wins.
    """
    if (
        parallelism >= 1
        and base_rows >= MORSEL_MIN_ROWS
        and n_groupings >= MORSEL_MIN_GROUPINGS
    ):
        return "morsel"
    return "serial"


class EngineCostModel:
    """Byte + CPU + materialization cost model over the engine.

    Args:
        estimator: cardinality source (exact or sampled).
        catalog: catalog holding the base table's indexes; None disables
            index awareness.
        base_table: name of the base relation R in the catalog.
        whatif: registry where hypothetical intermediate tables are
            declared as they are first costed (mirrors the what-if API).
    """

    def __init__(
        self,
        estimator: CardinalityEstimator,
        catalog: Catalog | None = None,
        base_table: str | None = None,
        whatif: WhatIfRegistry | None = None,
        base_row_width: float | None = None,
        use_indexes: bool = True,
    ) -> None:
        self._estimator = estimator
        self._rows_lower_bound = rows_lower_bound_of(estimator)
        self._catalog = catalog
        self._base_table = base_table
        self._use_indexes = use_indexes
        if base_row_width is not None:
            self._base_row_width = float(base_row_width)
        elif catalog is not None and base_table is not None:
            self._base_row_width = float(catalog.get(base_table).row_width())
        else:
            # No physical information: assume a plausible wide row.
            self._base_row_width = 128.0
        self.whatif = whatif if whatif is not None else WhatIfRegistry()
        self._group_cpus: dict[frozenset[str], float] = {}

    @property
    def estimator(self) -> CardinalityEstimator:
        return self._estimator

    @property
    def catalog(self) -> Catalog | None:
        """Catalog the model costs against (debug-verify lowering)."""
        return self._catalog

    @property
    def base_table(self) -> str | None:
        """Name of the base relation R, when physically bound."""
        return self._base_table

    @property
    def use_indexes(self) -> bool:
        """Whether covering indexes participate in scan costing."""
        return self._use_indexes

    # -- scan model -----------------------------------------------------------
    #
    # Every routine below takes ``known``.  With ``None`` a cardinality is
    # the estimator's and the node is declared to the what-if registry;
    # with a tuple of column sets it is ``rows_lower_bound`` over them and
    # nothing is declared.  Costs are sums and products of non-negative
    # terms, non-decreasing in every cardinality, so the same routine in
    # the same order turns floors on rows into a floor on the cost —
    # rounding included, since each rounded operation is itself monotone.

    def _rows(self, columns: frozenset[str], known: Known) -> float:
        if known is None:
            return self._estimator.rows(columns)
        return self._rows_lower_bound(columns, known)

    def _group_cpu(self, columns: frozenset[str]) -> float:
        """Per-row CPU to group on ``columns`` (remembered per column set).

        Mirrors the engine's two aggregation regimes: when the product
        of the per-column cardinalities fits the hash domain, grouping
        is a cheap counting pass; beyond it the engine sorts composite
        codes, a much heavier per-row cost.
        """
        cpu = self._group_cpus.get(columns)
        if cpu is None:
            cpu = len(columns) * HASH_CPU
            domain = 1.0
            for column in columns:
                domain *= max(self._estimator.rows(frozenset([column])), 1.0)
                if domain > HASH_DOMAIN_LIMIT:
                    cpu += SORT_GROUP_CPU
                    break
            self._group_cpus[columns] = cpu
        return cpu

    def _base_scan_cost(self, columns: frozenset[str]) -> float:
        """Cheapest way to read R and group it on ``columns``.

        A direct scan reads *full rows* (row-store semantics); a
        covering non-clustered index reads only its narrow projection.
        """
        base_rows = float(self._estimator.base_rows)
        group_cpu = self._group_cpu(columns)
        direct = base_rows * (
            self._base_row_width * READ_BYTE + group_cpu
        )
        if (
            not self._use_indexes
            or self._catalog is None
            or self._base_table is None
        ):
            return direct
        index = self._catalog.find_covering_index(self._base_table, columns)
        if index is None:
            return direct
        base = self._catalog.get(self._base_table)
        cpu = (
            len(columns) * SORTED_CPU
            if index.is_prefix(columns)
            else group_cpu
        )
        via_index = base_rows * (
            index.scan_width(columns, base) * READ_BYTE + cpu
        )
        return min(direct, via_index)

    def _intermediate_scan_cost(
        self, parent: PlanNode, child_columns: frozenset[str], known: Known
    ) -> float:
        rows = self._rows(parent.columns, known)
        width = self._estimator.row_width(parent.columns)
        return rows * (width * READ_BYTE + self._group_cpu(child_columns))

    def _materialize_cost(self, columns: frozenset[str], known: Known) -> float:
        rows = self._rows(columns, known)
        width = self._estimator.row_width(columns)
        if known is None:
            self.whatif.create(columns, rows, width)
        # Writing the rows plus dictionary-encoding the key columns so
        # children can aggregate cheaply (the executor does both).
        encode = rows * len(columns) * ENCODE_CPU
        return rows * width * WRITE_BYTE + encode

    # -- per-physical-operator costs --------------------------------------------
    #
    # The ``repro.physical`` lowering pass consumes these to annotate
    # each PhysicalOperator with an estimated cost/memory footprint and
    # to choose the grouping regime per node.  They decompose the same
    # constants the logical edge costs above are built from.

    def grouping_domain(self, columns: Iterable[str]) -> float:
        """Estimated composite key domain: product of per-column counts."""
        domain = 1.0
        for column in columns:
            domain *= max(self._estimator.rows(frozenset([column])), 1.0)
        return domain

    def grouping_choice(
        self,
        columns: Iterable[str],
        input_rows: float,
    ) -> GroupingChoice:
        """Cost the hash and sort regimes for one grouping and pick one.

        Hashing pays per-row work plus a domain-proportional setup
        (allocating/scanning the bincount tables) and is infeasible
        beyond the engine's hash domain limit; sorting pays a heavy
        per-row cost but is domain-independent.  Small inputs over wide
        domains therefore sort; large inputs over narrow domains hash.

        Args:
            columns: the grouping keys.
            input_rows: estimated input cardinality.
        """
        columns = list(columns)
        ncols = max(len(columns), 1)
        domain = self.grouping_domain(columns)
        rows = max(float(input_rows), 0.0)
        sort_cost = rows * (ncols * HASH_CPU + SORT_GROUP_CPU)
        if domain > HASH_DOMAIN_LIMIT:
            hash_cost = float("inf")
        else:
            hash_cost = rows * ncols * HASH_CPU + domain * BINCOUNT_INIT_CPU
        strategy = "hash" if hash_cost <= sort_cost else "sort"
        mem = (
            domain * HASH_SLOT_BYTES + rows * 8.0
            if strategy == "hash"
            else rows * SORT_ROW_BYTES
        )
        return GroupingChoice(strategy, hash_cost, sort_cost, domain, mem)

    def scan_op_cost(self, rows: float, width: float) -> float:
        """Cost of one physical scan: ``rows * width`` bytes read."""
        return float(rows) * float(width) * READ_BYTE

    def grouping_op_cost(
        self,
        strategy: str,
        input_rows: float,
        columns: Iterable[str],
        input_sorted: bool = False,
    ) -> float:
        """CPU cost of one physical grouping operator.

        ``input_sorted`` models the index-prefix boundary-detection path
        (no hashing or sorting at all); otherwise ``strategy`` selects
        which regime's cost from :meth:`grouping_choice` applies.
        """
        columns = list(columns)
        rows = max(float(input_rows), 0.0)
        if input_sorted:
            return rows * max(len(columns), 1) * SORTED_CPU
        choice = self.grouping_choice(columns, rows)
        return choice.hash_cost if strategy == "hash" else choice.sort_cost

    def materialize_op_cost(self, columns: frozenset[str]) -> float:
        """Cost of one physical Materialize (write + key encode)."""
        return self._materialize_cost(columns, None)

    def execution_mode_choice(
        self, n_groupings: int, parallelism: int
    ) -> ModeChoice:
        """Pick the execution mode for a plan of ``n_groupings`` nodes.

        Serial pays one full row-store pass *per grouping*; morsel
        execution pays that pass once per morsel — shared by every
        grouping in the batch — plus two-phase overhead (partial states
        and the merge) and per-morsel scheduling.  Below the row /
        grouping floors, or when the overhead exceeds the shared-scan
        savings, serial wins: this is the rows×groupings threshold that
        keeps ``speedup_parallel >= 1`` on small workloads.
        """
        rows = max(float(self._estimator.base_rows), 0.0)
        groupings = max(int(n_groupings), 1)
        scan = rows * self._base_row_width * READ_BYTE
        group_cpu = rows * HASH_CPU
        serial_cost = groupings * (scan + group_cpu)
        # Node-level thread waves contend on the memory bus (and, for
        # small kernels, the GIL): no modeled win over serial.
        wavefront_cost = serial_cost
        morsels = morsel_count(int(rows), parallelism)
        morsel_cost = (
            scan
            + groupings * (group_cpu + rows * MORSEL_PARTIAL_CPU)
            + morsels * MORSEL_DISPATCH_COST
        )
        if rows < MORSEL_MIN_ROWS:
            mode, reason = "serial", (
                f"base rows {int(rows)} below the morsel floor "
                f"{MORSEL_MIN_ROWS}"
            )
        elif groupings < MORSEL_MIN_GROUPINGS:
            mode, reason = "serial", (
                f"{groupings} grouping(s): no scan sharing to win"
            )
        elif morsel_cost >= serial_cost:
            mode, reason = "serial", (
                "two-phase overhead exceeds shared-scan savings"
            )
        else:
            mode, reason = "morsel", (
                f"{groupings} groupings share each of {morsels} "
                f"morsel scans"
            )
        return ModeChoice(
            mode=mode,
            morsels=morsels,
            serial_cost=serial_cost,
            wavefront_cost=wavefront_cost,
            morsel_cost=morsel_cost,
            reason=reason,
        )

    # -- public API -------------------------------------------------------------

    def group_by_cost(
        self,
        parent: PlanNode | None,
        columns: frozenset[str],
        materialize: bool,
        known: Known = None,
    ) -> float:
        """Cost of one plain Group By on ``columns`` from ``parent``."""
        if parent is None:
            cost = self._base_scan_cost(columns)
        else:
            cost = self._intermediate_scan_cost(parent, columns, known)
        if materialize:
            cost += self._materialize_cost(columns, known)
        return cost

    def edge_cost(
        self,
        parent: PlanNode | None,
        child: PlanNode,
        materialize_child: bool,
    ) -> float:
        return self.edge_cost_bound(parent, child, materialize_child, None)

    def edge_cost_bound(
        self,
        parent: PlanNode | None,
        child: PlanNode,
        materialize_child: bool,
        known: Known,
    ) -> float:
        """:meth:`edge_cost` with every cardinality read as its floor over
        ``known``: never above the exact cost, no statistic created for
        the edge's own nodes, nothing declared."""
        if child.kind is NodeKind.GROUP_BY:
            return self.group_by_cost(
                parent, child.columns, materialize_child, known
            )
        if child.kind is NodeKind.CUBE:
            return self._cube_cost(parent, child, known)
        return self._rollup_cost(parent, child, known)

    def _cube_cost(
        self, parent: PlanNode | None, child: PlanNode, known: Known
    ) -> float:
        # Full Group By materialized from the parent, then every other
        # grouping of the lattice computed from it (executor strategy).
        top = PlanNode(child.columns)
        cost = self.group_by_cost(parent, child.columns, True, known)
        subsets = _proper_subsets(child.columns)
        for subset in subsets:
            cost += self.group_by_cost(top, subset, False, known)
        return cost

    def _rollup_cost(
        self, parent: PlanNode | None, child: PlanNode, known: Known
    ) -> float:
        order = child.rollup_order
        cost = self.group_by_cost(
            parent, child.columns, len(order) > 1, known
        )
        for i in range(len(order) - 1, 0, -1):
            upper = PlanNode(frozenset(order[: i + 1]))
            cost += self.group_by_cost(upper, frozenset(order[:i]), False, known)
        return cost


def _proper_subsets(columns: frozenset[str]) -> list[frozenset[str]]:
    """Non-empty proper subsets of a column set (small sets only)."""
    ordered = sorted(columns)
    n = len(ordered)
    subsets = []
    for mask in range(1, (1 << n) - 1):
        subsets.append(
            frozenset(ordered[i] for i in range(n) if mask & (1 << i))
        )
    return subsets
