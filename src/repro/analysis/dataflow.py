"""Abstract interpretation over physical plans (verifier Layer 1c).

The shared-computation plans of the paper are only correct if every
operator's *data* assumptions hold: a ``Reaggregate`` must read a temp
whose grouping is a coarsening of its own keys (Section 4's lattice
order), the temp's key dictionaries must be fresh (the engine's
staleness contract), a ``SortGroupBy`` with ``input_sorted`` must
actually receive ordered input, and CUBE/ROLLUP expansion must only
answer strict coarsenings of the top grouping.  PV012–PV015 check the
plan's *shape*; this module checks its *dataflow*.

:class:`DataflowAnalysis` walks the operator DAG once (ids are
topological by construction — every edge points backwards) and
propagates an :class:`AbstractState` per operator over five abstract
domains:

* **available columns** — which named columns the operator's output
  carries (``None`` = unknown, i.e. ⊤);
* **grouping lattice** — the key set the stream is grouped by, under
  the paper's coarser/finer partial order (``A`` coarsens ``B`` iff
  ``A ⊆ B``; ``None`` = raw base rows, the finest element);
* **cardinality interval** — ``[lo, hi]`` bounds on output rows
  derived from :mod:`repro.stats` per-column distinct counts: a
  grouping on keys ``K`` over a complete input yields at least
  ``max_c d(c)`` and at most ``min(rows, ∏_c d(c))`` groups;
* **sortedness** — the column order the stream is sorted by (``()`` =
  unsorted, ``None`` = unknown);
* **dictionary freshness** — which columns of a materialized temp
  carry dictionaries encoded *after* the temp was built (the executor
  encodes exactly the producer's grouping keys).

The PV016+ rules registered here consume these states; they run
through the same :func:`~repro.analysis.physrules.verify_physical_plan`
driver as the structural rules.  Rules marked ``requires`` only run
when the :class:`AnalysisContext` carries the needed ingredient
(catalog / estimator), so context-free gates (serialize load paths,
``PhysicalPlan.check()``) stay cheap while the executor's gate — which
has both — runs the full catalog, turning the interval domain into a
standing cross-check of the cost model's ``est_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.analysis.diagnostics import DiagnosticCollector, Severity
from repro.analysis.physrules import physical_rule
from repro.physical.plan import (
    CacheRead,
    CubeExpand,
    DropTemp,
    GroupingOperator,
    HashGroupBy,
    IndexScan,
    Materialize,
    PhysicalOperator,
    PhysicalPlan,
    Reaggregate,
    RollupExpand,
    Scan,
    SortGroupBy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.catalog import Catalog
    from repro.engine.indexes import Index
    from repro.stats.cardinality import CardinalityEstimator


@dataclass(frozen=True)
class Interval:
    """A closed cardinality interval ``[lo, hi]`` (rows)."""

    lo: float
    hi: float

    def contains(self, value: float, epsilon: float = 1e-6) -> bool:
        """Whether ``value`` lies in the interval, up to float slack."""
        lower = self.lo * (1.0 - epsilon) - 1e-9
        upper = self.hi * (1.0 + epsilon) + 1e-9
        return lower <= value <= upper

    def __str__(self) -> str:
        hi = "inf" if math.isinf(self.hi) else f"{self.hi:.0f}"
        return f"[{self.lo:.0f}, {hi}]"


#: The unbounded interval: nothing is known about the cardinality.
UNKNOWN_ROWS = Interval(0.0, math.inf)


@dataclass(frozen=True)
class AbstractState:
    """Per-operator abstract state the interpreter propagates.

    Args:
        columns: available output columns; None = unknown (⊤).
        grouping: grouping-key set of the stream under the lattice
            order (``A`` coarsens ``B`` iff ``A ⊆ B``); None = raw
            base rows, the finest element.
        rows: cardinality interval of the operator's output.
        sorted_by: column order the output is sorted by; ``()`` =
            unsorted, None = unknown (an unverifiable sorted claim).
        fresh: columns whose dictionaries were encoded after the
            stream's table was (re)built — the staleness contract.
        complete: the stream still contains *every* combination of its
            grouping keys present in the base relation (true for full
            scans and for grouping chains that only ever coarsen).
            Only complete streams admit the ``max_c d(c)`` lower
            cardinality bound.
    """

    columns: frozenset[str] | None
    grouping: frozenset[str] | None
    rows: Interval
    sorted_by: tuple[str, ...] | None
    fresh: frozenset[str]
    complete: bool = True


#: State assumed for inputs the interpreter cannot resolve (forward or
#: out-of-range edges — PV012 reports those; the dataflow pass must
#: still terminate without raising).
UNKNOWN_STATE = AbstractState(
    columns=None,
    grouping=None,
    rows=UNKNOWN_ROWS,
    sorted_by=None,
    fresh=frozenset(),
    complete=False,
)


@dataclass(frozen=True)
class AnalysisContext:
    """Optional ingredients for the context-gated dataflow rules.

    Args:
        catalog: resolves table schemas and index key orders (enables
            PV016 and strengthens PV020).
        base_table: name of the base relation R (scan cardinality).
        estimator: per-column-set distinct counts from ``repro.stats``
            (enables the interval rules PV019 / PV022).
        epsilon: relative slack for interval containment checks.
    """

    catalog: Catalog | None = None
    base_table: str | None = None
    estimator: CardinalityEstimator | None = None
    epsilon: float = 1e-6


class DataflowAnalysis:
    """One abstract-interpretation pass over a physical plan.

    Operator ids are topological (every edge points backwards), so a
    single forward sweep computes a fixpoint-free solution: each
    operator's state is a pure function of its inputs' states.
    """

    def __init__(
        self, plan: PhysicalPlan, context: AnalysisContext | None = None
    ) -> None:
        self.plan = plan
        self.context = context or AnalysisContext()
        self.states: dict[int, AbstractState] = {}
        for op in plan.operators:
            self.states[op.op_id] = self._transfer(op)

    def state_of(self, op_id: int) -> AbstractState:
        """State of operator ``op_id`` (⊤ for unresolvable ids)."""
        return self.states.get(op_id, UNKNOWN_STATE)

    # -- abstract domains ----------------------------------------------------

    def _distinct(self, column: str) -> float | None:
        estimator = self.context.estimator
        if estimator is None:
            return None
        return float(estimator.rows(frozenset([column])))

    def _table_rows(self, table: str) -> Interval:
        """Cardinality of a named base table, ``[N, N]`` when known."""
        catalog = self.context.catalog
        if catalog is not None and table in catalog:
            n = float(catalog.get(table).num_rows)
            return Interval(n, n)
        estimator = self.context.estimator
        if estimator is not None and table == self.plan.relation:
            n = float(estimator.base_rows)
            return Interval(n, n)
        return UNKNOWN_ROWS

    def group_interval(
        self, keys: Iterable[str], source: AbstractState
    ) -> Interval:
        """Bounds on the group count of ``GROUP BY keys`` over ``source``.

        With statistics, a grouping on ``K`` produces at most
        ``min(input_hi, ∏_c d(c))`` groups; when the input is complete
        (contains every base-relation combination of ``K``) it produces
        at least ``max_c d(c)`` — the per-column distinct counts are a
        floor on the composite count.
        """
        keys = list(keys)
        inp = source.rows
        if self.context.estimator is None or not keys:
            lo = 1.0 if inp.lo >= 1.0 else 0.0
            return Interval(lo, inp.hi)
        product = 1.0
        floor = 0.0
        for column in keys:
            d = self._distinct(column)
            if d is None:
                return Interval(0.0, inp.hi)
            product *= d
            floor = max(floor, d)
        hi = min(inp.hi, product)
        key_set = frozenset(keys)
        preserves = source.complete and (
            source.grouping is None or key_set <= source.grouping
        )
        if not preserves or inp.lo <= 0.0:
            floor = 1.0 if inp.lo >= 1.0 else 0.0
        # Clamp: with sampled statistics the single-column floor and the
        # product cap come from different estimates; keep lo <= hi.
        return Interval(min(floor, hi), hi)

    def _find_index(self, table: str, name: str) -> Index | None:
        catalog = self.context.catalog
        if catalog is None:
            return None
        for index in catalog.indexes_on(table):
            if index.name == name:
                return index
        return None

    # -- transfer function ---------------------------------------------------

    def _transfer(self, op: PhysicalOperator) -> AbstractState:
        if isinstance(op, Scan):
            return self._transfer_scan(op)
        if isinstance(op, IndexScan):
            return self._transfer_index_scan(op)
        if isinstance(op, GroupingOperator):
            return self._transfer_grouping(op)
        if isinstance(op, CacheRead):
            return self._transfer_cache_read(op)
        if isinstance(op, Materialize):
            return self._transfer_materialize(op)
        if isinstance(op, CubeExpand):
            return self._transfer_cube(op)
        if isinstance(op, RollupExpand):
            return self._transfer_rollup(op)
        if isinstance(op, DropTemp):
            return AbstractState(
                columns=frozenset(),
                grouping=None,
                rows=Interval(0.0, 0.0),
                sorted_by=(),
                fresh=frozenset(),
            )
        return UNKNOWN_STATE

    def _transfer_scan(self, op: Scan) -> AbstractState:
        catalog = self.context.catalog
        columns: frozenset[str] | None = None
        if catalog is not None and op.table in catalog:
            columns = frozenset(catalog.get(op.table).column_names)
        return AbstractState(
            columns=columns,
            grouping=None,
            rows=self._table_rows(op.table),
            sorted_by=(),
            fresh=columns or frozenset(),
        )

    def _transfer_index_scan(self, op: IndexScan) -> AbstractState:
        index = self._find_index(op.table, op.index)
        columns: frozenset[str] | None = None
        sorted_by: tuple[str, ...] | None
        if index is not None:
            columns = frozenset(index.columns)
            sorted_by = tuple(index.columns) if op.sorted_prefix else ()
        else:
            # Without the catalog the sorted-prefix claim is unverifiable.
            sorted_by = None if op.sorted_prefix else ()
        return AbstractState(
            columns=columns,
            grouping=None,
            rows=self._table_rows(op.table),
            sorted_by=sorted_by,
            fresh=columns or frozenset(),
        )

    def _transfer_grouping(self, op: GroupingOperator) -> AbstractState:
        source = self.state_of(op.source)
        keys = frozenset(op.keys)
        complete = source.complete and (
            source.grouping is None or keys <= source.grouping
        )
        return AbstractState(
            # Key columns plus the (opaque) aggregate outputs.
            columns=keys,
            grouping=keys,
            rows=self.group_interval(op.keys, source),
            # The engine emits groups in sorted composite-key order.
            sorted_by=tuple(sorted(op.keys)),
            fresh=keys,
            complete=complete,
        )

    def _transfer_cache_read(self, op: CacheRead) -> AbstractState:
        """A cached grouping result behaves like the grouping that
        produced it: grouped and sorted on its key set, complete, with
        materialization-fresh key dictionaries (``ResultCache.put``
        builds them on admission)."""
        keys = frozenset(op.keys)
        base = AbstractState(
            columns=None,
            grouping=None,
            rows=self._table_rows(op.table),
            sorted_by=(),
            fresh=frozenset(),
        )
        return AbstractState(
            columns=keys,
            grouping=keys,
            rows=self.group_interval(op.keys, base),
            sorted_by=tuple(sorted(op.keys)),
            fresh=keys,
            complete=True,
        )

    def _transfer_materialize(self, op: Materialize) -> AbstractState:
        source = self.state_of(op.source)
        producer = (
            self.plan.operators[op.source]
            if 0 <= op.source < len(self.plan.operators)
            else None
        )
        # The executor re-encodes exactly the producer's grouping keys
        # after spooling the temp; every other column's dictionary is
        # stale (repro.engine.table staleness contract).
        fresh = (
            frozenset(producer.keys)
            if isinstance(producer, GroupingOperator)
            else frozenset()
        )
        return AbstractState(
            columns=source.columns,
            grouping=source.grouping,
            rows=source.rows,
            sorted_by=source.sorted_by,
            fresh=fresh,
            complete=source.complete,
        )

    def _transfer_cube(self, op: CubeExpand) -> AbstractState:
        source = self.state_of(op.source)
        lo = 0.0
        hi = 0.0
        for query in op.queries:
            interval = self.group_interval(query, source)
            lo += interval.lo
            hi += interval.hi
        return AbstractState(
            columns=None,
            grouping=source.grouping,
            rows=Interval(lo, hi),
            sorted_by=(),
            fresh=frozenset(),
            complete=source.complete,
        )

    def _transfer_rollup(self, op: RollupExpand) -> AbstractState:
        source = self.state_of(op.source)
        lo = 0.0
        hi = 0.0
        for length in range(len(op.order) - 1, 0, -1):
            interval = self.group_interval(op.order[:length], source)
            lo += interval.lo
            hi += interval.hi
        return AbstractState(
            columns=None,
            grouping=source.grouping,
            rows=Interval(lo, hi),
            sorted_by=(),
            fresh=frozenset(),
            complete=source.complete,
        )

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Per-operator abstract states, for ``analyze-plan --states``."""
        lines = ["op  rows            grouping        sorted      state"]
        for op in self.plan.operators:
            state = self.state_of(op.op_id)
            grouping = (
                "raw"
                if state.grouping is None
                else "(" + ",".join(sorted(state.grouping)) + ")"
            )
            sorted_by = (
                "?"
                if state.sorted_by is None
                else ",".join(state.sorted_by) or "-"
            )
            flags = []
            if state.complete:
                flags.append("complete")
            if state.fresh:
                flags.append("fresh=" + ",".join(sorted(state.fresh)))
            lines.append(
                f"{op.op_id:<3d} {str(state.rows):<15} {grouping:<15} "
                f"{sorted_by:<11} {';'.join(flags)}  # {op.describe()}"
            )
        return "\n".join(lines)


def _where(op: PhysicalOperator) -> str:
    return f"op {op.op_id} ({op.describe()})"


# -- PV016: schema soundness -------------------------------------------------


@physical_rule(
    "PV016",
    "schema-soundness",
    "Every operator only references tables, indexes, and columns that "
    "exist at its input.",
    requires=("catalog",),
)
def check_schema_soundness(
    analysis: DataflowAnalysis, out: DiagnosticCollector
) -> None:
    catalog = analysis.context.catalog
    assert catalog is not None  # guaranteed by ``requires``
    for op in analysis.plan.operators:
        if isinstance(op, Scan):
            if op.table not in catalog and not catalog.is_temp(op.table):
                out.emit(
                    "PV016",
                    Severity.ERROR,
                    _where(op),
                    f"scans unknown table {op.table!r}",
                )
        elif isinstance(op, IndexScan):
            if op.table not in catalog:
                out.emit(
                    "PV016",
                    Severity.ERROR,
                    _where(op),
                    f"scans an index of unknown table {op.table!r}",
                )
            elif analysis._find_index(op.table, op.index) is None:
                out.emit(
                    "PV016",
                    Severity.ERROR,
                    _where(op),
                    f"references unknown index {op.index!r} on "
                    f"{op.table!r}",
                )
        elif isinstance(op, (HashGroupBy, SortGroupBy)):
            available = analysis.state_of(op.source).columns
            if available is None:
                continue
            missing = sorted(frozenset(op.keys) - available)
            if missing:
                out.emit(
                    "PV016",
                    Severity.ERROR,
                    _where(op),
                    f"grouping keys {missing!r} are not available at "
                    "the operator's input",
                    hint="the access path must cover every grouping "
                    "column.",
                )


# -- PV017: reaggregate only from a coarser temp -----------------------------


@physical_rule(
    "PV017",
    "reaggregate-from-coarser",
    "A Reaggregate's keys are a strict subset of its source temp's "
    "grouping keys (the lattice coarsening order).",
)
def check_reaggregate_coarsening(
    analysis: DataflowAnalysis, out: DiagnosticCollector
) -> None:
    for op in analysis.plan.operators:
        if not isinstance(op, Reaggregate):
            continue
        grouping = analysis.state_of(op.source).grouping
        if grouping is None:
            continue  # raw rows: any grouping is a coarsening
        keys = frozenset(op.keys)
        if not keys <= grouping:
            out.emit(
                "PV017",
                Severity.ERROR,
                _where(op),
                f"keys ({','.join(sorted(keys))}) are not a coarsening "
                f"of the source grouping "
                f"({','.join(sorted(grouping))})",
                hint="a child can only be answered from a parent whose "
                "key set contains the child's (Section 4 lattice).",
            )
        elif keys == grouping:
            out.emit(
                "PV017",
                Severity.WARNING,
                _where(op),
                "reaggregates to the same grouping as its source "
                "(a no-op pass over the temp)",
            )


# -- PV018: CUBE / ROLLUP expansion structure --------------------------------


@physical_rule(
    "PV018",
    "expansion-structure",
    "CUBE expansion answers distinct strict coarsenings of the top "
    "grouping; ROLLUP order covers the top keys and answers are its "
    "sorted proper prefixes.",
)
def check_expansion_structure(
    analysis: DataflowAnalysis, out: DiagnosticCollector
) -> None:
    for op in analysis.plan.operators:
        if isinstance(op, CubeExpand):
            top = analysis.state_of(op.source).grouping
            if len(set(op.queries)) != len(op.queries):
                out.emit(
                    "PV018",
                    Severity.ERROR,
                    _where(op),
                    "covered groupings contain duplicates",
                )
            for query in op.queries:
                if tuple(sorted(query)) != query:
                    out.emit(
                        "PV018",
                        Severity.ERROR,
                        _where(op),
                        f"covered grouping {query!r} is not in sorted "
                        "canonical form",
                    )
                if top is not None and not frozenset(query) < top:
                    out.emit(
                        "PV018",
                        Severity.ERROR,
                        _where(op),
                        f"covered grouping ({','.join(query)}) is not a "
                        "strict coarsening of the top grouping "
                        f"({','.join(sorted(top))})",
                    )
        elif isinstance(op, RollupExpand):
            top = analysis.state_of(op.source).grouping
            if top is not None and frozenset(op.order) != top:
                out.emit(
                    "PV018",
                    Severity.ERROR,
                    _where(op),
                    f"rollup order ({','.join(op.order)}) does not "
                    "match the top grouping "
                    f"({','.join(sorted(top))})",
                )
            prefixes = {
                tuple(sorted(op.order[:length]))
                for length in range(1, len(op.order))
            }
            for answer in op.answers:
                if answer not in prefixes:
                    out.emit(
                        "PV018",
                        Severity.ERROR,
                        _where(op),
                        f"answer ({','.join(answer)}) is not a sorted "
                        "proper prefix of the rollup order",
                    )


# -- PV019: expansion cardinality bounds -------------------------------------


@physical_rule(
    "PV019",
    "expansion-cardinality",
    "A CUBE/ROLLUP expansion's estimated output rows lie inside the "
    "sum of its covered groupings' cardinality intervals.",
    severity=Severity.WARNING,
    requires=("estimator",),
)
def check_expansion_cardinality(
    analysis: DataflowAnalysis, out: DiagnosticCollector
) -> None:
    epsilon = analysis.context.epsilon
    for op in analysis.plan.operators:
        if not isinstance(op, (CubeExpand, RollupExpand)):
            continue
        if op.est_rows <= 0:
            continue
        interval = analysis.state_of(op.op_id).rows
        if not interval.contains(op.est_rows, epsilon):
            out.emit(
                "PV019",
                Severity.WARNING,
                _where(op),
                f"estimated output rows {op.est_rows:.0f} fall outside "
                f"the inferred expansion bounds {interval}",
                hint="the cost model and the statistics disagree about "
                "the covered groupings' sizes.",
            )


# -- PV020: SortGroupBy sortedness precondition ------------------------------


@physical_rule(
    "PV020",
    "sortedness-precondition",
    "A SortGroupBy claiming sorted input reads an access path whose "
    "output order has the grouping keys as a prefix.",
)
def check_sortedness_precondition(
    analysis: DataflowAnalysis, out: DiagnosticCollector
) -> None:
    for op in analysis.plan.operators:
        if not isinstance(op, SortGroupBy) or not op.input_sorted:
            continue
        order = analysis.state_of(op.source).sorted_by
        if order is None:
            continue  # unverifiable claim (IndexScan without a catalog)
        prefix = order[: len(op.keys)]
        if set(op.keys) != set(prefix):
            shown = ",".join(order) if order else "unsorted"
            out.emit(
                "PV020",
                Severity.ERROR,
                _where(op),
                f"claims sorted input on ({','.join(op.keys)}) but the "
                f"input order is ({shown})",
                hint="ordered boundary detection needs the keys to be "
                "a prefix of the input's sort order.",
            )


# -- PV021: dictionary staleness ---------------------------------------------


@physical_rule(
    "PV021",
    "dictionary-staleness",
    "A Reaggregate's keys carry materialization-fresh dictionaries on "
    "its source temp (the engine drops cached dictionaries on "
    "rebuild).",
)
def check_dictionary_staleness(
    analysis: DataflowAnalysis, out: DiagnosticCollector
) -> None:
    for op in analysis.plan.operators:
        if not isinstance(op, Reaggregate):
            continue
        source = analysis.state_of(op.source)
        keys = frozenset(op.keys)
        if source.grouping is not None and not keys <= source.grouping:
            continue  # PV017 owns the lattice violation
        stale = sorted(keys - source.fresh)
        if stale:
            out.emit(
                "PV021",
                Severity.ERROR,
                _where(op),
                f"reads columns {stale!r} whose dictionaries are not "
                "fresh on the materialized temp",
                hint="the executor encodes exactly the producer "
                "grouping's keys after materialization; reaggregating "
                "anything else would re-encode per consumer.",
            )


# -- PV022: est_rows interval containment ------------------------------------


@physical_rule(
    "PV022",
    "est-rows-interval",
    "Every operator's cost-model row estimate lies inside the "
    "abstract interpreter's cardinality interval.",
    severity=Severity.WARNING,
    requires=("estimator",),
)
def check_est_rows_interval(
    analysis: DataflowAnalysis, out: DiagnosticCollector
) -> None:
    epsilon = analysis.context.epsilon
    for op in analysis.plan.operators:
        if isinstance(op, (CubeExpand, RollupExpand, DropTemp)):
            continue  # PV019 owns the expansion operators
        if op.est_rows <= 0:
            continue
        interval = analysis.state_of(op.op_id).rows
        if not interval.contains(op.est_rows, epsilon):
            out.emit(
                "PV022",
                Severity.WARNING,
                _where(op),
                f"estimated output rows {op.est_rows:.0f} fall outside "
                f"the inferred cardinality interval {interval}",
                hint="the cost model's estimate contradicts bounds "
                "derived from the same statistics — one of them is "
                "wrong.",
            )


# -- PV023: answered queries match grouping keys -----------------------------


@physical_rule(
    "PV023",
    "query-answer-keys",
    "A grouping operator marked as answering a required query answers "
    "exactly its own key set, in canonical sorted order.",
)
def check_query_answer_keys(
    analysis: DataflowAnalysis, out: DiagnosticCollector
) -> None:
    for op in analysis.plan.operators:
        if not isinstance(op, GroupingOperator) or op.query is None:
            continue
        expected = tuple(sorted(op.keys))
        if op.query != expected:
            out.emit(
                "PV023",
                Severity.ERROR,
                _where(op),
                f"answers query ({','.join(op.query)}) but groups by "
                f"({','.join(expected)})",
                hint="an operator can only directly answer the query "
                "equal to its own grouping keys.",
            )


# -- PV025: cache-read soundness ----------------------------------------------


@physical_rule(
    "PV025",
    "cache-read-soundness",
    "A CacheRead's key set covers every consumer's grouping (lattice "
    "derivability), directly-answered queries equal its own keys, and "
    "its pinned source version matches the live catalog (no stale "
    "reads).",
)
def check_cache_read_soundness(
    analysis: DataflowAnalysis, out: DiagnosticCollector
) -> None:
    """Soundness of serving groupings from the semantic result cache.

    The version clause self-gates on catalog presence so context-free
    gates (serialized-plan loads, ``PhysicalPlan.check()``) still pass;
    the executor's gate carries the catalog and turns a stale pinned
    version into a hard error before any cached rows are served.
    """
    catalog = analysis.context.catalog
    plan = analysis.plan
    for op in plan.operators:
        if not isinstance(op, CacheRead):
            continue
        where = _where(op)
        keys = frozenset(op.keys)
        if op.query is not None and op.query != tuple(sorted(op.keys)):
            out.emit(
                "PV025",
                Severity.ERROR,
                where,
                f"answers query ({','.join(op.query)}) but serves the "
                f"cached grouping ({','.join(sorted(keys))})",
                hint="a cache read can only directly answer the query "
                "equal to its own key set; coarser queries go through "
                "a Reaggregate.",
            )
        for consumer in plan.operators:
            if (
                not isinstance(consumer, Reaggregate)
                or consumer.source != op.op_id
            ):
                continue
            wanted = frozenset(consumer.keys)
            if not wanted < keys:
                out.emit(
                    "PV025",
                    Severity.ERROR,
                    _where(consumer),
                    f"derives ({','.join(sorted(wanted))}) from a cache "
                    f"entry grouped on ({','.join(sorted(keys))}), "
                    "which is not strictly finer",
                    hint="a cached grouping can only answer strict "
                    "coarsenings of its own key set.",
                )
        if catalog is not None and op.table in catalog:
            live = catalog.version(op.table)
            if op.version != live:
                out.emit(
                    "PV025",
                    Severity.ERROR,
                    where,
                    f"pins {op.table!r} at version {op.version} but the "
                    f"catalog is at version {live}",
                    hint="the source table mutated after lowering; "
                    "re-lower the plan so the cache probe sees the "
                    "current version.",
                )
